package handshakejoin

// Benchmarks, one per table and figure of the paper's evaluation (§7).
// Each testing.B bench runs a scaled-down configuration of the
// corresponding experiment and reports the paper's metric through
// b.ReportMetric; cmd/llhjbench runs the same experiments at full
// simulated scale and prints the complete series; the internal/experiments
// package documentation describes the scaling from the paper's testbed.
//
//	go test -bench=. -benchmem

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"handshakejoin/internal/core"
	"handshakejoin/internal/experiments"
	"handshakejoin/internal/kang"
	"handshakejoin/internal/pipeline"
	"handshakejoin/internal/store"
	"handshakejoin/internal/stream"
	"handshakejoin/internal/workload"
)

// latencyBench runs one simulated latency experiment per iteration and
// reports steady-state average and maximum latency.
func latencyBench(b *testing.B, algo experiments.Algo, winR, winS int64, batch int) {
	b.Helper()
	var avg, max float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(experiments.Params{
			Algo: algo, Nodes: 8, RatePerSec: 100,
			WindowR: winR, WindowS: winS, Batch: batch,
			Duration: 5 * winR / 2, Domain: 300,
		})
		if err != nil {
			b.Fatal(err)
		}
		avg = res.SteadyAvg
		max = float64(res.SteadyMax)
	}
	b.ReportMetric(avg/1e6, "avg-latency-ms")
	b.ReportMetric(max/1e6, "max-latency-ms")
}

// BenchmarkFig5HSJLatency regenerates Figure 5: handshake join latency
// approaches WR·WS/(WR+WS) — here 2 s for symmetric 4 s windows (the
// paper's 200 s windows give 100 s).
func BenchmarkFig5HSJLatency(b *testing.B) {
	b.Run("WR=WS=4s", func(b *testing.B) {
		latencyBench(b, experiments.AlgoHSJ, 4e9, 4e9, 64)
	})
	b.Run("WR=2s,WS=4s", func(b *testing.B) {
		latencyBench(b, experiments.AlgoHSJ, 2e9, 4e9, 64)
	})
}

// BenchmarkFig19LLHJLatency regenerates Figure 19: LLHJ latency stays at
// the batching delay regardless of the window configuration.
func BenchmarkFig19LLHJLatency(b *testing.B) {
	b.Run("WR=WS=4s", func(b *testing.B) {
		latencyBench(b, experiments.AlgoLLHJ, 4e9, 4e9, 64)
	})
	b.Run("WR=2s,WS=4s", func(b *testing.B) {
		latencyBench(b, experiments.AlgoLLHJ, 2e9, 4e9, 64)
	})
}

// BenchmarkFig20SmallBatch regenerates Figure 20: batch size 4 divides
// the LLHJ latency by ~16 compared to batch 64.
func BenchmarkFig20SmallBatch(b *testing.B) {
	latencyBench(b, experiments.AlgoLLHJ, 4e9, 4e9, 4)
}

// BenchmarkFig17Throughput regenerates Figure 17: the maximum
// sustainable per-stream rate for HSJ, LLHJ and punctuated LLHJ at
// several pipeline widths (≈√n scaling, all three overlapping).
func BenchmarkFig17Throughput(b *testing.B) {
	for _, n := range []int{2, 4, 8} {
		for _, algo := range []experiments.Algo{experiments.AlgoHSJ, experiments.AlgoLLHJ, experiments.AlgoLLHJPunct} {
			b.Run(fmt.Sprintf("%v/cores=%d", algo, n), func(b *testing.B) {
				var rate float64
				for i := 0; i < b.N; i++ {
					p := experiments.Params{
						Algo: algo, Nodes: n, WindowR: 1e9, WindowS: 1e9,
						Batch: 16, Duration: 2e9, Cost: pipeline.CoarseCostModel(),
					}
					if algo == experiments.AlgoLLHJPunct {
						p.CollectPeriod = 50e6
					}
					r, err := experiments.MaxRate(p, 50, 6000, 5)
					if err != nil {
						b.Fatal(err)
					}
					rate = r
				}
				b.ReportMetric(rate, "tuples/sec")
			})
		}
	}
}

// BenchmarkFig18LatencyVsCores regenerates Figure 18: average latency
// by core count for both algorithms (HSJ window-bound, LLHJ flat).
func BenchmarkFig18LatencyVsCores(b *testing.B) {
	for _, n := range []int{4, 8, 16} {
		for _, algo := range []experiments.Algo{experiments.AlgoHSJ, experiments.AlgoLLHJ} {
			b.Run(fmt.Sprintf("%v/cores=%d", algo, n), func(b *testing.B) {
				var avg float64
				for i := 0; i < b.N; i++ {
					res, err := experiments.Run(experiments.Params{
						Algo: algo, Nodes: n, RatePerSec: 150,
						WindowR: 3e9, WindowS: 3e9, Batch: 64,
						Duration: 75e8, Domain: 300,
					})
					if err != nil {
						b.Fatal(err)
					}
					avg = res.SteadyAvg
				}
				b.ReportMetric(avg/1e6, "avg-latency-ms")
			})
		}
	}
}

// BenchmarkFig21SortBuffer regenerates Figure 21: the maximum buffer of
// the punctuation-driven sorting operator, by core count.
func BenchmarkFig21SortBuffer(b *testing.B) {
	for _, n := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("cores=%d", n), func(b *testing.B) {
			var buf float64
			for i := 0; i < b.N; i++ {
				res, err := experiments.Run(experiments.Params{
					Algo: experiments.AlgoLLHJPunct, Nodes: n, RatePerSec: 200,
					WindowR: 3e9, WindowS: 3e9, Batch: 64,
					Duration: 9e9, Domain: 100, CollectPeriod: 50e6,
				})
				if err != nil {
					b.Fatal(err)
				}
				buf = float64(res.MaxSortBuffer)
			}
			b.ReportMetric(buf, "max-buffer-tuples")
		})
	}
}

// BenchmarkTable2Index regenerates Table 2: sustainable throughput with
// and without node-local hash indexes (paper: 5117 vs 225,234
// tuples/sec at 40 cores — a 44x speedup).
func BenchmarkTable2Index(b *testing.B) {
	for _, algo := range []experiments.Algo{experiments.AlgoHSJ, experiments.AlgoLLHJ, experiments.AlgoLLHJIndex} {
		b.Run(algo.String(), func(b *testing.B) {
			var rate float64
			for i := 0; i < b.N; i++ {
				r, err := experiments.MaxRate(experiments.Params{
					Algo: algo, Nodes: 8, WindowR: 1e9, WindowS: 1e9,
					Batch: 16, Duration: 2e9, Cost: pipeline.CoarseCostModel(),
				}, 50, 60000, 5)
				if err != nil {
					b.Fatal(err)
				}
				rate = r
			}
			b.ReportMetric(rate, "tuples/sec")
		})
	}
}

// BenchmarkLivePipelineThroughput measures the real (wall-clock) tuple
// rate of the live goroutine runtime on this machine — not a paper
// figure, but the end-to-end cost of the Go implementation.
func BenchmarkLivePipelineThroughput(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var out sink[workload.RTuple, workload.STuple]
			eng, err := New(Config[workload.RTuple, workload.STuple]{
				Workers:     workers,
				Predicate:   workload.BandPredicate,
				WindowR:     Window{Count: 512},
				WindowS:     Window{Count: 512},
				Batch:       64,
				MaxInFlight: 8,
				OnOutput:    out.add,
			})
			if err != nil {
				b.Fatal(err)
			}
			gen := workload.NewGenerator(workload.DefaultConfig(1e6))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := gen.NextR()
				s := gen.NextS()
				eng.PushR(r.Payload, r.TS)
				eng.PushS(s.Payload, s.TS)
			}
			b.StopTimer()
			eng.Close()
			b.ReportMetric(float64(2*b.N)/b.Elapsed().Seconds(), "tuples/sec")
		})
	}
}

// shardedBenchConfig builds the equi-join configuration the sharded
// scaling benchmarks share: `shards` hash-partitioned pipelines of
// totalWorkers/shards nodes each, so every variant spends the same
// total worker budget.
func shardedBenchConfig(totalWorkers, shards int, idx IndexKind, out func(Item[workload.RTuple, workload.STuple])) Config[workload.RTuple, workload.STuple] {
	cfg := Config[workload.RTuple, workload.STuple]{
		Workers:     totalWorkers / shards,
		Shards:      shards,
		Predicate:   workload.EquiPredicate,
		WindowR:     Window{Count: 2048},
		WindowS:     Window{Count: 2048},
		Batch:       64,
		MaxInFlight: 8,
		Index:       idx,
		KeyR:        workload.RKey,
		KeyS:        workload.SKey,
		OnOutput:    out,
	}
	return cfg
}

// BenchmarkShardedThroughput compares the single-pipeline engine with
// the hash-sharded engine at equal total worker count on the equi-join
// workload — the scaling axis the paper does not explore (it scales one
// pipeline; sharding multiplies pipelines). cmd/llhjbench's `shard`
// experiment runs the same comparison at larger scale and records
// BENCH_shard.json.
func BenchmarkShardedThroughput(b *testing.B) {
	const totalWorkers = 8
	for _, shards := range []int{1, 2, 4, 8} {
		for _, idx := range []IndexKind{ScanIndex, HashIndex} {
			idxName := "scan"
			if idx == HashIndex {
				idxName = "hash"
			}
			name := fmt.Sprintf("shards=%d/workers=%d/index=%s", shards, totalWorkers/shards, idxName)
			b.Run(name, func(b *testing.B) {
				var out sink[workload.RTuple, workload.STuple]
				eng, err := New(shardedBenchConfig(totalWorkers, shards, idx, out.add))
				if err != nil {
					b.Fatal(err)
				}
				gen := workload.NewGenerator(workload.DefaultConfig(1e6))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					r := gen.NextR()
					s := gen.NextS()
					eng.PushR(r.Payload, r.TS)
					eng.PushS(s.Payload, s.TS)
				}
				b.StopTimer()
				eng.Close()
				b.ReportMetric(float64(2*b.N)/b.Elapsed().Seconds(), "tuples/sec")
			})
		}
	}
}

// BenchmarkShardedLatencyP99 measures the tail of the result latency
// distribution (emit wall time minus the later input's push wall time)
// under saturation, single-pipeline vs sharded at equal total workers.
func BenchmarkShardedLatencyP99(b *testing.B) {
	const totalWorkers = 8
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d/workers=%d", shards, totalWorkers/shards), func(b *testing.B) {
			var mu sync.Mutex
			var lats []int64
			out := func(it Item[workload.RTuple, workload.STuple]) {
				if it.Punct {
					return
				}
				p := it.Result.Pair
				in := p.R.Wall
				if p.S.Wall > in {
					in = p.S.Wall
				}
				mu.Lock()
				lats = append(lats, it.Result.At-in)
				mu.Unlock()
			}
			eng, err := New(shardedBenchConfig(totalWorkers, shards, ScanIndex, out))
			if err != nil {
				b.Fatal(err)
			}
			gen := workload.NewGenerator(workload.DefaultConfig(1e6))
			// The metrics are percentiles over the result stream, not
			// per-op times, so make sure enough tuples flow even when
			// the harness probes with a tiny b.N.
			n := b.N
			if n < 50000 {
				n = 50000
			}
			b.ResetTimer()
			for i := 0; i < n; i++ {
				r := gen.NextR()
				s := gen.NextS()
				eng.PushR(r.Payload, r.TS)
				eng.PushS(s.Payload, s.TS)
			}
			b.StopTimer()
			eng.Close()
			mu.Lock()
			defer mu.Unlock()
			if len(lats) == 0 {
				b.Fatal("workload produced no results; latency undefined")
			}
			sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
			b.ReportMetric(float64(lats[len(lats)/2])/1e6, "p50-latency-ms")
			b.ReportMetric(float64(lats[len(lats)*99/100])/1e6, "p99-latency-ms")
		})
	}
}

// BenchmarkShardedConcurrentPush measures the ingress path of the
// sharded driver under concurrent pushers, with a never-matching
// predicate so the cost measured is routing, window accounting and
// pipeline hand-off rather than result assembly.
//
// The uniform case is aggregate throughput over well-spread keys. The
// hot-pusher-isolation case gives each pusher a disjoint key range
// (the usual shape when an already-partitioned upstream feeds the
// join) and dedicates one pusher to a single hot key whose shard
// saturates: the metric is the throughput of the other pushers while
// that one is stuck in back-pressure. Per-shard ingress gates let them
// proceed; the PR-1 driver held the whole stream side across the
// blocking lane append, so every pusher degraded to the hot shard's
// service rate.
func BenchmarkShardedConcurrentPush(b *testing.B) {
	const (
		pushers = 4 // per side
		shards  = 4
		keys    = 64
	)
	newEngine := func(b *testing.B) Joiner[cidR, cidS] {
		cfg := Config[cidR, cidS]{
			Workers:     2,
			Shards:      shards,
			Predicate:   func(r cidR, s cidS) bool { return r.Key == s.Key && r.ID < 0 },
			WindowR:     Window{Count: 512},
			WindowS:     Window{Count: 512},
			Batch:       16,
			MaxInFlight: 4,
			KeyR:        func(r cidR) uint64 { return r.Key },
			KeyS:        func(s cidS) uint64 { return s.Key },
			OnOutput:    func(Item[cidR, cidS]) {},
		}
		eng, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		return eng
	}

	b.Run("uniform", func(b *testing.B) {
		eng := newEngine(b)
		perPusher := b.N/pushers + 1
		b.ResetTimer()
		var wg sync.WaitGroup
		for p := 0; p < pushers; p++ {
			p := p
			wg.Add(2)
			go func() {
				defer wg.Done()
				for i := 0; i < perPusher; i++ {
					eng.PushR(cidR{Key: uint64((p*31 + i) % keys), ID: i}, 0)
				}
			}()
			go func() {
				defer wg.Done()
				for i := 0; i < perPusher; i++ {
					eng.PushS(cidS{Key: uint64((p*31 + i*7) % keys), ID: i}, 0)
				}
			}()
		}
		wg.Wait()
		b.StopTimer()
		eng.Close()
		b.ReportMetric(float64(2*pushers*perPusher)/b.Elapsed().Seconds(), "tuples/sec")
	})

	b.Run("hot-pusher-isolation", func(b *testing.B) {
		// The metric here is the *tail latency of a clean push* while a
		// hot pusher saturates its shard. With the side lock held
		// across a blocked lane append (the PR-1 driver), a clean push
		// routinely waits for a whole hot-shard drain; with per-shard
		// gates it never queues behind the hot shard at all. (Aggregate
		// throughput is deliberately not the headline: on a single-CPU
		// host, admitting the hot stream faster consumes the shared
		// core and the convoy effect masquerades as a throttle.)
		eng := newEngine(b)
		var stop atomic.Bool
		var hotWg sync.WaitGroup
		hotWg.Add(2)
		go func() { // hot pusher: one key, one saturated shard
			defer hotWg.Done()
			for i := 0; !stop.Load(); i++ {
				eng.PushR(cidR{Key: 0, ID: i}, 0)
			}
		}()
		go func() {
			defer hotWg.Done()
			for i := 0; !stop.Load(); i++ {
				eng.PushS(cidS{Key: 0, ID: i}, 0)
			}
		}()
		span := keys / pushers
		perPusher := b.N/(pushers-1) + 1
		var mu sync.Mutex
		var lats []int64
		b.ResetTimer()
		var wg sync.WaitGroup
		for p := 1; p < pushers; p++ {
			p := p
			wg.Add(2)
			go func() {
				defer wg.Done()
				var local []int64
				for i := 0; i < perPusher; i++ {
					start := time.Now()
					eng.PushR(cidR{Key: uint64(p*span + i%span), ID: i}, 0)
					local = append(local, int64(time.Since(start)))
				}
				mu.Lock()
				lats = append(lats, local...)
				mu.Unlock()
			}()
			go func() {
				defer wg.Done()
				for i := 0; i < perPusher; i++ {
					eng.PushS(cidS{Key: uint64(p*span + (i*7)%span), ID: i}, 0)
				}
			}()
		}
		wg.Wait()
		b.StopTimer()
		stop.Store(true)
		hotWg.Wait()
		eng.Close()
		b.ReportMetric(float64(2*(pushers-1)*perPusher)/b.Elapsed().Seconds(), "clean-tuples/sec")
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		b.ReportMetric(float64(lats[len(lats)/2])/1e3, "clean-push-p50-us")
		b.ReportMetric(float64(lats[len(lats)*99/100])/1e3, "clean-push-p99-us")
		b.ReportMetric(float64(lats[len(lats)*999/1000])/1e3, "clean-push-p999-us")
	})
}

// BenchmarkShardedPushBatch measures the sharded ingress path by
// caller-batch size: the same tuple stream submitted per-tuple
// (batch-of-one) and in caller batches of 64 and 256. The predicate
// never matches and the nodes are hash-indexed over disjoint key
// domains, so probes are O(1) misses and the measured cost is the
// admission tax itself — side lock, routing, window accounting, expiry
// scheduling, gate tickets and lane hand-off. Run with -benchmem: the
// allocs/op contrast is the slice-pool and bulk-scheduling win.
// cmd/llhjbench's `ingest` experiment runs the same comparison at
// fixed scale and records BENCH_ingest.json.
func BenchmarkShardedPushBatch(b *testing.B) {
	const (
		shards = 4
		keys   = 1024
	)
	for _, cb := range []int{1, 64, 256} {
		b.Run(fmt.Sprintf("callerBatch=%d", cb), func(b *testing.B) {
			cfg := Config[cidR, cidS]{
				Workers:     1,
				Shards:      shards,
				Predicate:   func(r cidR, s cidS) bool { return r.Key == s.Key },
				WindowR:     Window{Count: 4096},
				WindowS:     Window{Count: 4096},
				Batch:       64,
				MaxInFlight: 16,
				Index:       HashIndex,
				KeyR:        func(r cidR) uint64 { return r.Key },
				KeyS:        func(s cidS) uint64 { return s.Key },
				OnOutput:    func(Item[cidR, cidS]) {},
			}
			eng, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			rBuf := make([]Stamped[cidR], 0, cb)
			sBuf := make([]Stamped[cidS], 0, cb)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ts := int64(i) * 1000
				// Disjoint domains: R keys and S keys never meet.
				r := cidR{Key: uint64(i*31) % keys, ID: i}
				s := cidS{Key: keys + uint64(i*17)%keys, ID: i}
				if cb == 1 {
					eng.PushR(r, ts)
					eng.PushS(s, ts)
					continue
				}
				rBuf = append(rBuf, Stamped[cidR]{Payload: r, TS: ts})
				sBuf = append(sBuf, Stamped[cidS]{Payload: s, TS: ts})
				if len(rBuf) == cb {
					eng.PushRBatch(rBuf)
					eng.PushSBatch(sBuf)
					rBuf = rBuf[:0]
					sBuf = sBuf[:0]
				}
			}
			eng.PushRBatch(rBuf)
			eng.PushSBatch(sBuf)
			b.StopTimer()
			eng.Close()
			b.ReportMetric(float64(2*b.N)/b.Elapsed().Seconds(), "tuples/sec")
		})
	}
}

// BenchmarkNodeScan measures the raw per-arrival cost of an LLHJ node
// scanning its window fragment (the inner loop of everything above).
func BenchmarkNodeScan(b *testing.B) {
	for _, winSize := range []int{64, 512, 4096} {
		b.Run(fmt.Sprintf("window=%d", winSize), func(b *testing.B) {
			cfg := &core.Config[workload.RTuple, workload.STuple]{Nodes: 1, Pred: workload.BandPredicate}
			node := core.NewNode(cfg, 0)
			gen := workload.NewGenerator(workload.DefaultConfig(1000))
			em := discard{}
			for i := 0; i < winSize; i++ {
				s := gen.NextS()
				node.HandleRight(core.Msg[workload.RTuple, workload.STuple]{
					Kind: core.KindArrival, Side: stream.S,
					S: []stream.Tuple[workload.STuple]{s},
				}, em)
			}
			rs := make([]stream.Tuple[workload.RTuple], b.N)
			for i := range rs {
				rs[i] = gen.NextR()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				node.HandleLeft(core.Msg[workload.RTuple, workload.STuple]{
					Kind: core.KindArrival, Side: stream.R,
					R: rs[i : i+1],
				}, em)
			}
		})
	}
}

// discard is a no-op emitter for micro-benchmarks.
type discard struct{}

func (discard) EmitLeft(core.Msg[workload.RTuple, workload.STuple])  {}
func (discard) EmitRight(core.Msg[workload.RTuple, workload.STuple]) {}
func (discard) EmitResult(stream.Pair[workload.RTuple, workload.STuple]) {
}
func (discard) StreamEnd(stream.Side, int64) {}
func (discard) Cost(int)                     {}

// BenchmarkKangBaseline measures the sequential three-step procedure for
// reference (the single-core lower bound every parallel operator is
// compared against).
func BenchmarkKangBaseline(b *testing.B) {
	for _, winSize := range []int{512, 4096} {
		b.Run(fmt.Sprintf("window=%d", winSize), func(b *testing.B) {
			j := kang.New(workload.BandPredicate, func(stream.Pair[workload.RTuple, workload.STuple]) {})
			gen := workload.NewGenerator(workload.DefaultConfig(1000))
			for i := 0; i < winSize; i++ {
				j.ProcessS(gen.NextS())
			}
			rs := make([]stream.Tuple[workload.RTuple], b.N)
			for i := range rs {
				rs[i] = gen.NextR()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j.ProcessR(rs[i])
				j.ExpireR(rs[i].Seq) // keep the R window flat
			}
		})
	}
}

// BenchmarkStoreIndexes compares the three node-local access paths on
// one window fragment (the ablation behind Table 2 and §9's future
// work).
func BenchmarkStoreIndexes(b *testing.B) {
	const n = 4096
	gen := workload.NewGenerator(workload.DefaultConfig(1000))
	ss := make([]stream.Tuple[workload.STuple], n)
	for i := range ss {
		ss[i] = gen.NextS()
	}
	probe := gen.NextR()

	b.Run("scan", func(b *testing.B) {
		w := store.NewWindow[workload.STuple]()
		for _, s := range ss {
			w.InsertSettled(s)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.ScanAll(func(s stream.Tuple[workload.STuple]) {
				_ = workload.BandPredicate(probe.Payload, s.Payload)
			})
		}
	})
	b.Run("hash", func(b *testing.B) {
		w := store.NewWindow(store.WithHashIndex(workload.SKey))
		for _, s := range ss {
			w.InsertSettled(s)
		}
		key := workload.RKey(probe.Payload)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.Probe(key, false, func(s stream.Tuple[workload.STuple]) {
				_ = workload.EquiPredicate(probe.Payload, s.Payload)
			})
		}
	})
	b.Run("btree-band", func(b *testing.B) {
		w := store.NewWindow(store.WithBTreeIndex(workload.SKey))
		for _, s := range ss {
			w.InsertSettled(s)
		}
		key := workload.RKey(probe.Payload)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			lo := uint64(0)
			if key > 10 {
				lo = key - 10
			}
			w.RangeProbe(lo, key+10, false, func(s stream.Tuple[workload.STuple]) {
				_ = workload.BandPredicate(probe.Payload, s.Payload)
			})
		}
	})
}

// measurePipelineAllocsPerTuple pushes batched tuples through a
// single-shard engine with the given pipeline width and returns the
// steady-state allocations per tuple. Disjoint key domains keep the
// predicate cold, isolating admission + window maintenance + the
// interior protocol traffic (acks, expedition-ends, expiry forwards)
// that multi-node pipelines generate per batch.
func measurePipelineAllocsPerTuple(t *testing.T, workers int) float64 {
	t.Helper()
	const (
		keys      = 512
		warm      = 20000
		measured  = 100000
		callerCap = 256
	)
	cfg := Config[cidR, cidS]{
		Workers:     workers,
		Predicate:   func(r cidR, s cidS) bool { return r.Key == s.Key },
		WindowR:     Window{Count: 2048},
		WindowS:     Window{Count: 2048},
		Batch:       64,
		MaxInFlight: 16,
		Index:       HashIndex,
		KeyR:        func(r cidR) uint64 { return r.Key },
		KeyS:        func(s cidS) uint64 { return s.Key },
		OnOutput:    func(Item[cidR, cidS]) {},
	}
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	rBuf := make([]Stamped[cidR], 0, callerCap)
	sBuf := make([]Stamped[cidS], 0, callerCap)
	push := func(from, to int) {
		for i := from; i < to; i++ {
			ts := int64(i) * 1000
			rBuf = append(rBuf, Stamped[cidR]{Payload: cidR{Key: uint64(i*31) % keys, ID: i}, TS: ts})
			sBuf = append(sBuf, Stamped[cidS]{Payload: cidS{Key: keys + uint64(i*17)%keys, ID: i}, TS: ts})
			if len(rBuf) == callerCap {
				if err := eng.PushRBatch(rBuf); err != nil {
					t.Fatal(err)
				}
				if err := eng.PushSBatch(sBuf); err != nil {
					t.Fatal(err)
				}
				rBuf, sBuf = rBuf[:0], sBuf[:0]
			}
		}
	}
	push(0, warm) // fill windows, warm every pool
	time.Sleep(50 * time.Millisecond)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	push(warm, warm+measured)
	time.Sleep(50 * time.Millisecond) // let interior traffic settle
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(2*measured)
}

// TestMultiWorkerAllocsMatchSingleWorker pins the interior-pipeline
// alloc fix: acks, expedition-end batches and expiry forwards travel in
// pooled buffers, so widening a pipeline from one node to three must
// not reintroduce per-batch-per-node allocations.
func TestMultiWorkerAllocsMatchSingleWorker(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is not meaningful under the race detector")
	}
	if testing.Short() {
		t.Skip("short mode")
	}
	single := measurePipelineAllocsPerTuple(t, 1)
	multi := measurePipelineAllocsPerTuple(t, 3)
	t.Logf("allocs/tuple: single-worker %.4f, multi-worker %.4f", single, multi)
	// Identical modulo measurement noise: a per-node-per-batch leak at
	// batch 64 would add >= 3/64 ≈ 0.047 allocs/tuple on its own.
	if multi > single+0.02 {
		t.Fatalf("multi-worker allocs/tuple %.4f exceeds single-worker %.4f + 0.02: interior forwards are allocating again", multi, single)
	}
}
