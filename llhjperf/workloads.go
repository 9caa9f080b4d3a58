package main

import (
	"encoding/binary"
	"fmt"
	"math"

	hj "handshakejoin"
	"handshakejoin/internal/workload"
)

// RTuple and STuple are the paper's §7.1 schemas; every workload joins
// them, so one engine type serves all three.
type (
	RTuple = workload.RTuple
	STuple = workload.STuple
)

// spec is one workload: the engine configuration, the offered load and
// the input generator. See README.md for why each exists.
type spec struct {
	name string

	shards, workers int
	laneBatch       int // Config.Batch
	callerBatch     int // 1 pushes with PushR/PushS, otherwise PushRBatch/PushSBatch
	window          int // count window, both sides
	rate            int // offered tuples/s per stream
	index           hj.IndexKind
	class           hj.PredicateClass
	ordered         bool
	durable         bool
	// heartbeat keeps the idle-shard heartbeats on (the default). The
	// durable workload turns them off: they flush lanes on wall-clock
	// time, which the WAL does not log, and restore is exact only
	// without them (see README.md).
	heartbeat bool
	pred      func(RTuple, STuple) bool
	// resultsPerTuple sizes the output recorder before the timed phase,
	// so recording allocates nothing while it runs.
	resultsPerTuple float64
	// prepPerStream tuples per stream are pushed, checkpointed and
	// logged in an untimed prep phase; setup restores from them.
	prepPerStream int
	// newInputs returns the seeded payload source for a run that pushes
	// n tuples per stream.
	newInputs func(seed uint64, n int) inputs
}

// blur is the window-boundary tolerance the engine documents for
// batched ingress: Shards*max(Batch, callerBatch) tuples.
func (w *spec) blur() int {
	b := w.laneBatch
	if w.callerBatch > b {
		b = w.callerBatch
	}
	return max(w.shards, 1) * b
}

// period is the inter-arrival time of one stream in nanoseconds; tuple
// j of either stream carries TS = j*period.
func (w *spec) period() int64 { return int64(1e9) / int64(w.rate) }

// config builds the engine configuration; out receives the output.
func (w *spec) config(walDir string, out func(hj.Item[RTuple, STuple])) hj.Config[RTuple, STuple] {
	cfg := hj.Config[RTuple, STuple]{
		Workers:   w.workers,
		Shards:    w.shards,
		Predicate: w.pred,
		WindowR:   hj.Window{Count: w.window},
		WindowS:   hj.Window{Count: w.window},
		Batch:     w.laneBatch,
		Ordered:   w.ordered,
		OnOutput:  out,
		Index:     w.index,
		Class:     w.class,
		Adapt:     hj.AdaptConfig{DisableHeartbeat: !w.heartbeat},
	}
	if w.index != hj.ScanIndex || w.shards > 1 {
		cfg.KeyR, cfg.KeyS = workload.RKey, workload.SKey
	}
	if w.durable {
		cfg.Durability = hj.Durability[RTuple, STuple]{
			WALDir:                 walDir,
			SyncEvery:              1024,
			CheckpointEveryBatches: 1024,
			EncodeR:                encodeR,
			DecodeR:                decodeR,
			EncodeS:                encodeS,
			DecodeS:                decodeS,
		}
	}
	return cfg
}

var workloads = []*spec{
	{
		name:            "equi-sharded",
		shards:          2,
		workers:         1,
		laneBatch:       64,
		callerBatch:     64,
		window:          4096,
		rate:            250_000,
		index:           hj.HashIndex,
		heartbeat:       true,
		pred:            workload.EquiPredicate,
		resultsPerTuple: 4096.0 / 16384,
		newInputs: func(seed uint64, _ int) inputs {
			return hashedKeys{seed: seed, key: uniformKey(16384)}
		},
	},
	{
		name:            "band-scan",
		shards:          1,
		workers:         2,
		laneBatch:       4,
		callerBatch:     1,
		window:          4096,
		rate:            2_500,
		index:           hj.ScanIndex,
		heartbeat:       true,
		pred:            workload.BandPredicate,
		resultsPerTuple: 0.03,
		newInputs:       newPaperInputs,
	},
	{
		name:            "ordered-durable",
		shards:          2,
		workers:         1,
		laneBatch:       64,
		callerBatch:     64,
		window:          16384,
		rate:            25_000,
		index:           hj.IndexAuto,
		class:           hj.PredEqui,
		ordered:         true,
		durable:         true,
		heartbeat:       false,
		pred:            workload.EquiPredicate,
		resultsPerTuple: 7,
		prepPerStream:   32768 + 2048,
		newInputs: func(seed uint64, _ int) inputs {
			return hashedKeys{seed: seed, key: zipfKey(0.7, 65536)}
		},
	},
}

func workloadByName(name string) (*spec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// inputs gives the payload of tuple j of each stream. The same seed
// gives the same payloads, so the checker regenerates what the
// generator pushed instead of keeping a copy.
type inputs interface {
	R(j uint64) RTuple
	S(j uint64) STuple
}

// hashedKeys derives each tuple's key from a counter-based hash of
// (seed, side, seq): random access, no state, no storage.
type hashedKeys struct {
	seed uint64
	key  func(u uint64) int32
}

func (h hashedKeys) R(j uint64) RTuple {
	return RTuple{X: h.key(splitmix(h.seed ^ j<<1)), Y: float32(j & 0xffff)}
}

func (h hashedKeys) S(j uint64) STuple {
	return STuple{A: h.key(splitmix(h.seed ^ (j<<1 | 1))), B: float32(j & 0xffff)}
}

func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

func uniformKey(n int) func(uint64) int32 {
	return func(u uint64) int32 { return int32(u % uint64(n)) }
}

// zipfKey draws from {0..n-1} with P(k) ∝ 1/(k+1)^theta by inverting
// the cumulative distribution, like workload.Zipf but from a supplied
// uniform value.
func zipfKey(theta float64, n int) func(uint64) int32 {
	cdf := make([]float64, n)
	sum := 0.0
	for k := range cdf {
		sum += 1 / math.Pow(float64(k+1), theta)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return func(u uint64) int32 {
		x := float64(u>>11) / (1 << 53)
		lo, hi := 0, n-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cdf[mid] < x {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return int32(lo)
	}
}

// paperInputs holds the §7.1 generator's streams, drawn up front: the
// generator is sequential, and band-scan's streams are small.
type paperInputs struct {
	r []RTuple
	s []STuple
}

func newPaperInputs(seed uint64, n int) inputs {
	g := workload.NewGenerator(workload.Config{Seed: seed, Domain: 10000, RatePerSec: 2500})
	p := paperInputs{r: make([]RTuple, n), s: make([]STuple, n)}
	for i := 0; i < n; i++ {
		p.r[i] = g.NextR().Payload
		p.s[i] = g.NextS().Payload
	}
	return p
}

func (p paperInputs) R(j uint64) RTuple { return p.r[j] }
func (p paperInputs) S(j uint64) STuple { return p.s[j] }

// Payload codecs for the WAL: the fields the workloads set.
func encodeR(r RTuple) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint32(b, uint32(r.X))
	binary.LittleEndian.PutUint32(b[4:], math.Float32bits(r.Y))
	return b
}

func decodeR(b []byte) (RTuple, error) {
	if len(b) != 8 {
		return RTuple{}, fmt.Errorf("R payload: %d bytes, want 8", len(b))
	}
	return RTuple{X: int32(binary.LittleEndian.Uint32(b)), Y: math.Float32frombits(binary.LittleEndian.Uint32(b[4:]))}, nil
}

func encodeS(s STuple) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint32(b, uint32(s.A))
	binary.LittleEndian.PutUint32(b[4:], math.Float32bits(s.B))
	return b
}

func decodeS(b []byte) (STuple, error) {
	if len(b) != 8 {
		return STuple{}, fmt.Errorf("S payload: %d bytes, want 8", len(b))
	}
	return STuple{A: int32(binary.LittleEndian.Uint32(b)), B: math.Float32frombits(binary.LittleEndian.Uint32(b[4:]))}, nil
}
