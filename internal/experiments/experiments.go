// Package experiments assembles the paper's evaluation (§7) from the
// building blocks in this repository: every figure and table has a
// function here that produces its data series, used both by the
// cmd/llhjbench harness (which prints them) and by the test suite
// (which asserts their shapes).
//
// Scale note: the paper's testbed is a 48-core machine running
// 15-minute windows at thousands of tuples/second — about 10^10
// predicate evaluations per window fill. The discrete-event simulator
// reproduces the *shape* of every experiment at a reduced scale
// (seconds-long windows, hundreds of tuples/second) on a single
// commodity core; each experiment's Params record the scaling applied.
// Latency results are reported in units of the virtual clock, so the
// HSJ-vs-LLHJ contrast (window-scale versus batch-scale latency)
// appears exactly as in Figures 5, 18, 19 and 20.
package experiments

import (
	"math"

	"handshakejoin/internal/collect"
	"handshakejoin/internal/core"
	"handshakejoin/internal/hsj"
	"handshakejoin/internal/metrics"
	"handshakejoin/internal/order"
	"handshakejoin/internal/pipeline"
	"handshakejoin/internal/stream"
	"handshakejoin/internal/workload"
)

// Algo selects the operator under test.
type Algo uint8

// Operators under test.
const (
	AlgoHSJ Algo = iota
	AlgoLLHJ
	AlgoLLHJPunct // LLHJ with punctuation generation enabled
	AlgoLLHJIndex // LLHJ with node-local hash indexes (equi-join)
)

// String implements fmt.Stringer.
func (a Algo) String() string {
	switch a {
	case AlgoHSJ:
		return "handshake join"
	case AlgoLLHJ:
		return "low-latency handshake join"
	case AlgoLLHJPunct:
		return "low-latency handshake join (punctuated)"
	case AlgoLLHJIndex:
		return "low-latency handshake join (hash index)"
	default:
		return "unknown"
	}
}

// Params describes one simulated run.
type Params struct {
	Algo  Algo
	Nodes int
	// RatePerSec is the per-stream input rate.
	RatePerSec float64
	// WindowR and WindowS are time-based window lengths in virtual ns.
	WindowR int64
	// WindowS is the S-side window in virtual ns.
	WindowS int64
	// Batch is the driver batch size.
	Batch int
	// Duration is the virtual run length in ns.
	Duration int64
	// Seed seeds the workload generator.
	Seed uint64
	// Cost is the simulator cost model; zero value means defaults.
	Cost pipeline.CostModel
	// Domain overrides the join-attribute domain (0 = paper's 10,000).
	Domain int
	// CollectPeriod enables collector modelling when > 0.
	CollectPeriod int64
}

func (p *Params) defaults() {
	if p.Nodes == 0 {
		p.Nodes = 4
	}
	if p.RatePerSec == 0 {
		p.RatePerSec = 100
	}
	if p.WindowR == 0 {
		p.WindowR = 10e9
	}
	if p.WindowS == 0 {
		p.WindowS = p.WindowR
	}
	if p.Batch == 0 {
		p.Batch = 64
	}
	if p.Duration == 0 {
		p.Duration = 3 * p.WindowR
	}
	if p.Seed == 0 {
		p.Seed = 42
	}
	if p.Cost == (pipeline.CostModel{}) {
		p.Cost = pipeline.DefaultCostModel()
	}
	if p.Domain == 0 {
		p.Domain = 10000
	}
}

// builder returns the node builder for the configured algorithm.
func (p *Params) builder() core.Builder[workload.RTuple, workload.STuple] {
	switch p.Algo {
	case AlgoHSJ:
		capR := int(p.RatePerSec * float64(p.WindowR) / 1e9)
		capS := int(p.RatePerSec * float64(p.WindowS) / 1e9)
		if capR < 1 {
			capR = 1
		}
		if capS < 1 {
			capS = 1
		}
		cfg := &hsj.Config[workload.RTuple, workload.STuple]{
			Nodes: p.Nodes, Pred: workload.BandPredicate, CapR: capR, CapS: capS,
		}
		return func(k int) core.NodeLogic[workload.RTuple, workload.STuple] { return hsj.NewNode(cfg, k) }
	case AlgoLLHJIndex:
		cfg := &core.Config[workload.RTuple, workload.STuple]{
			Nodes: p.Nodes, Pred: workload.EquiPredicate,
			Index: core.IndexHash, KeyR: workload.RKey, KeyS: workload.SKey,
		}
		return func(k int) core.NodeLogic[workload.RTuple, workload.STuple] { return core.NewNode(cfg, k) }
	default:
		cfg := &core.Config[workload.RTuple, workload.STuple]{
			Nodes: p.Nodes, Pred: workload.BandPredicate,
		}
		return func(k int) core.NodeLogic[workload.RTuple, workload.STuple] { return core.NewNode(cfg, k) }
	}
}

func (p *Params) feed() (*pipeline.Feed[workload.RTuple, workload.STuple], error) {
	wcfg := workload.Config{Seed: p.Seed, Domain: p.Domain, RatePerSec: p.RatePerSec}
	gen := workload.NewGenerator(wcfg)
	limit := p.Duration
	nextR := func() (stream.Tuple[workload.RTuple], bool) {
		t := gen.NextR()
		if t.TS > limit {
			return t, false
		}
		return t, true
	}
	nextS := func() (stream.Tuple[workload.STuple], bool) {
		t := gen.NextS()
		if t.TS > limit {
			return t, false
		}
		return t, true
	}
	return pipeline.NewFeed(pipeline.FeedConfig[workload.RTuple, workload.STuple]{
		NextR:   nextR,
		NextS:   nextS,
		WindowR: pipeline.WindowSpec{Duration: p.WindowR},
		WindowS: pipeline.WindowSpec{Duration: p.WindowS},
		Batch:   p.Batch,
	})
}

// RunResult summarizes one simulated run.
type RunResult struct {
	Params     Params
	Tuples     uint64 // per stream
	Results    uint64
	VirtualEnd int64
	MaxUtil    float64
	Stats      core.Stats
	// Latency is the full-run latency series (one point per bucket).
	Latency *metrics.Series
	// SteadyAvg and SteadyMax summarize latencies observed after the
	// windows filled (t ≥ max(WindowR, WindowS)).
	SteadyAvg float64
	SteadyMax int64
	// MaxSortBuffer is the ordered-output buffer high-water mark
	// (populated when CollectPeriod > 0).
	MaxSortBuffer int
	// Punctuations counts collector punctuation emissions.
	Punctuations int
}

// Run executes one simulated experiment, draining it completely.
func Run(p Params) (*RunResult, error) {
	res, _, err := run(p, 0)
	return res, err
}

// run executes one experiment; a non-zero deadline bounds the virtual
// time (used by sustainability probes to bail out of overload early).
// drained reports whether everything completed before the deadline.
func run(p Params, deadline int64) (*RunResult, bool, error) {
	p.defaults()
	feed, err := p.feed()
	if err != nil {
		return nil, false, err
	}
	sim := pipeline.NewSim(p.Nodes, p.builder(), p.Cost)

	res := &RunResult{Params: p, Latency: metrics.NewSeries(5000)}
	warm := p.WindowR
	if p.WindowS > warm {
		warm = p.WindowS
	}
	var steadySum float64
	var steadyN uint64
	sim.OnResult(func(_ int, r core.Result[workload.RTuple, workload.STuple]) {
		res.Results++
		lat := r.Latency()
		res.Latency.Add(r.At, lat)
		if r.At >= warm {
			steadySum += float64(lat)
			steadyN++
			if lat > res.SteadyMax {
				res.SteadyMax = lat
			}
		}
	})

	var sorter *order.Sorter[workload.RTuple, workload.STuple]
	if p.CollectPeriod > 0 {
		sorter = order.NewSorter[workload.RTuple, workload.STuple](func(core.Result[workload.RTuple, workload.STuple]) {})
		sim.EnableCollector(p.CollectPeriod, func(punct int64, batch []core.Result[workload.RTuple, workload.STuple]) {
			for _, r := range batch {
				sorter.Push(collect.Item[workload.RTuple, workload.STuple]{Result: r})
			}
			if p.Algo == AlgoLLHJPunct || p.Algo == AlgoLLHJIndex {
				sorter.Push(collect.Item[workload.RTuple, workload.STuple]{Punct: true, TS: punct})
				res.Punctuations++
			}
		})
	}

	drained := true
	if deadline > 0 {
		drained = sim.RunUntil(deadline, feed)
	} else {
		sim.Drain(feed)
	}
	res.Latency.Flush()
	if sorter != nil {
		sim.FlushResults()
		sorter.Flush()
		res.MaxSortBuffer = sorter.MaxBuffer()
	}
	r, s := feed.Counts()
	res.Tuples = r
	if s < r {
		res.Tuples = s
	}
	res.VirtualEnd = sim.Now()
	res.MaxUtil = sim.MaxUtilization()
	res.Stats = sim.Stats()
	if steadyN > 0 {
		res.SteadyAvg = steadySum / float64(steadyN)
	}
	return res, drained, nil
}

// Sustainable reports whether the configuration keeps up with its input
// rate: every node's utilization stays below the threshold and the run
// drains within a small multiple of its virtual duration.
func Sustainable(p Params, utilThreshold float64) (bool, *RunResult, error) {
	p.defaults()
	// Allow the drain to extend one window past the last arrival
	// (time-based expiries legitimately trail by a window) plus 20%
	// slack; anything beyond means the pipeline lagged its input, so
	// bail out instead of simulating the whole backlog.
	winMax := p.WindowR
	if p.WindowS > winMax {
		winMax = p.WindowS
	}
	deadline := p.Duration + winMax + p.Duration/5
	res, drained, err := run(p, deadline)
	if err != nil {
		return false, nil, err
	}
	if !drained || res.MaxUtil >= utilThreshold {
		return false, res, nil
	}
	return true, res, nil
}

// MaxRate binary-searches the highest sustainable per-stream rate for
// the configuration, between lo and hi tuples/second.
func MaxRate(p Params, lo, hi float64, iters int) (float64, error) {
	p.defaults()
	for i := 0; i < iters; i++ {
		mid := (lo + hi) / 2
		q := p
		q.RatePerSec = mid
		ok, _, err := Sustainable(q, 0.95)
		if err != nil {
			return 0, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// ModelMaxRate returns the analytic sustainable rate for the
// scan-dominated cost model: each node handles 2λ tuples/second (both
// streams pass every node), paying the fixed per-tuple cost plus a scan
// of its share of both windows (2λ·W̄/n entries, W̄ the mean window in
// seconds). Solving
//
//	2λ·(fixed + perEntry·2λ·W̄/n) = 1
//
// for λ gives the model curve printed alongside the simulated points in
// Figure 17; its λ ∝ √n shape is the paper's scalability argument.
func ModelMaxRate(p Params) float64 {
	p.defaults()
	c := p.Cost
	fixed := float64(c.PerTuple+c.PerMsg/int64(p.Batch)) / 1e9
	perEntry := float64(c.PerEntry) / 1e9
	wMean := (float64(p.WindowR) + float64(p.WindowS)) / 2 / 1e9
	// Quadratic: a·λ² + b·λ − 1 = 0 with a = 4·perEntry·wMean/n,
	// b = 2·fixed.
	a := 4 * perEntry * wMean / float64(p.Nodes)
	b := 2 * fixed
	if a == 0 {
		if b == 0 {
			return 0
		}
		return 1 / b
	}
	disc := b*b + 4*a
	return (-b + math.Sqrt(disc)) / (2 * a)
}
