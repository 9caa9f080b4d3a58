// Command llhjbench regenerates every table and figure of the paper's
// evaluation (§7) from this repository's implementation, using the
// discrete-event simulator so that paper-scale pipeline widths (4–40
// cores) run on any machine. Output is the same rows/series the paper
// plots; absolute values are at the reduced scale described in the
// internal/experiments package documentation (the shapes are the
// reproduction target).
//
// Usage (flags go before the experiment name):
//
//	llhjbench [flags] <experiment>
//
// Experiments:
//
//	fig5     HSJ latency over wall-clock time (two window configs)
//	fig17    throughput/stream vs cores: HSJ, LLHJ, LLHJ+punctuation
//	fig18    average latency vs cores: HSJ vs LLHJ
//	fig19    LLHJ latency over time (batch 64, two window configs)
//	fig20    LLHJ latency over time (batch 4)
//	fig21    max sort-buffer size vs cores (punctuated ordered output)
//	table2   throughput at max cores: HSJ, LLHJ, LLHJ+hash-index
//	shard    live sharded vs single-pipeline equi-join scaling (-shards,
//	         -json BENCH_shard.json) — this repository's scaling curve
//	         beyond the paper, not a paper figure
//	skew     uniform vs Zipf-skewed keys, static vs adaptive routing
//	         (-json BENCH_skew.json) — what the adaptive shard runtime
//	         recovers when hot keys collide on one shard
//	ingest   per-tuple vs batched ingress on the sharded driver
//	         (-json BENCH_ingest.json) — what PushRBatch/PushSBatch
//	         amortization recovers on the admission path
//	probe    static scan/hash/btree access paths vs the IndexAuto
//	         per-key-group strategy selector across selectivity mixes
//	         (-json BENCH_probe.json), with enforced crossover checks
//	recover  the price of durability: baseline vs WAL vs WAL plus
//	         checkpoints, the fault seam and a degrade/re-arm cycle,
//	         and checkpoint/restore timings by window size
//	         (-json BENCH_recover.json)
//	all      run everything
//
// Common flags: -scale, -quick, -csv (see -h).
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"handshakejoin"
	"handshakejoin/internal/experiments"
	"handshakejoin/internal/pipeline"
)

var (
	quick      = flag.Bool("quick", false, "smaller parameters: faster, coarser shapes")
	csv        = flag.Bool("csv", false, "emit comma-separated values instead of aligned text")
	cores      = flag.String("cores", "4,8,12,16,20,24,28,32,36,40", "core counts for the scaling experiments")
	shardsFlag = flag.String("shards", "1,2,4,8", "shard counts for the shard experiment (must divide the worker budget)")
	jsonOut    = flag.String("json", "", "write the shard experiment report to this JSON file (e.g. BENCH_shard.json)")
	maxAllocs  = flag.Float64("maxallocs", 0, "ingest/probe: fail (exit 1) if a row exceeds its allocation budget (ingest: absolute allocs/tuple per row; probe: auto's allocs/tuple over the best static's); 0 disables — the CI sanity steps pin the hot paths' allocation budgets with it")
	obsAddr    = flag.String("obs", "", "serve each live engine's observability endpoint (/metrics, /events, /debug/pprof) on this address while its row runs (shard/skew/ingest experiments; e.g. 127.0.0.1:9177)")
	cpuProf    = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memProf    = flag.String("memprofile", "", "write a heap profile to this file on exit")
	pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address for the life of the process")
)

func main() {
	flag.Usage = usage
	flag.Parse()
	os.Exit(run())
}

// run carries the whole invocation so the profile teardown runs on
// every exit path (os.Exit skips defers).
func run() int {
	if flag.NArg() < 1 {
		usage()
		return 2
	}
	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "llhjbench: pprof endpoint: %v\n", err)
			}
		}()
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "llhjbench: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "llhjbench: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "llhjbench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "llhjbench: %v\n", err)
			}
		}()
	}
	cmd := flag.Arg(0)
	runners := map[string]func() error{
		"fig5":    fig5,
		"fig17":   fig17,
		"fig18":   fig18,
		"fig19":   fig19,
		"fig20":   fig20,
		"fig21":   fig21,
		"table2":  table2,
		"shard":   shardScaling,
		"skew":    skewExperiment,
		"ingest":  ingestExperiment,
		"probe":   probeExperiment,
		"recover": recoverExperiment,
	}
	if cmd == "all" {
		for _, name := range []string{"fig5", "fig17", "fig18", "fig19", "fig20", "fig21", "table2", "shard", "skew", "ingest", "probe", "recover"} {
			fmt.Printf("==== %s ====\n", name)
			if err := runners[name](); err != nil {
				fmt.Fprintf(os.Stderr, "llhjbench %s: %v\n", name, err)
				return 1
			}
			fmt.Println()
		}
		return 0
	}
	fn, ok := runners[cmd]
	if !ok {
		fmt.Fprintf(os.Stderr, "llhjbench: unknown experiment %q\n\n", cmd)
		usage()
		return 2
	}
	if err := fn(); err != nil {
		fmt.Fprintf(os.Stderr, "llhjbench %s: %v\n", cmd, err)
		return 1
	}
	return 0
}

// obsCfg is the observability configuration every live-engine row
// applies: with -obs unset it is zero and the layer stays off. Rows run
// sequentially and each engine closes its listener on Close, so one
// address serves whichever engine is currently live.
func obsCfg() handshakejoin.ObsConfig {
	return handshakejoin.ObsConfig{Addr: *obsAddr}
}

func usage() {
	fmt.Fprintf(os.Stderr, `llhjbench — reproduce the evaluation of "Low-Latency Handshake Join" (PVLDB 7(9), 2014)

usage: llhjbench <fig5|fig17|fig18|fig19|fig20|fig21|table2|shard|skew|ingest|probe|recover|all> [flags]

flags:
`)
	flag.PrintDefaults()
}

func coreList() []int {
	var out []int
	for _, f := range strings.Split(*cores, ",") {
		var n int
		if _, err := fmt.Sscanf(strings.TrimSpace(f), "%d", &n); err == nil && n > 0 {
			out = append(out, n)
		}
	}
	if len(out) == 0 {
		out = []int{4, 8, 16, 24, 32, 40}
	}
	return out
}

func emit(cols ...any) {
	if *csv {
		parts := make([]string, len(cols))
		for i, c := range cols {
			parts[i] = strings.TrimSpace(fmt.Sprint(c))
		}
		fmt.Println(strings.Join(parts, ","))
		return
	}
	for _, c := range cols {
		fmt.Printf("%14v", c)
	}
	fmt.Println()
}

func ms(ns float64) string  { return fmt.Sprintf("%.2f", ns/1e6) }
func sec(ns float64) string { return fmt.Sprintf("%.2f", ns/1e9) }

// latencySeries runs one latency experiment and prints the
// latency-over-time series the paper plots in Figures 5, 19 and 20.
func latencySeries(algo experiments.Algo, winR, winS int64, batch int, unit string) error {
	p := experiments.Params{
		Algo:       algo,
		Nodes:      40,
		RatePerSec: 50,
		WindowR:    winR,
		WindowS:    winS,
		Batch:      batch,
		Duration:   5 * maxI64(winR, winS) / 2,
		Domain:     200,
	}
	if *quick {
		p.Nodes = 8
		p.Duration = 3 * maxI64(winR, winS) / 2
	}
	res, err := experiments.Run(p)
	if err != nil {
		return err
	}
	fmt.Printf("# %v, |WR|=%ds |WS|=%ds, batch %d, %d cores, rate %.0f tuples/s\n",
		algo, winR/1e9, winS/1e9, batch, p.Nodes, p.RatePerSec)
	emit("time(s)", "avg("+unit+")", "std("+unit+")", "max("+unit+")", "tuples")
	div := 1e6
	if unit == "s" {
		div = 1e9
	}
	for _, pt := range res.Latency.Points() {
		emit(sec(float64(pt.At)),
			fmt.Sprintf("%.3f", pt.Avg/div),
			fmt.Sprintf("%.3f", pt.Std/div),
			fmt.Sprintf("%.3f", float64(pt.Max)/div),
			pt.Count)
	}
	fmt.Printf("# steady state: avg %.3f%s max %.3f%s over %d results\n",
		res.SteadyAvg/div, unit, float64(res.SteadyMax)/div, unit, res.Results)
	return nil
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// fig5 reproduces Figure 5: latency distribution of the original
// handshake join for 200/200s and 100/200s windows. The paper's
// steady-state maxima are 100s and 66.6s (= WR·WS/(WR+WS)).
func fig5() error {
	winA, winB := int64(200e9), int64(200e9)
	if *quick {
		winA, winB = 20e9, 20e9
	}
	if err := latencySeries(experiments.AlgoHSJ, winA, winB, 64, "s"); err != nil {
		return err
	}
	fmt.Println()
	if *quick {
		return latencySeries(experiments.AlgoHSJ, winA/2, winB, 64, "s")
	}
	return latencySeries(experiments.AlgoHSJ, 100e9, 200e9, 64, "s")
}

// fig19 reproduces Figure 19: LLHJ latency for the same two window
// configurations (paper: avg < 10ms, max ≤ 30ms, dominated by the
// 64-tuple batching delay).
func fig19() error {
	winA, winB := int64(200e9), int64(200e9)
	if *quick {
		winA, winB = 20e9, 20e9
	}
	if err := latencySeries(experiments.AlgoLLHJ, winA, winB, 64, "ms"); err != nil {
		return err
	}
	fmt.Println()
	if *quick {
		return latencySeries(experiments.AlgoLLHJ, winA/2, winB, 64, "ms")
	}
	return latencySeries(experiments.AlgoLLHJ, 100e9, 200e9, 64, "ms")
}

// fig20 reproduces Figure 20: LLHJ latency with batch size 4 (paper:
// avg ≈ 1ms, max 3–4ms).
func fig20() error {
	win := int64(200e9)
	if *quick {
		win = 20e9
	}
	return latencySeries(experiments.AlgoLLHJ, win, win, 4, "ms")
}

// scalingParams is the shared configuration of the throughput/latency
// scaling experiments (Figures 17, 18, 21 and Table 2). The paper uses
// a 15-minute window; the simulator uses a 1-second window with a
// coarse cost model, preserving the scan-dominated cost structure.
func scalingParams() experiments.Params {
	p := experiments.Params{
		WindowR:  1e9,
		WindowS:  1e9,
		Batch:    64,
		Duration: 25e8,
		Cost:     pipeline.CoarseCostModel(),
	}
	if *quick {
		p.Duration = 15e8
	}
	return p
}

func searchRate(p experiments.Params, algo experiments.Algo, n int, hi float64) (float64, error) {
	p.Algo = algo
	p.Nodes = n
	iters := 7
	if *quick {
		iters = 5
	}
	return experiments.MaxRate(p, 25, hi, iters)
}

// fig17 reproduces Figure 17: maximum sustainable throughput per stream
// vs core count for HSJ, LLHJ and LLHJ with punctuations, plus the
// analytic √n model curve.
func fig17() error {
	p := scalingParams()
	fmt.Println("# max sustainable throughput per stream (tuples/sec)")
	emit("cores", "hsj", "llhj", "llhj+punct", "model")
	for _, n := range coreList() {
		hsjRate, err := searchRate(p, experiments.AlgoHSJ, n, 6000)
		if err != nil {
			return err
		}
		llhjRate, err := searchRate(p, experiments.AlgoLLHJ, n, 6000)
		if err != nil {
			return err
		}
		pp := p
		pp.CollectPeriod = 50e6
		punctRate, err := searchRate(pp, experiments.AlgoLLHJPunct, n, 6000)
		if err != nil {
			return err
		}
		model := experiments.ModelMaxRate(experiments.Params{
			Algo: experiments.AlgoLLHJ, Nodes: n,
			WindowR: p.WindowR, WindowS: p.WindowS, Batch: p.Batch, Cost: p.Cost,
		})
		emit(n, fmt.Sprintf("%.0f", hsjRate), fmt.Sprintf("%.0f", llhjRate),
			fmt.Sprintf("%.0f", punctRate), fmt.Sprintf("%.0f", model))
	}
	return nil
}

// fig18 reproduces Figure 18: average result latency vs core count for
// both algorithms at a fixed input rate (log-scale contrast: HSJ sits at
// the window scale, LLHJ at the batching scale).
func fig18() error {
	win := int64(10e9)
	if *quick {
		win = 4e9
	}
	fmt.Printf("# average latency (seconds), window %ds, batch 64, rate 300 tuples/s\n", win/1e9)
	emit("cores", "hsj(s)", "llhj(s)", "ratio")
	for _, n := range coreList() {
		base := experiments.Params{
			Nodes: n, RatePerSec: 300, WindowR: win, WindowS: win,
			Batch: 64, Duration: 5 * win / 2, Domain: 200,
		}
		h := base
		h.Algo = experiments.AlgoHSJ
		hres, err := experiments.Run(h)
		if err != nil {
			return err
		}
		l := base
		l.Algo = experiments.AlgoLLHJ
		lres, err := experiments.Run(l)
		if err != nil {
			return err
		}
		ratio := 0.0
		if lres.SteadyAvg > 0 {
			ratio = hres.SteadyAvg / lres.SteadyAvg
		}
		emit(n, sec(hres.SteadyAvg), fmt.Sprintf("%.4f", lres.SteadyAvg/1e9),
			fmt.Sprintf("%.0fx", ratio))
	}
	return nil
}

// fig21 reproduces Figure 21: maximum buffer size of the downstream
// sorting operator consuming the punctuated LLHJ output.
func fig21() error {
	win := int64(5e9)
	if *quick {
		win = 2e9
	}
	fmt.Println("# max sort buffer (tuples) with punctuated output")
	emit("cores", "maxbuffer", "results", "punctuations")
	for _, n := range coreList() {
		p := experiments.Params{
			Algo: experiments.AlgoLLHJPunct, Nodes: n, RatePerSec: 200,
			WindowR: win, WindowS: win, Batch: 64,
			Duration: 3 * win, Domain: 100, CollectPeriod: 50e6,
		}
		res, err := experiments.Run(p)
		if err != nil {
			return err
		}
		emit(n, res.MaxSortBuffer, res.Results, res.Punctuations)
	}
	return nil
}

// table2 reproduces Table 2: throughput of the widest configuration for
// HSJ, LLHJ and LLHJ with node-local hash indexes (paper, 40 cores &
// 15-minute windows: 5125 / 5117 / 225,234 tuples/sec — a 44x index
// speedup).
func table2() error {
	p := scalingParams()
	cs := coreList()
	n := cs[len(cs)-1]
	fmt.Printf("# max sustainable throughput at %d cores (tuples/sec)\n", n)
	emit("algorithm", "tuples/sec")
	hsjRate, err := searchRate(p, experiments.AlgoHSJ, n, 6000)
	if err != nil {
		return err
	}
	emit("handshake join", fmt.Sprintf("%.0f", hsjRate))
	llhjRate, err := searchRate(p, experiments.AlgoLLHJ, n, 6000)
	if err != nil {
		return err
	}
	emit("low-latency handshake join", fmt.Sprintf("%.0f", llhjRate))
	pIdx := p
	pIdx.Batch = 8 // smaller batches shrink the linearly scanned in-flight buffer,
	// which the coarse cost model (pipeline.CoarseCostModel) otherwise over-charges
	idxRate, err := searchRate(pIdx, experiments.AlgoLLHJIndex, n, 250000)
	if err != nil {
		return err
	}
	emit("low-latency handshake join with index", fmt.Sprintf("%.0f", idxRate))
	fmt.Printf("# index speedup: %.1fx over scan\n", idxRate/llhjRate)
	return nil
}
