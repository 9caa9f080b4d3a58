// Command llhjperf is the engine's open-loop benchmark. It drives the
// public Joiner API from one generator goroutine at a fixed offered
// rate, checks every run's output against a reference join of the same
// seeded inputs, and prints the end-to-end metrics (--trace 0) or the
// per-layer metrics of a traced run (--trace 1). See README.md.
//
// Usage, from the root of a checkout:
//
//	bash llhjperf/run.sh --workload equi-sharded --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: equi-sharded, band-scan or ordered-durable")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 adds a traced run and reports per-layer metrics")
	commit := flag.String("commit", "unknown", "commit tag for the env block")
	workdir := flag.String("workdir", ".bench_build/llhjperf-work", "scratch directory for WAL files and spans")
	flag.Parse()
	w, err := workloadByName(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "llhjperf: bad arguments (workload %q, seconds %d, trace %d): %v\n", *name, *seconds, *trace, err)
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "llhjperf:", err)
		return 1
	}
	fmt.Printf("llhjperf workload=%s seed=%d seconds=%d trace=%d\n", w.name, *seed, *seconds, *trace)
	env, _ := json.Marshal(map[string]any{
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"num_cpu":    runtime.NumCPU(),
		"go":         runtime.Version(),
		"commit":     *commit,
	})
	fmt.Printf("env %s\n", env)

	sc := buildSchedule(w, *seconds)
	in := w.newInputs(*seed, int(max(sc.nR, sc.nS)))
	base, err := measured(w, sc, in, false, *workdir)
	if err != nil {
		return fail(base, err)
	}
	e2e := endToEnd(base)
	printMetrics("untraced", e2e)
	if *trace == 0 {
		return succeed(base, e2e)
	}

	traced, err := measured(w, sc, in, true, *workdir)
	if err != nil {
		return fail(traced, err)
	}
	printMetrics("traced", endToEnd(traced))
	var ss spans
	runSpans(&ss, sc, traced)
	iso, err := isolate(w, traced, newReplay(w, sc, in), &ss, *workdir)
	if err != nil {
		return fail(traced, fmt.Errorf("isolation: %w", err))
	}
	path := filepath.Join(*workdir, "spans-"+w.name+".tsv")
	if err := writeSpans(path, ss); err != nil {
		return fail(traced, err)
	}
	fmt.Printf("spans %d written to %s\n", len(ss), path)
	layers, absent := perLayer(w, sc, base, traced, iso, selfTimes(ss))
	for _, a := range absent {
		fmt.Printf("absent %s\n", a)
	}
	printMetrics("per-layer", layers)
	return succeed(traced, layers)
}

// measured runs the workload once and checks its output.
func measured(w *spec, sc *schedule, in inputs, traced bool, workdir string) (*measurement, error) {
	m, err := measure(w, sc, in, traced, workdir)
	if err != nil {
		return m, err
	}
	if m.pushErr != nil {
		return m, m.pushErr
	}
	if err := checkOutput(w, sc, in, m); err != nil {
		return m, fmt.Errorf("output check: %w", err)
	}
	fmt.Printf("check ok: %d pairs delivered in the timed phase\n", len(m.rec.pairs))
	fmt.Printf("setup_s repetitions (ns): %v\n", m.setupNs)
	steal, quiet := quietSegments(m)
	fmt.Printf("host steal per segment (%%): %.1f; %d quiet segments kept\n", steal, len(quiet))
	if err := generatorKeptUp(w, sc, m); err != nil {
		return m, err
	}
	return m, nil
}

// generatorKeptUp reports how late the generator pushed and fails the
// run if the offered rate was not delivered: an open-loop figure is
// only meaningful at the rate it claims.
func generatorKeptUp(w *spec, sc *schedule, m *measurement) error {
	late := lateness(sc, m)
	span := float64(m.lastPushEnd-m.t0) / 1e9
	achieved := float64(m.tuples) / 2 / span
	fmt.Printf("generator offered %d/s per stream, achieved %.0f/s; late p50 %.3f ms, p99 %.3f ms, max %.3f ms over %d pushes\n",
		w.rate, achieved, pct(late, 0.5)/1e6, pct(late, 0.99)/1e6, pct(late, 1)/1e6, len(late))
	if achieved < 0.95*float64(w.rate) {
		return fmt.Errorf("generator fell behind: %.0f of %d tuples/s per stream", achieved, w.rate)
	}
	return nil
}

// lateness is, per timed push, how long after its due time it started.
func lateness(sc *schedule, m *measurement) []float64 {
	late := make([]float64, 0, len(sc.pushes)-sc.timedFrom)
	for k := sc.timedFrom; k < len(sc.pushes); k++ {
		late = append(late, float64(m.pushStart[k]-m.t0-sc.pushes[k].due))
	}
	sort.Float64s(late)
	return late
}

// metric is one reported figure; n is its sample count.
type metric struct {
	name  string
	value float64
	unit  string
	n     int
}

// endToEnd derives the five end-to-end metrics. Latency percentiles
// and CPU per tuple are interquartile means of their values in the
// run's quiet segments (see quietSegments).
func endToEnd(m *measurement) []metric {
	rec := m.rec
	var p50, p90, cpu []float64
	_, quiet := quietSegments(m)
	for _, k := range quiet {
		if k < len(rec.segAt) {
			end := len(rec.lats)
			if k+1 < len(rec.segAt) {
				end = rec.segAt[k+1]
			}
			if seg := toFloats(rec.lats[rec.segAt[k]:end]); len(seg) > 0 {
				p50 = append(p50, pct(seg, 0.5))
				p90 = append(p90, pct(seg, 0.9))
			}
		}
		if n := m.tuplesAt[k+1] - m.tuplesAt[k]; n > 0 {
			cpu = append(cpu, float64(m.cpuAt[k+1]-m.cpuAt[k])/float64(n))
		}
	}
	setup := make([]float64, len(m.setupNs))
	for i, ns := range m.setupNs {
		setup[i] = float64(ns) / 1e9
	}
	return []metric{
		{"latency_p50_ms", iqm(p50) / 1e6, "ms", len(rec.lats)},
		{"latency_p90_ms", iqm(p90) / 1e6, "ms", len(rec.lats)},
		{"cpu_ns_per_tuple", iqm(cpu), "ns", m.tuples},
		{"heap_live_mb", float64(m.heapLive) / 1e6, "MB", 1},
		{"setup_s", median(setup), "s", len(setup)},
	}
}

// quietSegments returns each segment's host steal in percent and the
// segments whose steal is at most the median: the quieter half of the
// run, ties included. On a shared host the hypervisor sometimes takes
// a CPU away for milliseconds at a time; a segment that lost time that
// way measures the host rather than the engine (p90 latency doubles at
// 10% steal), so the figures come from the others.
func quietSegments(m *measurement) (steal []float64, quiet []int) {
	for k := 1; k < len(m.stealAt); k++ {
		ticks := m.stealAt[k][1] - m.stealAt[k-1][1]
		steal = append(steal, 100*float64(m.stealAt[k][0]-m.stealAt[k-1][0])/float64(max(ticks, 1)))
	}
	sorted := append([]float64(nil), steal...)
	sort.Float64s(sorted)
	for k, v := range steal {
		if v <= sorted[(len(sorted)-1)/2] {
			quiet = append(quiet, k)
		}
	}
	return steal, quiet
}

// byName indexes metrics by name.
func byName(ms []metric) map[string]float64 {
	out := make(map[string]float64, len(ms))
	for _, m := range ms {
		out[m.name] = m.value
	}
	return out
}

// iqm is the interquartile mean: the mean of the middle half of xs.
func iqm(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := s[len(s)/4 : len(s)-len(s)/4]
	sum := 0.0
	for _, x := range mid {
		sum += x
	}
	return sum / float64(len(mid))
}

// pct is the q-quantile of sorted xs by the nearest-rank rule.
func pct(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	i := int(q*float64(len(xs))+0.5) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

func printMetrics(label string, ms []metric) {
	for _, m := range ms {
		fmt.Printf("%-10s %-32s %16.6f %-6s n=%d\n", label, m.name, m.value, m.unit, m.n)
	}
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

func succeed(m *measurement, ms []metric) int {
	res := result{Correct: true, Attempted: m.tuples, Failed: m.failed, Metrics: map[string]valueUnit{}}
	for _, x := range ms {
		res.Metrics[x.name] = valueUnit{x.value, x.unit}
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
	return 0
}

// fail reports a run that failed a check or could not run: no
// numbers, and a non-zero exit.
func fail(m *measurement, err error) int {
	fmt.Fprintln(os.Stderr, "llhjperf:", err)
	res := result{Attempted: 1, Metrics: map[string]valueUnit{}}
	if m != nil && m.tuples > 0 {
		res.Attempted, res.Failed = m.tuples, m.failed
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
	return 1
}
