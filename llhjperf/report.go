package main

import (
	"fmt"
	"sort"
)

// perLayer derives the per-layer metrics of a traced run. base is the
// untraced run of the same invocation, iso the isolation drivers'
// per-operation costs, self the span self times. A layer the workload
// does not exercise reports 0, and absent says why.
func perLayer(w *spec, sc *schedule, base, m *measurement, iso isolated, self map[string]int64) (ms []metric, absent []string) {
	tuples := float64(m.tuples)
	b, e := m.before, m.atEnd
	secs := float64(m.lastPushEnd+int64(drain)-m.t0) / 1e9
	add := func(name string, v float64, unit string, n int) {
		ms = append(ms, metric{name, v, unit, n})
	}
	miss := func(name, unit, why string) {
		add(name, 0, unit, 0)
		absent = append(absent, fmt.Sprintf("%s on %s: %s", name, w.name, why))
	}
	be, te := byName(endToEnd(base)), byName(endToEnd(m))
	baseCPU := be["cpu_ns_per_tuple"]

	// Root driver: the push spans of the timed phase after set-up's
	// one-tuple push, and Close.
	pushed := tuples - float64(sc.pushes[sc.timedFrom].n)
	calls := make([]float64, 0, len(sc.pushes)-sc.timedFrom-1)
	var inPush float64
	for k := sc.timedFrom + 1; k < len(sc.pushes); k++ {
		d := float64(m.pushEnd[k] - m.pushStart[k])
		calls = append(calls, d)
		inPush += d
	}
	sort.Float64s(calls)
	add("driver.push_ns_per_tuple", inPush/pushed, "ns", len(calls))
	add("driver.push_call_p99_us", pct(calls, 0.99)/1e3, "us", len(calls))
	add("driver.close_ms", float64(self["close"])/1e6, "ms", 1)

	// Each tuple's isolated cost per layer, for the residual.
	var layerNs float64
	if v, ok := iso["adapt.Router.AdmitBatch"]; ok {
		add("adapt.admit_ns_per_tuple", v, "ns", 1)
		layerNs += v
	} else {
		miss("adapt.admit_ns_per_tuple", "ns", "the single-pipeline Engine has no router")
	}
	add("shard.expiry_ns_per_tuple", iso["shard.ExpiryQueue"], "ns", 1)
	layerNs += iso["shard.ExpiryQueue"]
	depth := toFloats(m.expiryDepth)
	add("shard.expiry_depth_p50", pct(depth, 0.5), "count", len(depth))

	comparisons := float64(e.Comparisons-b.Comparisons) / tuples
	add("store.comparisons_per_tuple", comparisons, "count", m.tuples)
	if v, ok := iso["store.Window.ScanSettled"]; ok {
		add("store.scan_ns_per_entry", v, "ns", 1)
		layerNs += v * comparisons
	} else {
		miss("store.scan_ns_per_entry", "ns", "hash probes skip the scan")
	}
	for _, op := range [][2]string{{"store.hash_insert_ns", "Insert"}, {"store.hash_remove_ns", "Remove"}, {"store.hash_probe_ns", "Probe"}} {
		if v, ok := iso["store.Window."+op[1]]; ok {
			add(op[0], v, "ns", 1)
			layerNs += v
		} else {
			miss(op[0], "ns", "the scan index keeps no hash table")
		}
	}
	add("store.compactions", float64(e.StoreCompactions-b.StoreCompactions), "count", 1)

	results := float64(e.Results - b.Results)
	add("core.results_per_tuple", results/tuples, "count", m.tuples)
	add("core.pending_expiries", float64(m.final.PendingExpiries), "count", 1)

	scan, hash, btree := e.ProbeScan-b.ProbeScan, e.ProbeHash-b.ProbeHash, e.ProbeBTree-b.ProbeBTree
	probes := float64(max(scan+hash+btree, 1))
	add("probe.hash_share", float64(hash)/probes, "ratio", int(probes))
	add("probe.scan_share", float64(scan)/probes, "ratio", int(probes))
	add("probe.btree_share", float64(btree)/probes, "ratio", int(probes))
	add("probe.switches", float64(e.StrategySwitches-b.StrategySwitches), "count", 1)

	add("fifo.ring_ns_per_op", iso["fifo.Ring"], "ns", isoFIFOOps)
	add("fifo.deque_ns_per_op", iso["fifo.Deque"], "ns", isoFIFOOps)

	if w.ordered {
		lag := toFloats(m.floorLag)
		add("order.floor_lag_ms_p50", pct(lag, 0.5)/1e6, "ms", len(lag))
		add("order.max_sort_buffer", float64(m.final.MaxSortBuffer), "count", 1)
		add("order.punctuations_per_s", float64(e.Punctuations-b.Punctuations)/secs, "1/s", 1)
		add("order.sorter_push_ns", iso["order.Sorter.Push"], "ns", 1)
		layerNs += iso["order.Sorter.Push"] * results / tuples
	} else {
		for _, x := range [][2]string{{"order.floor_lag_ms_p50", "ms"}, {"order.max_sort_buffer", "count"}, {"order.punctuations_per_s", "1/s"}, {"order.sorter_push_ns", "ns"}} {
			miss(x[0], x[1], "unordered output runs no sorter and no punctuation floor")
		}
	}

	if w.durable {
		walBytes := float64(e.WALBytes - b.WALBytes)
		add("wal.bytes_per_tuple", walBytes/tuples, "bytes", m.tuples)
		add("wal.checkpoints", float64(e.Checkpoints-b.Checkpoints), "count", 1)
		ck := toFloats(m.ckptNs)
		add("wal.checkpoint_ms", pct(ck, 0.5)/1e6, "ms", len(ck))
		restores := make([]float64, len(m.restoreNs))
		for i, ns := range m.restoreNs {
			restores[i] = float64(ns)
		}
		add("wal.restore_ms", median(restores)/1e6, "ms", len(restores))
		add("wal.append_ns_per_record", iso["wal.Log.Append"], "ns", 1)
		add("wal.replay_ns_per_record", iso["wal.Replay"], "ns", 1)
		layerNs += iso["wal.Log.Append"] * float64(len(sc.pushes)-sc.timedFrom) / tuples
	} else {
		for _, x := range [][2]string{{"wal.bytes_per_tuple", "bytes"}, {"wal.checkpoints", "count"}, {"wal.checkpoint_ms", "ms"}, {"wal.restore_ms", "ms"}, {"wal.append_ns_per_record", "ns"}, {"wal.replay_ns_per_record", "ns"}} {
			miss(x[0], x[1], "durability is off")
		}
	}
	add("pipeline.residual_ns_per_tuple", baseCPU-layerNs, "ns", base.tuples)

	add("runtime.alloc_bytes_per_tuple", float64(m.allocBytes)/tuples, "bytes", m.tuples)
	add("runtime.gc_cycles", float64(m.gcCycles), "count", 1)

	lats := toFloats(m.rec.lats)
	p99, p999 := pct(lats, 0.99), pct(lats, 0.999)
	add("harness.latency_p99_ms", p99/1e6, "ms", len(lats))
	add("harness.latency_p999_ms", p999/1e6, "ms", len(lats))
	add("harness.samples_beyond_p99", float64(beyond(lats, p99)), "count", len(lats))
	add("harness.samples_beyond_p999", float64(beyond(lats, p999)), "count", len(lats))
	late := lateness(sc, m)
	add("harness.gen_late_p99_ms", pct(late, 0.99)/1e6, "ms", len(late))
	add("harness.gen_late_max_ms", pct(late, 1)/1e6, "ms", len(late))
	first, last := m.stealAt[0], m.stealAt[len(m.stealAt)-1]
	segments := len(m.stealAt) - 1
	add("harness.steal_pct", 100*float64(last[0]-first[0])/float64(max(last[1]-first[1], 1)), "%", segments)
	_, quiet := quietSegments(m)
	add("harness.quiet_segments", float64(len(quiet)), "count", segments)
	add("harness.trace_overhead_pct", 100*(te["cpu_ns_per_tuple"]-baseCPU)/baseCPU, "%", 2)
	add("harness.trace_overhead_p50_pct", 100*(te["latency_p50_ms"]-be["latency_p50_ms"])/be["latency_p50_ms"], "%", 2)
	return ms, absent
}

func toFloats(xs []int64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	sort.Float64s(out)
	return out
}

// beyond counts the samples of sorted xs above v.
func beyond(xs []float64, v float64) int {
	return len(xs) - sort.Search(len(xs), func(i int) bool { return xs[i] > v })
}
