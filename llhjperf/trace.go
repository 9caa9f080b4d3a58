package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"time"
)

// origin anchors every clock reading of the process, so spans from the
// engine run and the isolation drivers share one time axis.
var origin = time.Now()

// clock is monotonic nanoseconds since origin.
func clock() int64 { return int64(time.Since(origin)) }

// span is one timed call into a layer, or a delivery window. batch is
// the index of the push it belongs to (-1 for none); parent indexes the
// causing span (-1 for the root).
type span struct {
	name       string
	batch      int
	start, end int64
	parent     int
}

type spans []span

func (ss *spans) add(name string, batch int, start, end int64, parent int) int {
	*ss = append(*ss, span{name: name, batch: batch, start: start, end: end, parent: parent})
	return len(*ss) - 1
}

// runSpans lays the traced run's timings out as a span tree:
//
//	run
//	  setup (per repetition) > new, restore, first_push
//	  timed > push (per push), deliver (per push)
//	  close
//
// A deliver span covers the first to the last delivery of the results
// whose later input the push admitted; its batch names that push. The
// engines deliver on their own goroutines, not inside Push, so deliver
// is a sibling of push rather than its child.
func runSpans(ss *spans, sc *schedule, m *measurement) {
	end := m.lastPushEnd + int64(drain)
	root := ss.add("run", -1, m.setupStart[0], m.closeStart+m.closeNs, -1)
	for i, start := range m.setupStart {
		tNew := start + m.newNs[i]
		tRestore := tNew + m.restoreNs[i]
		// The gap between restore and first_push is the harness reading
		// its counters: inside the setup span, left out of setup_s.
		tEnd := m.setupEnd[i]
		s := ss.add("setup", -1, start, tEnd, root)
		ss.add("new", -1, start, tNew, s)
		ss.add("restore", -1, tNew, tRestore, s)
		ss.add("first_push", -1, tEnd-m.firstNs[i], tEnd, s)
	}
	timed := ss.add("timed", -1, m.t0, end, root)
	rec := m.rec
	for k := sc.timedFrom; k < len(sc.pushes); k++ {
		ss.add("push", k, m.pushStart[k], m.pushEnd[k], timed)
		if rec.delivN[k] > 0 {
			ss.add("deliver", k, rec.delivFirst[k], rec.delivLast[k], timed)
		}
	}
	ss.add("close", -1, m.closeStart, m.closeStart+m.closeNs, root)
}

// selfTimes sums, per span name, each span's duration minus the part of
// it that its children cover.
func selfTimes(ss spans) map[string]int64 {
	kids := make([][]int, len(ss))
	for i, s := range ss {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	self := map[string]int64{}
	type iv struct{ a, b int64 }
	var ivs []iv
	for i, s := range ss {
		ivs = ivs[:0]
		for _, k := range kids[i] {
			a, b := max(ss[k].start, s.start), min(ss[k].end, s.end)
			if a < b {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, hi int64 = 0, s.start
		for _, v := range ivs {
			if v.b <= hi {
				continue
			}
			covered += v.b - max(v.a, hi)
			hi = v.b
		}
		self[s.name] += s.end - s.start - covered
	}
	return self
}

// writeSpans writes one tab-separated line per span: id, parent, name,
// batch, start and end in ns since the process started.
func writeSpans(path string, ss spans) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "id\tparent\tname\tbatch\tstart_ns\tend_ns")
	for i, s := range ss {
		fmt.Fprintf(bw, "%d\t%d\t%s\t%d\t%d\t%d\n", i, s.parent, s.name, s.batch, s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
