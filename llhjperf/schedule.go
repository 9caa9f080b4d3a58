package main

import (
	"sort"

	hj "handshakejoin"
)

// push is one push call in admission order: a caller batch, or a single
// tuple when the workload pushes per tuple.
type push struct {
	side  hj.Side
	first uint64 // seq of the push's first tuple
	n     int
	// due is when the push is due, in ns after the timed phase's start:
	// the due time of its last tuple, so a batch waits for its tuples
	// the way a real source would. Prep pushes are not paced.
	due int64
	// other counts the opposite stream's tuples admitted before this
	// push; the checker measures window distances with it.
	other uint64
}

// schedule is the complete admission order of a run, fixed before it
// starts: the untimed prep pushes, then the timed phase, whose first
// push (index timedFrom) is the one-tuple push that ends set-up.
type schedule struct {
	pushes    []push
	timedFrom int
	first     uint64 // seq of the timed phase's first tuple, both streams
	period    int64
	// bySide lists push indices per side in seq order, to map a tuple
	// back to its push.
	bySide [2][]int32
	nR, nS uint64 // tuples per stream over the whole run
	// segments is the number of one-second segments of the timed
	// phase; end-to-end figures are interquartile means over them.
	segments int
}

// segment is the length of one segment of the timed phase. A run
// reports the interquartile mean of its per-segment figures, so a host
// stall that spoils a second or two does not move the result.
const segment = int64(1e9)

// buildSchedule lays out w's pushes for a timed phase of the given
// length: prep pushes alternate R and S caller batches; timed pushes
// follow their due times, R first on ties.
func buildSchedule(w *spec, seconds int) *schedule {
	sc := &schedule{first: uint64(w.prepPerStream), period: w.period(), segments: seconds}
	var next [2]uint64
	add := func(side hj.Side, n int, due int64) {
		sc.pushes = append(sc.pushes, push{side: side, first: next[side], n: n, due: due, other: next[side^1]})
		next[side] += uint64(n)
	}
	cb := w.callerBatch
	for next[hj.R] < sc.first {
		add(hj.R, min(cb, int(sc.first-next[hj.R])), 0)
		add(hj.S, min(cb, int(sc.first-next[hj.S])), 0)
	}
	sc.timedFrom = len(sc.pushes)
	add(hj.R, 1, 0)
	end := int64(seconds) * 1e9
	dueOf := func(side hj.Side) int64 { return int64(next[side]+uint64(cb)-1-sc.first) * sc.period }
	for {
		dr, ds := dueOf(hj.R), dueOf(hj.S)
		if dr >= end && ds >= end {
			break
		}
		if dr <= ds {
			add(hj.R, cb, dr)
		} else {
			add(hj.S, cb, ds)
		}
	}
	sc.nR, sc.nS = next[hj.R], next[hj.S]
	sc.pushes = sc.pushes[:len(sc.pushes):len(sc.pushes)]
	for i, p := range sc.pushes {
		sc.bySide[p.side] = append(sc.bySide[p.side], int32(i))
	}
	return sc
}

// pushOf returns the index of the push that admitted tuple seq of side.
func (sc *schedule) pushOf(side hj.Side, seq uint64) int {
	idx := sc.bySide[side]
	k := sort.Search(len(idx), func(i int) bool { return sc.pushes[idx[i]].first > seq }) - 1
	return int(idx[k])
}

// timedTuples counts the tuples of the timed phase, both streams.
func (sc *schedule) timedTuples() int {
	n := 0
	for _, p := range sc.pushes[sc.timedFrom:] {
		n += p.n
	}
	return n
}

// ts is the stream timestamp of tuple seq of either stream.
func (sc *schedule) ts(seq uint64) int64 { return int64(seq) * sc.period }
