package main

import (
	"sync/atomic"

	hj "handshakejoin"
)

// recorder is an engine's OnOutput sink. The engines deliver output
// from one goroutine at a time, so its fields need no lock; the run
// reads them only after Close, which orders every delivery before it.
type recorder struct {
	sc      *schedule
	pred    func(RTuple, STuple) bool
	ordered bool

	// t0 is the clock reading at which tuple sc.first was due; latency
	// samples are taken while sampling is set. Both change while the
	// engine delivers, hence the atomics.
	t0       atomic.Int64
	sampling atomic.Bool

	pairs []uint64 // R seq << 32 | S seq, in delivery order
	lats  []int64  // ns from the later input's due time to delivery
	// segAt[k] is the index in lats of the first sample delivered in
	// the k-th segment of the timed phase, by delivery time.
	segAt   []int
	puncts  []punct
	lastTS  int64
	regress int   // ordered results whose timestamp went backwards
	punctTS int64 // the latest punctuation delivered
	late    int   // ordered results below an earlier punctuation
	badPred int   // results whose payloads fail the predicate

	// Traced runs attribute each delivery to the push that admitted the
	// pair's later input: first and last delivery time, and count.
	traced     bool
	delivFirst []int64
	delivLast  []int64
	delivN     []int32
}

// punct is one punctuation of the ordered output, at its position in
// the result stream.
type punct struct {
	at int
	ts int64
}

func newRecorder(w *spec, sc *schedule, capacity int, traced bool) *recorder {
	rc := &recorder{
		sc:      sc,
		pred:    w.pred,
		ordered: w.ordered,
		pairs:   offHeap[uint64](capacity),
		lats:    offHeap[int64](capacity),
		lastTS:  -1 << 63,
		punctTS: -1 << 63,
		traced:  traced,
		segAt:   make([]int, 0, sc.segments),
	}
	if w.ordered {
		rc.puncts = make([]punct, 0, 1<<16)
	}
	if traced {
		rc.delivFirst = make([]int64, len(sc.pushes))
		rc.delivLast = make([]int64, len(sc.pushes))
		rc.delivN = make([]int32, len(sc.pushes))
	}
	return rc
}

func (rc *recorder) out(it hj.Item[RTuple, STuple]) {
	if it.Punct {
		if rc.ordered {
			rc.puncts = append(rc.puncts, punct{at: len(rc.pairs), ts: it.TS})
			rc.punctTS = max(rc.punctTS, it.TS)
		}
		return
	}
	now := clock()
	p := it.Result.Pair
	ts := p.TS()
	if rc.ordered {
		if ts < rc.punctTS {
			rc.late++
		}
		if ts < rc.lastTS {
			rc.regress++
		} else {
			rc.lastTS = ts
		}
	}
	if !rc.pred(p.R.Payload, p.S.Payload) {
		rc.badPred++
	}
	rc.pairs = append(rc.pairs, p.R.Seq<<32|p.S.Seq)
	tsFirst := rc.sc.ts(rc.sc.first)
	if ts >= tsFirst && rc.sampling.Load() {
		t0 := rc.t0.Load()
		rc.lats = append(rc.lats, now-(t0+ts-tsFirst))
		for seg := min(int((now-t0)/segment), rc.sc.segments-1); len(rc.segAt) <= seg; {
			rc.segAt = append(rc.segAt, len(rc.lats)-1)
		}
	}
	if rc.traced {
		// The later input is the one with the later timestamp; equal
		// timestamps fall back to the later push.
		k := rc.sc.pushOf(hj.R, p.R.Seq)
		if p.S.TS > p.R.TS {
			k = rc.sc.pushOf(hj.S, p.S.Seq)
		} else if p.S.TS == p.R.TS {
			k = max(k, rc.sc.pushOf(hj.S, p.S.Seq))
		}
		if rc.delivN[k] == 0 {
			rc.delivFirst[k] = now
		}
		rc.delivLast[k] = now
		rc.delivN[k]++
	}
}

// discard is the sink of throwaway set-up repetitions.
func discard(hj.Item[RTuple, STuple]) {}
