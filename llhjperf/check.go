package main

import (
	"fmt"
	"slices"

	hj "handshakejoin"
	"handshakejoin/internal/shard"
)

// checkOutput compares a run's output with a reference join of the same
// seeded inputs. It asserts:
//   - every emitted pair satisfies the predicate and none appears twice;
//   - every pair lies within W+high tuples of its later input;
//   - every reference pair within W-low is present;
//   - Ordered output never goes back in time or below a punctuation
//     already delivered, across Restore included.
//
// W is the count window; low and high are the window-boundary blur of
// this run's admission order (see boundaryBlur). Restored runs are
// checked as the recovery contract states: the prep run's output below
// the checkpoint's punctuation floor, then the restored run's output,
// form the uninterrupted run's output.
func checkOutput(w *spec, sc *schedule, in inputs, m *measurement) error {
	rec := m.rec
	if rec.badPred > 0 {
		return fmt.Errorf("%d emitted pairs fail the predicate on their own payloads", rec.badPred)
	}
	pairs := make([]uint64, 0, len(rec.pairs))
	if m.prepRec != nil {
		if pr := m.prepRec; pr.regress > 0 || pr.late > 0 || pr.badPred > 0 {
			return fmt.Errorf("prep run: %d ordering regressions, %d results below a punctuation, %d predicate failures", pr.regress, pr.late, pr.badPred)
		}
		var lastKept int64 = -1 << 63
		for _, pk := range m.prepRec.pairs {
			if ts := sc.ts(max(pk>>32, pk&0xffffffff)); ts < m.lastPunct {
				pairs = append(pairs, pk)
				lastKept = max(lastKept, ts)
			}
		}
		if len(rec.pairs) > 0 && w.ordered {
			if first := sc.ts(max(rec.pairs[0]>>32, rec.pairs[0]&0xffffffff)); first < lastKept {
				return fmt.Errorf("ordered output regressed across Restore: %d after %d", first, lastKept)
			}
		}
	}
	if rec.regress > 0 || rec.late > 0 {
		return fmt.Errorf("ordered output regressed %d times; %d results came below an earlier punctuation", rec.regress, rec.late)
	}
	pairs = append(pairs, rec.pairs...)
	slices.Sort(pairs)
	for i := 1; i < len(pairs); i++ {
		if pairs[i] == pairs[i-1] {
			return fmt.Errorf("pair (R %d, S %d) emitted twice", pairs[i]>>32, pairs[i]&0xffffffff)
		}
	}

	win := uint64(w.window)
	low, high := boundaryBlur(w, sc, in)
	fmt.Printf("check blur: documented %d, this admission order low %d high %d\n", w.blur(), low, high)
	inner := win - low
	var emittedInner int
	for _, pk := range pairs {
		r, s := pk>>32, pk&0xffffffff
		if r >= sc.nR || s >= sc.nS {
			return fmt.Errorf("pair (R %d, S %d) names a tuple that was never pushed", r, s)
		}
		if !w.pred(in.R(r), in.S(s)) {
			return fmt.Errorf("pair (R %d, S %d) does not satisfy the predicate", r, s)
		}
		d := distance(sc, r, s)
		if d == 0 || d > win+high {
			return fmt.Errorf("pair (R %d, S %d) lies %d tuples from its later input, window %d + blur %d", r, s, d, win, high)
		}
		if d <= inner {
			emittedInner++
		}
	}
	if want := referenceInner(w, sc, in, inner); emittedInner != want {
		return fmt.Errorf("%d reference pairs within W-blur = %d, but %d emitted", want, inner, emittedInner)
	}
	return nil
}

// boundaryBlur bounds how far the engine's window boundary may sit from
// the exact count window on this run's admission order, in tuples of
// the earlier input's stream. A lane flushes once it holds Batch tuples
// of one side, and the flush first injects the other side's expiries
// due by its last tuple's timestamp. With both streams on one
// timestamp grid (tuple j of either stream at j*period), a later tuple
// x therefore meets an earlier y whenever y+W exceeds the last seq of
// x's lane batch, and never once y+W <= x. Measured from the other
// stream's count at x's push, as distance does:
//   - low is the most any x's lane batch reaches past that count, plus
//     one: pairs within W-low must be present;
//   - high is the most that count runs ahead of x: no pair lies beyond
//     W+high.
//
// doc.go gives Shards*max(Batch, callerBatch) for this blur. That is
// its mean: hash routing splits caller batches unevenly, so a lane's
// Batch tuples can span more of the global stream.
func boundaryBlur(w *spec, sc *schedule, in inputs) (low, high uint64) {
	lanes := max(w.shards, 1)
	part := shard.NewPartitionerGroups(lanes, shard.DefaultGroups(lanes))
	lastOf := [2][]uint32{make([]uint32, sc.nR), make([]uint32, sc.nS)}
	for side, n := range []uint64{sc.nR, sc.nS} {
		bufs := make([][]uint32, lanes)
		for j := uint64(0); j < n; j++ {
			l := 0
			if lanes > 1 {
				var key uint64
				if side == int(hj.R) {
					key = uint64(uint32(in.R(j).X))
				} else {
					key = uint64(uint32(in.S(j).A))
				}
				l = part.Of(key)
			}
			bufs[l] = append(bufs[l], uint32(j))
			if len(bufs[l]) == w.laneBatch {
				for _, q := range bufs[l] {
					lastOf[side][q] = uint32(j)
				}
				bufs[l] = bufs[l][:0]
			}
		}
		// Close flushes the partial batches.
		for _, b := range bufs {
			for _, q := range b {
				lastOf[side][q] = uint32(n - 1)
			}
		}
	}
	for _, p := range sc.pushes {
		for j := p.first; j < p.first+uint64(p.n); j++ {
			if last := uint64(lastOf[p.side][j]); last+1 > p.other {
				low = max(low, last+1-p.other)
			}
			if p.other > j {
				high = max(high, p.other-j)
			}
		}
	}
	return low, high
}

// distance is how many tuples of the earlier input's stream were
// admitted from the earlier input up to the later input's push: 1 for
// the newest tuple, W for the oldest a count window W still holds.
func distance(sc *schedule, r, s uint64) uint64 {
	if pr := sc.pushes[sc.pushOf(hj.R, r)]; s < pr.other {
		return pr.other - s
	}
	if ps := sc.pushes[sc.pushOf(hj.S, s)]; r < ps.other {
		return ps.other - r
	}
	return 0
}

// referenceInner counts the reference pairs within inner tuples of
// their later input, walking the admission order once. Equi-joins
// follow per-key chains; the band join scans the window.
func referenceInner(w *spec, sc *schedule, in inputs, inner uint64) int {
	n := 0
	if w.index == hj.ScanIndex {
		rs, ss := make([]RTuple, sc.nR), make([]STuple, sc.nS)
		for j := range rs {
			rs[j] = in.R(uint64(j))
		}
		for j := range ss {
			ss[j] = in.S(uint64(j))
		}
		for _, p := range sc.pushes {
			lo := p.other - min(p.other, inner)
			for j := p.first; j < p.first+uint64(p.n); j++ {
				for q := lo; q < p.other; q++ {
					if (p.side == hj.R && w.pred(rs[j], ss[q])) || (p.side == hj.S && w.pred(rs[q], ss[j])) {
						n++
					}
				}
			}
		}
		return n
	}
	// head[side][key] is the newest admitted seq with that key (+1, so
	// zero means none); prev[side][seq] links to the one before it.
	const keys = 1 << 17
	head := [2][]uint32{make([]uint32, keys), make([]uint32, keys)}
	prev := [2][]uint32{make([]uint32, sc.nR), make([]uint32, sc.nS)}
	key := func(side hj.Side, j uint64) uint32 {
		if side == hj.R {
			return uint32(in.R(j).X)
		}
		return uint32(in.S(j).A)
	}
	for _, p := range sc.pushes {
		o := p.side ^ 1
		lo := p.other - min(p.other, inner)
		for j := p.first; j < p.first+uint64(p.n); j++ {
			for q := head[o][key(p.side, j)]; q > 0 && uint64(q-1) >= lo; q = prev[o][q-1] {
				n++
			}
		}
		for j := p.first; j < p.first+uint64(p.n); j++ {
			k := key(p.side, j)
			prev[p.side][j] = head[p.side][k]
			head[p.side][k] = uint32(j + 1)
		}
	}
	return n
}
