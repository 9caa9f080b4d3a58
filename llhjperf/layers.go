package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	hj "handshakejoin"
	"handshakejoin/internal/adapt"
	"handshakejoin/internal/collect"
	"handshakejoin/internal/core"
	"handshakejoin/internal/fifo"
	"handshakejoin/internal/order"
	"handshakejoin/internal/shard"
	"handshakejoin/internal/store"
	"handshakejoin/internal/stream"
	"handshakejoin/internal/wal"
	"handshakejoin/internal/wire"
	"handshakejoin/internal/workload"
)

// Caps on how much of a run the isolation drivers replay, so the traced
// invocation stays within its time budget.
const (
	isoTuples     = 1 << 19 // tuples replayed through admit, expiry and store
	isoWALRecords = 4096
	isoResults    = 1 << 17
	isoFIFOOps    = 1 << 20
	isoReps       = 3 // repetitions per driver; the median is reported
)

// isolated holds the per-operation costs the drivers measured, in ns,
// keyed by the call timed. A layer a workload does not use stays absent.
type isolated map[string]float64

// isolate replays a workload's recorded inputs, batches and results
// through the exported functions of the internal layers, one layer at a
// time in this goroutine, and records a span per driver repetition.
// Results come from the traced run m.
func isolate(w *spec, m *measurement, r *replay, ss *spans, workdir string) (isolated, error) {
	iso := isolated{}
	root := ss.add("isolate", -1, clock(), 0, -1)
	// run calls a driver isoReps times; each call returns the ns its
	// timed calls took and how many operations they were.
	run := func(name string, fn func() (int64, int, error)) error {
		per := make([]float64, 0, isoReps)
		for i := 0; i < isoReps; i++ {
			start := clock()
			ns, ops, err := fn()
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			ss.add(name, -1, start, clock(), root)
			per = append(per, float64(ns)/float64(max(ops, 1)))
		}
		iso[name] = median(per)
		return nil
	}
	var err error
	if w.shards > 1 {
		err = run("adapt.Router.AdmitBatch", r.admit)
	}
	if err == nil {
		err = run("shard.ExpiryQueue", r.expiry)
	}
	if err == nil && w.index == hj.ScanIndex {
		err = run("store.Window.ScanSettled", r.scan)
	}
	if err == nil && w.index != hj.ScanIndex {
		ins, rem, prb := r.hash()
		for _, op := range []struct {
			name string
			fn   func() (int64, int, error)
		}{{"store.Window.Insert", ins}, {"store.Window.Remove", rem}, {"store.Window.Probe", prb}} {
			if err = run(op.name, op.fn); err != nil {
				break
			}
		}
	}
	if err == nil {
		err = run("fifo.Ring", func() (int64, int, error) { return fifoOps(fifo.NewRing[msg](64)) })
	}
	if err == nil {
		err = run("fifo.Deque", func() (int64, int, error) { return fifoOps(fifo.NewDeque[msg](64)) })
	}
	if err == nil && w.ordered {
		items, results := sorterItems(m.rec)
		err = run("order.Sorter.Push", func() (int64, int, error) { return sortReplay(items), results, nil })
	}
	if err == nil && w.durable {
		recs := r.walRecords()
		dir := filepath.Join(workdir, "iso-wal")
		defer os.RemoveAll(dir)
		err = run("wal.Log.Append", func() (int64, int, error) { return walAppend(dir, recs) })
		if err == nil {
			err = run("wal.Replay", func() (int64, int, error) { return walReplay(dir, len(recs)) })
		}
	}
	(*ss)[root].end = clock()
	return iso, err
}

// sink keeps the drivers' match counts live, so the compiler cannot
// drop the predicate work they time.
var sink int

// replay is a prefix of a run's timed pushes with each tuple's key and
// lane worked out in advance, so the drivers time only the layer calls.
type replay struct {
	w       *spec
	sc      *schedule
	in      inputs
	pushes  []push
	keys    []uint64 // per tuple, in push order
	tss     []int64
	offs    []int // pushes[i]'s tuples are keys[offs[i]:offs[i+1]]
	tuples  int
	laneOf  func(side hj.Side, seq uint64) int
	keyOf   func(side hj.Side, seq uint64) uint64
	nLanes  int
	window  uint64
	evicted [][][]shard.ExpiryEntry // per push and lane: the count-window expiries it schedules
}

func newReplay(w *spec, sc *schedule, in inputs) *replay {
	r := &replay{w: w, sc: sc, in: in, nLanes: max(w.shards, 1), window: uint64(w.window)}
	r.keyOf = func(side hj.Side, seq uint64) uint64 {
		if side == hj.R {
			return uint64(uint32(in.R(seq).X))
		}
		return uint64(uint32(in.S(seq).A))
	}
	part := shard.NewPartitionerGroups(r.nLanes, shard.DefaultGroups(r.nLanes))
	r.laneOf = func(side hj.Side, seq uint64) int {
		if r.nLanes == 1 {
			return 0
		}
		return part.Of(r.keyOf(side, seq))
	}
	for _, p := range sc.pushes[sc.timedFrom:] {
		if r.tuples+p.n > isoTuples {
			break
		}
		r.pushes = append(r.pushes, p)
		r.offs = append(r.offs, len(r.keys))
		for j := p.first; j < p.first+uint64(p.n); j++ {
			r.keys = append(r.keys, r.keyOf(p.side, j))
			r.tss = append(r.tss, sc.ts(j))
		}
		r.tuples += p.n
		perLane := make([][]shard.ExpiryEntry, r.nLanes)
		for j := p.first; j < p.first+uint64(p.n); j++ {
			if j >= r.window {
				l := r.laneOf(p.side, j-r.window)
				perLane[l] = append(perLane[l], shard.ExpiryEntry{Seq: j - r.window, Due: sc.ts(j)})
			}
		}
		r.evicted = append(r.evicted, perLane)
	}
	r.offs = append(r.offs, len(r.keys))
	return r
}

// admit routes every replayed batch through a static router, as the
// sharded engine does with the adaptive controller off.
func (r *replay) admit() (int64, int, error) {
	rt := adapt.NewRouter(shard.NewPartitionerGroups(r.nLanes, shard.DefaultGroups(r.nLanes)), false, func() int64 { return 0 })
	n := r.w.callerBatch
	lanes, groups, probes := make([]int, n), make([]uint32, n), make([]int, n)
	start := clock()
	for i, p := range r.pushes {
		a, b := r.offs[i], r.offs[i+1]
		rt.AdmitBatch(p.side, r.keys[a:b], true, r.tss[a:b], 0, lanes[:b-a], groups[:b-a], probes[:b-a])
	}
	return clock() - start, r.tuples, nil
}

// expiry schedules each push's count-window expiries on the lane that
// holds the expiring tuple, then pops what is due, like a lane flush.
func (r *replay) expiry() (int64, int, error) {
	var qs [2][]*shard.ExpiryQueue
	for side := range qs {
		for l := 0; l < r.nLanes; l++ {
			qs[side] = append(qs[side], shard.NewExpiryQueue(false))
		}
	}
	var popped []uint64
	start := clock()
	for i, p := range r.pushes {
		last := r.tss[r.offs[i+1]-1]
		for l, es := range r.evicted[i] {
			q := qs[p.side][l]
			q.PushBulk(nil, es)
			popped = q.PopDueInto(last, p.first+uint64(p.n), popped[:0])
		}
	}
	return clock() - start, r.tuples, nil
}

// scan replays band-scan's S window on one node of the two-node
// pipeline (the node holding even seqs) and probes it with every R
// tuple, timing only ScanSettled. It counts the entries visited.
func (r *replay) scan() (int64, int, error) {
	const nodes = 2
	win := store.NewWindow[STuple](store.WithStride[STuple](nodes))
	var next, oldest uint64 // next S seq to insert, oldest S seq in the window
	var scanNs int64
	entries, matches := 0, 0
	for _, p := range r.pushes {
		if p.side == hj.S {
			for ; next < p.first+uint64(p.n); next++ {
				if next%nodes == 0 {
					win.InsertSettled(stream.Tuple[STuple]{Seq: next, TS: r.sc.ts(next), Payload: r.in.S(next)})
				}
			}
			for ; next-oldest > r.window; oldest++ {
				if oldest%nodes == 0 {
					win.Remove(oldest)
				}
			}
			continue
		}
		for j := p.first; j < p.first+uint64(p.n); j++ {
			rt := r.in.R(j)
			start := clock()
			entries += win.ScanSettled(func(s stream.Tuple[STuple]) {
				if r.w.pred(rt, s.Payload) {
					matches++
				}
			})
			scanNs += clock() - start
		}
	}
	sink += matches
	return scanNs, entries, nil
}

// hash replays the S side of a hash-indexed run through per-lane
// windows: insert a chunk, remove what the count window evicts, and
// probe with the R tuples of the same stretch. The three returned
// drivers each run one such replay and report one operation's time.
func (r *replay) hash() (ins, rem, prb func() (int64, int, error)) {
	const chunk = 1024
	type op struct {
		lane int
		t    stream.Tuple[STuple] // the S tuple to insert
		gone uint64               // the S seq the count window evicts, or noSeq
		key  uint64               // the probing R tuple's key, or noSeq
		pl   int                  // the probing R tuple's lane
	}
	const noSeq = ^uint64(0)
	var sSeqs, rSeqs []uint64
	for _, p := range r.pushes {
		for j := p.first; j < p.first+uint64(p.n); j++ {
			if p.side == hj.S {
				sSeqs = append(sSeqs, j)
			} else {
				rSeqs = append(rSeqs, j)
			}
		}
	}
	ops := make([]op, len(sSeqs))
	for i, j := range sSeqs {
		ops[i] = op{lane: r.laneOf(hj.S, j), t: stream.Tuple[STuple]{Seq: j, TS: r.sc.ts(j), Payload: r.in.S(j)}, gone: noSeq, key: noSeq}
		if j >= sSeqs[0]+r.window {
			ops[i].gone = j - r.window
		}
		if i < len(rSeqs) {
			ops[i].key, ops[i].pl = r.keyOf(hj.R, rSeqs[i]), r.laneOf(hj.R, rSeqs[i])
		}
	}
	goneLane := func(i int) int { return ops[i-int(r.window)].lane }
	pass := func(which int) (int64, int, error) {
		wins := make([]*store.Window[STuple], r.nLanes)
		for l := range wins {
			wins[l] = store.NewWindow[STuple](store.WithHashIndex[STuple](workload.SKey))
		}
		var ns [3]int64
		var n [3]int
		hits := 0
		for c := 0; c < len(ops); c += chunk {
			part := ops[c:min(c+chunk, len(ops))]
			start := clock()
			for i := range part {
				wins[part[i].lane].Insert(part[i].t)
			}
			ns[0] += clock() - start
			n[0] += len(part)
			start = clock()
			for i := range part {
				if part[i].gone != noSeq {
					wins[goneLane(c+i)].Remove(part[i].gone)
					n[1]++
				}
			}
			ns[1] += clock() - start
			start = clock()
			for i := range part {
				if part[i].key != noSeq {
					wins[part[i].pl].Probe(part[i].key, false, func(stream.Tuple[STuple]) { hits++ })
					n[2]++
				}
			}
			ns[2] += clock() - start
		}
		sink += hits
		return ns[which], n[which], nil
	}
	return func() (int64, int, error) { return pass(0) },
		func() (int64, int, error) { return pass(1) },
		func() (int64, int, error) { return pass(2) }
}

// walRecords encodes the replayed pushes the way the engine logs them:
// a count, then timestamp and payload per tuple.
func (r *replay) walRecords() [][]byte {
	var recs [][]byte
	for i, p := range r.pushes {
		if len(recs) == isoWALRecords {
			break
		}
		w := wire.NewWriter(16 + p.n*24)
		w.U32(uint32(p.n))
		for j := p.first; j < p.first+uint64(p.n); j++ {
			w.I64(r.tss[r.offs[i]+int(j-p.first)])
			if p.side == hj.R {
				w.Blob(encodeR(r.in.R(j)))
			} else {
				w.Blob(encodeS(r.in.S(j)))
			}
		}
		recs = append(recs, w.Bytes())
	}
	return recs
}

// walAppend appends the records to a fresh log with the engine's sync
// settings: fsync every 1024 records, off the append path.
func walAppend(dir string, recs [][]byte) (int64, int, error) {
	if err := os.RemoveAll(dir); err != nil {
		return 0, 0, err
	}
	l, err := wal.Open(dir, wal.Options{SyncEvery: 1024, AsyncSync: true})
	if err != nil {
		return 0, 0, err
	}
	start := clock()
	for _, rec := range recs {
		if _, _, err := l.Append(wal.KindR, rec); err != nil {
			l.Close()
			return 0, 0, err
		}
	}
	ns := clock() - start
	return ns, len(recs), l.Close()
}

// walReplay reads the log walAppend wrote back.
func walReplay(dir string, want int) (int64, int, error) {
	bytes := 0
	start := clock()
	n, err := wal.Replay(dir, 0, func(rec wal.Record) error { bytes += len(rec.Payload); return nil })
	ns := clock() - start
	if err != nil {
		return 0, 0, err
	}
	if n != want {
		return 0, 0, fmt.Errorf("replayed %d records, appended %d", n, want)
	}
	sink += bytes
	return ns, n, nil
}

// sorterItems rebuilds a prefix of an ordered run's output stream —
// results and punctuations in delivery order — for Sorter.Push.
func sorterItems(rec *recorder) ([]collect.Item[RTuple, STuple], int) {
	n := min(len(rec.pairs), isoResults)
	items := make([]collect.Item[RTuple, STuple], 0, n+len(rec.puncts))
	pi := 0
	for i := 0; i < n; i++ {
		for ; pi < len(rec.puncts) && rec.puncts[pi].at <= i; pi++ {
			items = append(items, collect.Item[RTuple, STuple]{Punct: true, TS: rec.puncts[pi].ts})
		}
		rs, ss := rec.pairs[i]>>32, rec.pairs[i]&0xffffffff
		items = append(items, collect.Item[RTuple, STuple]{Result: core.Result[RTuple, STuple]{Pair: stream.Pair[RTuple, STuple]{
			R: stream.Tuple[RTuple]{Seq: rs, TS: rec.sc.ts(rs)},
			S: stream.Tuple[STuple]{Seq: ss, TS: rec.sc.ts(ss)},
		}}})
	}
	return items, n
}

// sortReplay pushes the items through a fresh Sorter and returns the
// time the pushes took.
func sortReplay(items []collect.Item[RTuple, STuple]) int64 {
	released := 0
	s := order.NewSorter(func(core.Result[RTuple, STuple]) { released++ })
	start := clock()
	for _, it := range items {
		s.Push(it)
	}
	ns := clock() - start
	s.Flush()
	sink += released
	return ns
}

// msg is the pipeline's link message.
type msg = core.Msg[RTuple, STuple]

// fifoOps times bursts of TryPut then TryGet on q from one goroutine.
func fifoOps(q fifo.Queue[msg]) (int64, int, error) {
	const burst = 32
	var m msg
	start := clock()
	for i := 0; i < isoFIFOOps/(2*burst); i++ {
		for k := 0; k < burst; k++ {
			if ok, err := q.TryPut(m); !ok || err != nil {
				return 0, 0, fmt.Errorf("TryPut refused: %v", err)
			}
		}
		for k := 0; k < burst; k++ {
			m, _, _ = q.TryGet()
		}
	}
	return clock() - start, isoFIFOOps, nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
