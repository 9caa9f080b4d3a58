package pipeline

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"handshakejoin/internal/clock"
	"handshakejoin/internal/core"
	"handshakejoin/internal/fifo"
	"handshakejoin/internal/stream"
)

// Live executes a pipeline with one goroutine per node, connected by
// bounded lock-free FIFO links — the Go analogue of the paper's
// one-thread-per-core deployment with Multikernel-style asynchronous
// channels. Each directed link carries every message kind in strict
// FIFO order, which the protocol's correctness requires.
//
// Results are written to per-node queues (Q1..Qn in Figure 15) and
// drained by a collector (package collect). High-water marks for
// punctuation generation are published through atomics by the pipeline
// end nodes. Both are announced on a one-token doorbell (Bell) that the
// collector blocks on, so results leave the pipeline as soon as they
// are queued.
type Live[L, R any] struct {
	nodes []core.NodeLogic[L, R]
	clk   clock.Clock

	// links[i][0] = messages travelling rightward into node i
	// (HandleLeft); links[i][1] = leftward into node i (HandleRight).
	// Interior links are unbounded so that neighbouring nodes can never
	// deadlock on mutual back-pressure; the entry links are bounded by
	// entryCap through Inject.
	links  [][2]*fifo.Deque[core.Msg[L, R]]
	notify []chan struct{} // wake-up doorbell per node
	idle   []atomic.Bool

	resultQ  []*fifo.Chan[core.Result[L, R]]
	entryCap int
	depthCap int

	hwmR, hwmS atomic.Int64

	// bell is the collector's doorbell: one token, rung after every
	// result put, high-water-mark raise or queue close it announces, so
	// a collector that drains and re-arms can never miss a wake-up.
	bell chan struct{}

	depth atomic.Int64 // messages in flight across all links

	// Pooled seq buffers and recycling tokens for the messages nodes
	// originate per batch (acks, expedition-ends, expiry forwards).
	// These are taken on one node's goroutine and released on its
	// neighbour's, so the pool is shared pipeline-wide under one mutex —
	// the traffic is one take/put pair per node per batch, far off the
	// per-tuple path.
	seqMu    sync.Mutex
	seqBufs  [][]uint64
	seqFrees []*core.Free[L, R]

	stop atomic.Bool
	wg   sync.WaitGroup
}

// seqPoolCap bounds both pools; overflow falls back to the garbage
// collector.
const seqPoolCap = 64

// LiveConfig tunes the live runtime.
type LiveConfig struct {
	// LinkCap bounds the number of messages the driver may have pending
	// at a pipeline entry (back-pressure point). Default 1024.
	LinkCap int
	// DepthCap bounds the total number of messages in flight across all
	// links; Inject blocks while the pipeline is deeper. This is the
	// analogue of the paper's bounded FIFO channels: it keeps the
	// in-flight volume far below the window size, which the window
	// semantics require (an expiry must never race a whole window of
	// in-flight tuples to its home node). Default 128.
	DepthCap int
	// ResultCap is the capacity of each per-node result queue.
	// Default 65536.
	ResultCap int
}

func (c *LiveConfig) defaults() {
	if c.LinkCap < 1 {
		c.LinkCap = 1024
	}
	if c.ResultCap < 1 {
		c.ResultCap = 65536
	}
	if c.DepthCap < 1 {
		c.DepthCap = 128
	}
}

// NewLive builds the pipeline and starts one goroutine per node.
func NewLive[L, R any](n int, build core.Builder[L, R], clk clock.Clock, cfg LiveConfig) *Live[L, R] {
	if n < 1 {
		panic(fmt.Sprintf("runtime: pipeline needs >= 1 node, got %d", n))
	}
	cfg.defaults()
	if clk == nil {
		clk = clock.NewWall()
	}
	lv := &Live[L, R]{
		clk:      clk,
		entryCap: cfg.LinkCap,
		depthCap: cfg.DepthCap,
		links:    make([][2]*fifo.Deque[core.Msg[L, R]], n),
		notify:   make([]chan struct{}, n),
		idle:     make([]atomic.Bool, n),
		resultQ:  make([]*fifo.Chan[core.Result[L, R]], n),
		bell:     make(chan struct{}, 1),
	}
	for k := 0; k < n; k++ {
		lv.nodes = append(lv.nodes, build(k))
		lv.links[k][0] = fifo.NewDeque[core.Msg[L, R]](64)
		lv.links[k][1] = fifo.NewDeque[core.Msg[L, R]](64)
		lv.notify[k] = make(chan struct{}, 1)
		lv.resultQ[k] = fifo.NewChan[core.Result[L, R]](cfg.ResultCap)
	}
	lv.wg.Add(n)
	for k := 0; k < n; k++ {
		go lv.nodeLoop(k)
	}
	return lv
}

// HWMR returns the R-side high-water mark tmax,R (§6.1.1).
func (lv *Live[L, R]) HWMR() int64 { return lv.hwmR.Load() }

// HWMS returns the S-side high-water mark tmax,S.
func (lv *Live[L, R]) HWMS() int64 { return lv.hwmS.Load() }

// ResultQueues exposes the per-node result queues for the collector.
func (lv *Live[L, R]) ResultQueues() []*fifo.Chan[core.Result[L, R]] { return lv.resultQ }

// Bell returns the collector's doorbell. It holds a token whenever a
// result queue gained items, a high-water mark rose or a queue closed
// since the token was last taken; a collector waits on it between
// passes.
func (lv *Live[L, R]) Bell() <-chan struct{} { return lv.bell }

// ring leaves a token on the collector's doorbell. It never blocks: a
// token already waiting covers this announcement too, because the
// collector's next pass starts after it takes the token.
func (lv *Live[L, R]) ring() {
	select {
	case lv.bell <- struct{}{}:
	default:
	}
}

// Inject delivers msg to a pipeline end, blocking while the entry link
// holds more than the configured bound (driver back-pressure). It
// returns false after Stop.
func (lv *Live[L, R]) Inject(end End, msg core.Msg[L, R]) bool {
	node, dir := 0, 0
	if end == RightEnd {
		node, dir = len(lv.nodes)-1, 1
	}
	q := lv.links[node][dir]
	for q.Len() >= lv.entryCap || int(lv.depth.Load()) >= lv.depthCap {
		if lv.stop.Load() {
			return false
		}
		runtime.Gosched()
	}
	return lv.put(node, dir, msg)
}

// put enqueues msg into links[node][dir] and rings the doorbell.
// Interior links are unbounded, so put never blocks — a requirement,
// because a node blocking on its neighbour while the neighbour blocks
// back would deadlock the pipeline.
func (lv *Live[L, R]) put(node, dir int, msg core.Msg[L, R]) bool {
	if err := lv.links[node][dir].Put(msg); err != nil {
		return false
	}
	lv.depth.Add(1)
	select {
	case lv.notify[node] <- struct{}{}:
	default:
	}
	return true
}

// nodeLoop is the per-core event loop of Figure 12: alternately poll the
// left and right input channels and dispatch to the handlers.
func (lv *Live[L, R]) nodeLoop(k int) {
	defer lv.wg.Done()
	defer func() {
		lv.resultQ[k].Close()
		lv.ring() // the collector exits once it sees every queue closed
	}()
	em := &liveEmitter[L, R]{lv: lv, k: k}
	left, right := lv.links[k][0], lv.links[k][1]
	for {
		progress := false
		if m, ok, _ := left.TryGet(); ok {
			lv.nodes[k].HandleLeft(m, em)
			lv.release(m)
			lv.depth.Add(-1)
			progress = true
		}
		if m, ok, _ := right.TryGet(); ok {
			lv.nodes[k].HandleRight(m, em)
			lv.release(m)
			lv.depth.Add(-1)
			progress = true
		}
		if em.news {
			// One ring per handled message, after all its puts and
			// high-water-mark stores, never one per result.
			em.news = false
			lv.ring()
		}
		if progress {
			continue
		}
		if lv.stop.Load() {
			return
		}
		// Idle: block on the doorbell after re-checking emptiness.
		lv.idle[k].Store(true)
		if left.Len() > 0 || right.Len() > 0 || lv.stop.Load() {
			lv.idle[k].Store(false)
			continue
		}
		<-lv.notify[k]
		lv.idle[k].Store(false)
	}
}

// release retires one handled message against its recycling token, if
// any: the last handler to finish hands the backing slice back to the
// driver (see core.Free for why this must wait for every handler, not
// just the exit node's, and why the message travels by value).
func (lv *Live[L, R]) release(m core.Msg[L, R]) {
	if m.Free != nil && m.Free.Refs.Add(-1) == 0 {
		m.Free.Put(m)
	}
}

// liveEmitter implements core.Emitter (and core.SeqBufSource) for
// node k.
type liveEmitter[L, R any] struct {
	lv *Live[L, R]
	k  int
	// news records that the message being handled queued a result or
	// raised a high-water mark; the node loop rings the collector's
	// doorbell once the handler returns.
	news bool
}

// TakeSeqBuf implements core.SeqBufSource.
func (e *liveEmitter[L, R]) TakeSeqBuf() []uint64 {
	lv := e.lv
	lv.seqMu.Lock()
	if n := len(lv.seqBufs); n > 0 {
		b := lv.seqBufs[n-1]
		lv.seqBufs = lv.seqBufs[:n-1]
		lv.seqMu.Unlock()
		return b
	}
	lv.seqMu.Unlock()
	return make([]uint64, 0, 64)
}

// PutSeqBuf implements core.SeqBufSource.
func (e *liveEmitter[L, R]) PutSeqBuf(b []uint64) {
	lv := e.lv
	lv.seqMu.Lock()
	if len(lv.seqBufs) < seqPoolCap {
		lv.seqBufs = append(lv.seqBufs, b[:0])
	}
	lv.seqMu.Unlock()
}

// NewSeqFree implements core.SeqBufSource: a token armed for the one
// neighbour handler that will read the message. Its Put returns both
// the Seqs buffer and the token itself to the shared pools.
func (e *liveEmitter[L, R]) NewSeqFree() *core.Free[L, R] {
	lv := e.lv
	lv.seqMu.Lock()
	var f *core.Free[L, R]
	if n := len(lv.seqFrees); n > 0 {
		f = lv.seqFrees[n-1]
		lv.seqFrees = lv.seqFrees[:n-1]
		lv.seqMu.Unlock()
	} else {
		lv.seqMu.Unlock()
		f = &core.Free[L, R]{}
		f.Put = func(m core.Msg[L, R]) {
			lv.seqMu.Lock()
			if len(lv.seqBufs) < seqPoolCap {
				lv.seqBufs = append(lv.seqBufs, m.Seqs[:0])
			}
			if len(lv.seqFrees) < seqPoolCap {
				lv.seqFrees = append(lv.seqFrees, f)
			}
			lv.seqMu.Unlock()
		}
	}
	f.Refs.Store(1)
	return f
}

func (e *liveEmitter[L, R]) EmitLeft(m core.Msg[L, R]) {
	if e.k == 0 {
		return // pipeline exit
	}
	e.lv.put(e.k-1, 1, m)
}

func (e *liveEmitter[L, R]) EmitRight(m core.Msg[L, R]) {
	if e.k == len(e.lv.nodes)-1 {
		return // pipeline exit
	}
	e.lv.put(e.k+1, 0, m)
}

func (e *liveEmitter[L, R]) EmitResult(p stream.Pair[L, R]) {
	r := core.Result[L, R]{Pair: p, At: e.lv.clk.Now()}
	q := e.lv.resultQ[e.k]
	for {
		ok, err := q.TryPut(r)
		if ok {
			e.news = true
			return
		}
		if err != nil {
			return
		}
		// The collector must catch up. It may be parked on the doorbell
		// with this message's earlier results not yet announced, so
		// ring before yielding or both sides wait forever.
		e.lv.ring()
		runtime.Gosched()
	}
}

func (e *liveEmitter[L, R]) StreamEnd(side stream.Side, ts int64) {
	if e.lv.raiseHWM(side, ts) {
		e.news = true
	}
}

// AdvanceHWM raises one side's high-water mark to ts (never lowers
// it). Besides the pipeline-end StreamEnd path, drivers call this to
// promise stream progress on an idle, quiescent pipeline: when the
// driver knows every future tuple of both sides carries a timestamp
// >= ts and the pipeline holds no in-flight arrivals, no future result
// can have a timestamp below ts (a result's timestamp is the later of
// its two inputs), so the promise is sound even though no tuple
// carried it through the pipeline. A rise rings the collector's
// doorbell, so the promise is punctuated without waiting for a result.
func (lv *Live[L, R]) AdvanceHWM(side stream.Side, ts int64) {
	if lv.raiseHWM(side, ts) {
		lv.ring()
	}
}

// raiseHWM lifts one side's high-water mark to ts and reports whether
// it rose.
func (lv *Live[L, R]) raiseHWM(side stream.Side, ts int64) bool {
	hwm := &lv.hwmR
	if side == stream.S {
		hwm = &lv.hwmS
	}
	for {
		cur := hwm.Load()
		if ts <= cur {
			return false
		}
		if hwm.CompareAndSwap(cur, ts) {
			return true
		}
	}
}

func (e *liveEmitter[L, R]) Cost(int) {} // live time is real time

// QueueDepth returns the total number of messages currently queued on
// all links.
func (lv *Live[L, R]) QueueDepth() int { return int(lv.depth.Load()) }

// Quiesce blocks until the pipeline has no in-flight messages and all
// nodes are idle (two consecutive observations), then returns. Call
// after the driver has injected everything and before reading final
// state.
func (lv *Live[L, R]) Quiesce() {
	stable := 0
	for stable < 2 {
		if lv.quiet() {
			stable++
		} else {
			stable = 0
		}
		runtime.Gosched()
	}
}

func (lv *Live[L, R]) quiet() bool {
	for k := range lv.nodes {
		if !lv.idle[k].Load() {
			return false
		}
	}
	for k := range lv.links {
		if lv.links[k][0].Len() > 0 || lv.links[k][1].Len() > 0 {
			return false
		}
	}
	return true
}

// Stop terminates the node goroutines (after draining pending link
// messages) and closes the result queues. It does not wait for a
// quiescent protocol state; call Quiesce first when exact results
// matter.
func (lv *Live[L, R]) Stop() {
	lv.stop.Store(true)
	for k := range lv.notify {
		select {
		case lv.notify[k] <- struct{}{}:
		default:
		}
	}
	lv.wg.Wait()
}

// Stats aggregates all node counters. The counters are atomics, so the
// aggregation is race-safe mid-run; it is exact once the pipeline is
// quiescent (after Stop or Quiesce).
func (lv *Live[L, R]) Stats() core.Stats {
	var agg core.Stats
	for _, n := range lv.nodes {
		agg.Add(n.Stats())
	}
	return agg
}

// Nodes returns the node logic values (for white-box tests; access only
// when quiescent).
func (lv *Live[L, R]) Nodes() []core.NodeLogic[L, R] { return lv.nodes }
