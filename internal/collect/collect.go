// Package collect implements result-stream assembly (§5) and
// punctuation generation (§6.1) for live pipelines.
//
// Every pipeline worker writes matches to its own result queue
// (Q1..Qn, Figure 15); a collector goroutine vacuums all queues into a
// single output stream whenever the pipeline rings its doorbell. For
// low-latency handshake join the collector additionally reads the
// high-water marks maintained at the pipeline ends and emits
// punctuations ⌈tp⌉ with tp = min(tmax,R, tmax,S): a guarantee that no
// later result carries a smaller timestamp (§6.1.3). The
// read-HWM-then-vacuum-then-punctuate order is what makes the
// guarantee sound.
package collect

import (
	"sync"
	"sync/atomic"

	"handshakejoin/internal/core"
	"handshakejoin/internal/fifo"
)

// Item is one element of the assembled output stream: either a join
// result or a punctuation.
type Item[L, R any] struct {
	// Punct marks a punctuation carrying timestamp TS; otherwise the
	// item is Result.
	Punct bool
	// TS is the punctuation timestamp tp (valid when Punct).
	TS int64
	// Result is the join result (valid when !Punct).
	Result core.Result[L, R]
}

// Config tunes a Collector.
type Config struct {
	// Punctuate enables punctuation generation (LLHJ §6.1). Without
	// it the collector only merges the result queues, as the original
	// handshake join implementation does.
	Punctuate bool
}

// Collector vacuums per-node result queues into a single stream.
type Collector[L, R any] struct {
	queues []*fifo.Chan[core.Result[L, R]]
	hwm    func() (r, s int64)
	out    func(Item[L, R])
	cfg    Config

	// runMu serializes whole collection passes: the background Run loop
	// and any synchronous RunOnce caller (a checkpoint draining the
	// result queues at its cut) take it for the duration of a pass, so
	// a pass observes the queues and emits downstream atomically with
	// respect to other passes.
	runMu     sync.Mutex
	lastPunct int64 // guarded by runMu

	// Counters for concurrent readers, published once per pass.
	collected atomic.Uint64
	puncts    atomic.Uint64
}

// New returns a Collector draining queues into out. hwm supplies the
// pipeline high-water marks (tmax,R, tmax,S); it may be nil when
// punctuation is disabled. The out callback is invoked from the
// collector's goroutine (single-threaded).
func New[L, R any](queues []*fifo.Chan[core.Result[L, R]], hwm func() (r, s int64), out func(Item[L, R]), cfg Config) *Collector[L, R] {
	return &Collector[L, R]{queues: queues, hwm: hwm, out: out, cfg: cfg, lastPunct: -1}
}

// RunOnce performs one collection pass — read high-water marks, vacuum
// all result queues, then punctuate — and reports whether any queue is
// exhausted-and-closed. Exposed for deterministic tests and for
// checkpoints, which call it synchronously to drain every queued
// result through the normal output path before snapshotting the
// downstream sorter; passes are serialized against the background Run
// loop, so a synchronous pass never interleaves with a background one.
func (c *Collector[L, R]) RunOnce() (done bool) {
	c.runMu.Lock()
	defer c.runMu.Unlock()
	var tp int64
	if c.cfg.Punctuate && c.hwm != nil {
		r, s := c.hwm()
		tp = r
		if s < tp {
			tp = s
		}
	}
	closed := 0
	var n uint64
	for _, q := range c.queues {
		for {
			r, ok, qClosed := q.TryGet()
			if ok {
				n++
				c.out(Item[L, R]{Result: r})
				continue
			}
			if qClosed {
				closed++
			}
			break
		}
	}
	c.collected.Add(n)
	if c.cfg.Punctuate && c.hwm != nil && tp > c.lastPunct {
		c.lastPunct = tp
		c.puncts.Add(1)
		c.out(Item[L, R]{Punct: true, TS: tp})
	}
	return closed == len(c.queues)
}

// Run loops RunOnce until every queue is closed and drained, waiting
// on bell between passes. It is meant to run on its own goroutine. The
// producer must leave a token on bell after every result put, high-
// water-mark raise and queue close it wants seen (pipeline.Live.Bell);
// a pass starts after its token is taken, so no announcement is lost.
// A nil bell never rings: Run then returns only if its first pass
// finds every queue closed, and blocks forever otherwise.
func (c *Collector[L, R]) Run(bell <-chan struct{}) {
	for !c.RunOnce() {
		<-bell
	}
}

// Collected returns the number of results assembled so far.
func (c *Collector[L, R]) Collected() uint64 { return c.collected.Load() }

// Punctuations returns the number of punctuations emitted so far.
func (c *Collector[L, R]) Punctuations() uint64 { return c.puncts.Load() }
