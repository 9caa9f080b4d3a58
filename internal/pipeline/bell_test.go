package pipeline

import (
	"testing"
	"time"

	"handshakejoin/internal/clock"
	"handshakejoin/internal/collect"
	"handshakejoin/internal/core"
	"handshakejoin/internal/stream"
	"handshakejoin/internal/workload"
)

// TestLiveBellOverflowingMessageCompletes drives one message that emits
// far more results than its result queue holds into a pipeline whose
// collector is parked on the doorbell. The node must ring before it
// yields on the full queue; if it only rang after the handler returned,
// node and collector would wait on each other forever.
func TestLiveBellOverflowingMessageCompletes(t *testing.T) {
	const side = 12 // one S batch against 12 stored R tuples: 144 results
	matchAll := func(workload.RTuple, workload.STuple) bool { return true }
	lv := NewLive(1, llhjBuilder(1, matchAll), clock.NewWall(), LiveConfig{ResultCap: 4})
	c := collect.New(lv.ResultQueues(), func() (int64, int64) { return lv.HWMR(), lv.HWMS() },
		func(collect.Item[workload.RTuple, workload.STuple]) {}, collect.Config{Punctuate: true})
	ran := make(chan struct{})
	go func() {
		c.Run(lv.Bell())
		close(ran)
	}()

	rs := make([]stream.Tuple[workload.RTuple], side)
	ss := make([]stream.Tuple[workload.STuple], side)
	for i := range rs {
		rs[i] = stream.Tuple[workload.RTuple]{Seq: uint64(i), TS: int64(i)}
		ss[i] = stream.Tuple[workload.STuple]{Seq: uint64(i), TS: int64(side + i)}
	}
	done := make(chan struct{})
	go func() {
		lv.Inject(LeftEnd, core.Msg[workload.RTuple, workload.STuple]{Kind: core.KindArrival, Side: stream.R, R: rs})
		lv.Quiesce()
		// Let the collector drain and park on the doorbell again.
		time.Sleep(10 * time.Millisecond)
		lv.Inject(RightEnd, core.Msg[workload.RTuple, workload.STuple]{Kind: core.KindArrival, Side: stream.S, S: ss})
		lv.Quiesce()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("message emitting %d results into a 4-slot queue never completed (collected %d)",
			side*side, c.Collected())
	}
	lv.Stop()
	select {
	case <-ran:
	case <-time.After(10 * time.Second):
		t.Fatal("collector did not see the closed queues")
	}
	if got := c.Collected(); got != side*side {
		t.Fatalf("collected %d results, want %d", got, side*side)
	}
}
