package handshakejoin

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestDeliveryIndependentOfCollectPeriod checks that result delivery
// and Close are driven by the pipeline, not by CollectPeriod: with the
// period set to an hour and no heartbeats, a flushed batch's results
// still reach OnOutput, and Close still returns, well within a second.
func TestDeliveryIndependentOfCollectPeriod(t *testing.T) {
	for _, shards := range []int{1, 2} {
		var results atomic.Int64
		all := make(chan struct{})
		eng, err := New(Config[trade, quote]{
			Workers:       2,
			Shards:        shards,
			Predicate:     symPred,
			WindowR:       Window{Count: 1000},
			WindowS:       Window{Count: 1000},
			Batch:         4,
			KeyR:          func(t trade) uint64 { return uint64(t.Sym) },
			KeyS:          func(q quote) uint64 { return uint64(q.Sym) },
			CollectPeriod: time.Hour,
			Adapt:         AdaptConfig{DisableHeartbeat: true},
			OnOutput: func(it Item[trade, quote]) {
				if !it.Punct && results.Add(1) == 16 {
					close(all)
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		// One full batch per side, all on one key: the S batch joins
		// every stored R tuple, 16 results.
		for i := int64(0); i < 4; i++ {
			if err := eng.PushR(trade{Sym: 1}, i); err != nil {
				t.Fatal(err)
			}
		}
		for i := int64(0); i < 4; i++ {
			if err := eng.PushS(quote{Sym: 1}, 4+i); err != nil {
				t.Fatal(err)
			}
		}
		select {
		case <-all:
		case <-time.After(time.Second):
			t.Fatalf("shards=%d: %d of 16 results delivered after 1s", shards, results.Load())
		}
		closed := make(chan struct{})
		go func() {
			eng.Close()
			close(closed)
		}()
		select {
		case <-closed:
		case <-time.After(time.Second):
			t.Fatalf("shards=%d: Close still blocked after 1s", shards)
		}
		if n := results.Load(); n != 16 {
			t.Fatalf("shards=%d: %d results, want 16", shards, n)
		}
	}
}
