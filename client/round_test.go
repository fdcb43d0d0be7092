package client

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestRoundWakesAtNeed pins what a collector is woken for: not for a delivery
// short of what it asked, at once for a failure, and by the timeout channel
// when that fires first.
func TestRoundWakesAtNeed(t *testing.T) {
	rd := NewRound()
	defer rd.Release()
	for i := 0; i < 5; i++ {
		rd.Expect()
	}
	woke := make(chan []ShareResult)
	go func() {
		fresh, _ := rd.Wait(3, nil)
		woke <- append([]ShareResult(nil), fresh...)
	}()
	rd.Deliver(ShareResult{Tag: 0})
	rd.Deliver(ShareResult{Tag: 1})
	select {
	case fresh := <-woke:
		t.Fatalf("collector woken with %d of the 3 results it waits for", len(fresh))
	case <-time.After(20 * time.Millisecond):
	}
	rd.Deliver(ShareResult{Tag: 2})
	if fresh := <-woke; len(fresh) != 3 {
		t.Fatalf("collector woken with %d results, want 3", len(fresh))
	}

	boom := errors.New("boom")
	go func() {
		fresh, _ := rd.Wait(5, nil)
		woke <- append([]ShareResult(nil), fresh...)
	}()
	rd.Deliver(ShareResult{Tag: 3, Err: boom})
	if fresh := <-woke; len(fresh) != 1 || fresh[0].Err != boom {
		t.Fatalf("a failed leg woke the collector with %+v, want the failure alone", fresh)
	}

	fired := make(chan struct{})
	close(fired)
	if fresh, timedOut := rd.Wait(5, fired); !timedOut || len(fresh) != 0 {
		t.Fatalf("Wait past a fired timeout = %d results, timed out %v; want none, true", len(fresh), timedOut)
	}
	rd.Deliver(ShareResult{Tag: 4})
	if fresh, timedOut := rd.Wait(5, fired); timedOut || len(fresh) != 1 || fresh[0].Tag != 4 {
		t.Fatalf("Wait with everything delivered = %+v, timed out %v", fresh, timedOut)
	}
}

// TestRoundStragglersNeverCrossRounds runs many operations over the Round
// pool at once, each returning at its quorum and leaving stragglers that
// deliver later — while their collector, and others, are already running new
// rounds on recycled Rounds. A straggler holds its Round until it has
// delivered, so no collector may ever see a result of another round's
// generation (run with -race -count=10: the pool hands a Round from one
// goroutine to the next with nothing but its own locking in between).
func TestRoundStragglersNeverCrossRounds(t *testing.T) {
	const collectors, rounds, legsN, quorum = 8, 300, 5, 4
	var stragglers sync.WaitGroup
	var wg sync.WaitGroup
	for c := 0; c < collectors; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				gen := c*rounds + i
				rd := NewRound()
				for l := 0; l < legsN; l++ {
					rd.Expect()
					stragglers.Add(1)
					go func(l int) {
						defer stragglers.Done()
						if l >= quorum {
							runtime.Gosched() // the collector has likely returned by now
						}
						rd.Deliver(ShareResult{Tag: gen, Value: uint64(l)})
					}(l)
				}
				for got := 0; got < quorum; {
					fresh, _ := rd.Wait(quorum, nil)
					for _, r := range fresh {
						if r.Tag != gen {
							t.Errorf("round %d collected a result of round %d", gen, r.Tag)
						}
					}
					got += len(fresh)
				}
				rd.Release()
			}
		}(c)
	}
	wg.Wait()
	stragglers.Wait()
}
