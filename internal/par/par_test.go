package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"pdn3d/internal/obs"
)

func TestSweepVisitsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		n := 100
		var hits = make([]atomic.Int64, n)
		if err := Sweep(workers, n, func(i int) error {
			hits[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, got)
			}
		}
	}
}

func TestSweepReturnsLowestIndexedError(t *testing.T) {
	errA := errors.New("a")
	errB := errors.New("b")
	err := Sweep(4, 50, func(i int) error {
		switch i {
		case 7:
			return errA
		case 30:
			return errB
		}
		return nil
	})
	if !errors.Is(err, errA) {
		t.Fatalf("err = %v, want the lowest-indexed failure", err)
	}
}

func TestSweepCancelsAfterError(t *testing.T) {
	var started atomic.Int64
	boom := errors.New("boom")
	err := Sweep(2, 10000, func(i int) error {
		started.Add(1)
		if i == 0 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if n := started.Load(); n == 10000 {
		t.Error("sweep ran every index despite an early error")
	}
}

func TestSweepZeroAndNegativeN(t *testing.T) {
	if err := Sweep(4, 0, func(int) error { return errors.New("never") }); err != nil {
		t.Fatal(err)
	}
	if err := Sweep(4, -3, func(int) error { return errors.New("never") }); err != nil {
		t.Fatal(err)
	}
}

func TestBlocksCoverExactly(t *testing.T) {
	for _, workers := range []int{1, 4} {
		for _, n := range []int{1, 7, 64, 100} {
			covered := make([]atomic.Int64, n)
			Blocks(workers, n, 16, func(b, lo, hi int) {
				if lo != b*16 {
					t.Errorf("block %d starts at %d", b, lo)
				}
				for i := lo; i < hi; i++ {
					covered[i].Add(1)
				}
			})
			for i := range covered {
				if covered[i].Load() != 1 {
					t.Fatalf("workers=%d n=%d: index %d covered %d times", workers, n, i, covered[i].Load())
				}
			}
		}
	}
}

// Block partitioning must not depend on the worker count: a block-indexed
// reduction combined in block order is then deterministic.
func TestBlocksDeterministicPartition(t *testing.T) {
	n, block := 1000, 64
	shape := func(workers int) string {
		var mu sync.Mutex
		spans := map[int]string{}
		Blocks(workers, n, block, func(b, lo, hi int) {
			mu.Lock()
			spans[b] = fmt.Sprintf("%d:%d", lo, hi)
			mu.Unlock()
		})
		out := ""
		for b := 0; b < (n+block-1)/block; b++ {
			out += spans[b] + ","
		}
		return out
	}
	if shape(1) != shape(8) {
		t.Error("partitioning depends on worker count")
	}
}

func TestGroupExactlyOncePerKey(t *testing.T) {
	var g Group[int]
	var calls [8]atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < 64; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			k := r % len(calls)
			v, _, err := g.Do(fmt.Sprintf("k%d", k), func() (int, error) {
				calls[k].Add(1)
				return 100 + k, nil
			})
			if err != nil || v != 100+k {
				t.Errorf("Do(k%d) = %d, %v", k, v, err)
			}
		}(r)
	}
	wg.Wait()
	for k := range calls {
		if n := calls[k].Load(); n != 1 {
			t.Errorf("key k%d built %d times, want exactly once", k, n)
		}
	}
	if g.Len() != len(calls) {
		t.Errorf("Len = %d, want %d", g.Len(), len(calls))
	}
}

func TestGroupDoesNotCacheErrors(t *testing.T) {
	var g Group[int]
	n := 0
	if _, how, err := g.Do("k", func() (int, error) { n++; return 0, errors.New("x") }); err == nil || how != Ran {
		t.Fatalf("want error from a Ran call, got %v, %v", how, err)
	}
	v, _, err := g.Do("k", func() (int, error) { n++; return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("retry: %d, %v", v, err)
	}
	if n != 2 {
		t.Fatalf("fn ran %d times, want 2 (error not cached)", n)
	}
	if v, how, _ := g.Do("k", func() (int, error) { n++; return 0, nil }); how != Hit || v != 7 {
		t.Fatalf("after success Do = %d, %v; want the kept 7 as a Hit", v, how)
	}
}

func TestGroupBoundEvictsLeastRecentlyUsed(t *testing.T) {
	g := Group[int]{Bound: 2}
	runs := map[string]int{}
	do := func(k string) Outcome {
		_, how, err := g.Do(k, func() (int, error) { runs[k]++; return runs[k], nil })
		if err != nil {
			t.Fatal(err)
		}
		return how
	}
	do("a")
	do("b")
	if how := do("a"); how != Hit { // a is now the most recently used
		t.Fatalf("a within the bound: outcome %v, want Hit", how)
	}
	do("c") // evicts b, the least recently used
	if g.Len() != 2 {
		t.Fatalf("Len = %d, want the bound 2", g.Len())
	}
	if how := do("a"); how != Hit {
		t.Errorf("a was recently used but evicted (outcome %v)", how)
	}
	if how := do("b"); how != Ran || runs["b"] != 2 {
		t.Errorf("b: outcome %v after %d runs, want Ran (evicted, fn re-run)", how, runs["b"])
	}
	g.Reset()
	if g.Len() != 0 {
		t.Fatalf("Len after Reset = %d", g.Len())
	}
	if how := do("a"); how != Ran {
		t.Errorf("a after Reset: outcome %v, want Ran", how)
	}
}

// sharedFailure runs a leader whose fn fails with leaderErr while a second
// caller waits on the same key, and returns the leader's error and the
// waiter's outcome. The waiter is counted by the Group's Hits counter the
// moment it commits to waiting, so the leader fails only after that.
func sharedFailure(t *testing.T, leaderErr error) (leader error, v int, how Outcome, waiter error) {
	t.Helper()
	g := Group[int]{Hits: obs.NewRegistry().Counter("waits")}
	entered := make(chan struct{})
	release := make(chan struct{})
	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := g.Do("k", func() (int, error) {
			close(entered)
			<-release
			return 0, leaderErr
		})
		leaderDone <- err
	}()
	<-entered
	waiterDone := make(chan struct{})
	go func() {
		defer close(waiterDone)
		v, how, waiter = g.Do("k", func() (int, error) { return 42, nil })
	}()
	for g.Hits.Value() == 0 {
		runtime.Gosched()
	}
	close(release)
	leader = <-leaderDone
	<-waiterDone
	return leader, v, how, waiter
}

// TestGroupWaiterRetriesAfterLeaderCancel: a waiter sharing an in-flight
// call must not inherit the leader's cancellation; it retries and runs fn
// itself. Any other failure is shared as before.
func TestGroupWaiterRetriesAfterLeaderCancel(t *testing.T) {
	for _, cause := range []error{context.Canceled, context.DeadlineExceeded} {
		leader, v, how, err := sharedFailure(t, fmt.Errorf("solve: %w", cause))
		if !errors.Is(leader, cause) {
			t.Fatalf("%v: leader error = %v, want its own cancellation", cause, leader)
		}
		if err != nil {
			t.Fatalf("%v: waiter inherited the leader's error: %v", cause, err)
		}
		if v != 42 || how != Ran {
			t.Errorf("%v: waiter got %d (%v), want 42 from its own run", cause, v, how)
		}
	}
	boom := errors.New("boom")
	if _, _, how, err := sharedFailure(t, boom); !errors.Is(err, boom) || how != Shared {
		t.Errorf("waiter got %v (%v), want the shared failure", err, how)
	}
}

// TestGroupBoundedSoak hammers one bounded Group with concurrent callers
// over more keys than the bound, while half the callers cancel their own
// runs. Run under -race. Callers that never cancel must never see an
// error, every value must match its key, and the Group must never hold
// more than its bound.
func TestGroupBoundedSoak(t *testing.T) {
	const bound, keys, callers, rounds = 4, 12, 16, 200
	g := Group[int]{Bound: bound}
	var wg sync.WaitGroup
	var over atomic.Int64
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cancels := c%2 == 0
			for r := 0; r < rounds; r++ {
				k := (c*7 + r*5) % keys
				v, _, err := g.Do(strconv.Itoa(k), func() (int, error) {
					if cancels && r%3 == 0 {
						return 0, context.Canceled
					}
					return k, nil
				})
				switch {
				case err != nil && !cancels:
					t.Errorf("caller %d (never cancels) got %v", c, err)
				case err != nil && !errors.Is(err, context.Canceled):
					t.Errorf("caller %d: unexpected error %v", c, err)
				case err == nil && v != k:
					t.Errorf("key %d returned %d", k, v)
				}
				if n := g.Len(); n > bound {
					over.Store(int64(n))
				}
			}
		}(c)
	}
	wg.Wait()
	if n := over.Load(); n != 0 {
		t.Errorf("Group held %d completed entries, bound %d", n, bound)
	}
	if n := g.Len(); n > bound {
		t.Errorf("final Len = %d, bound %d", n, bound)
	}
}
