// Package par provides the small concurrency primitives shared by the
// analysis stack: a bounded worker-pool sweep with first-error
// cancellation (design-space fan-out), deterministic block partitioning
// (kernel sharding), and Group, the one memo primitive: a singleflight
// call deduplicator with an optional LRU bound.
package par

import (
	"container/list"
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"pdn3d/internal/obs"
)

// Workers resolves a worker-count knob: values <= 0 select GOMAXPROCS.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Sweep runs fn(i) for every i in [0, n) on at most workers goroutines
// (<= 0 selects GOMAXPROCS) and returns the error of the lowest-indexed
// failing call. After the first failure no new indices are started, so a
// sweep over independent design points cancels promptly; calls already in
// flight run to completion.
func Sweep(workers, n int, fn func(i int) error) error {
	return SweepWith(workers, n, nil, fn)
}

// SweepWith is Sweep with per-task instrumentation: task start/completion
// counts, queue wait, busy time, and worker utilization are recorded on m
// (nil disables instrumentation). Task counts are deterministic for
// error-free sweeps; after a failure the number of started tasks depends
// on cancellation timing.
func SweepWith(workers, n int, m *obs.SweepMetrics, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	run := m.Begin(workers)
	defer run.End()
	call := func(i int) error {
		defer run.TaskStart()()
		return fn(i)
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := call(i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next    atomic.Int64
		stopped atomic.Bool
		mu      sync.Mutex
		errIdx  = n
		firstBy error
		wg      sync.WaitGroup
	)
	worker := func() {
		defer wg.Done()
		for !stopped.Load() {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if err := call(i); err != nil {
				mu.Lock()
				if i < errIdx {
					errIdx, firstBy = i, err
				}
				mu.Unlock()
				stopped.Store(true)
				return
			}
		}
	}
	wg.Add(workers)
	for w := 1; w < workers; w++ {
		go worker()
	}
	worker() // the caller participates, bounding the pool at `workers`
	wg.Wait()
	return firstBy
}

// SweepCtx is SweepWith for context-aware tasks under a request trace:
// each task runs with a child span of ctx's active span (named name,
// annotated with its item index) installed in its context, so fan-out
// work nests under the request that spawned it. With no active span in
// ctx the per-task spans are nil and the sweep behaves exactly like
// SweepWith — tracing is pay-as-you-go.
func SweepCtx(ctx context.Context, workers, n int, m *obs.SweepMetrics, name string, fn func(ctx context.Context, i int) error) error {
	parent := obs.SpanFrom(ctx)
	return SweepWith(workers, n, m, func(i int) error {
		sp := parent.Child(name, obs.A("item", i))
		defer sp.End()
		return fn(obs.WithSpan(ctx, sp), i)
	})
}

// Blocks partitions [0, n) into fixed-size blocks and runs fn(b, lo, hi)
// for block b over every range, on at most workers goroutines. The
// partitioning depends only on n and block — never on workers — so
// block-indexed reductions (partial sums gathered per block and combined
// in block order) are bit-for-bit deterministic for any worker count.
func Blocks(workers, n, block int, fn func(b, lo, hi int)) {
	if n <= 0 {
		return
	}
	if block <= 0 {
		block = n
	}
	nb := (n + block - 1) / block
	run := func(b int) {
		lo := b * block
		hi := lo + block
		if hi > n {
			hi = n
		}
		fn(b, lo, hi)
	}
	workers = Workers(workers)
	if workers > nb {
		workers = nb
	}
	if workers == 1 {
		for b := 0; b < nb; b++ {
			run(b)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	worker := func() {
		defer wg.Done()
		for {
			b := int(next.Add(1)) - 1
			if b >= nb {
				return
			}
			run(b)
		}
	}
	wg.Add(workers)
	for w := 1; w < workers; w++ {
		go worker()
	}
	worker()
	wg.Wait()
}

// Group is the memo primitive of the analysis stack: it deduplicates
// concurrent calls by key, singleflight-style, and caches completed
// values. The first caller for a key runs fn; every caller arriving while
// that call is in flight waits for and shares its outcome; successful
// values are kept for later callers. A failed call is not kept, so the
// next caller retries. The zero value is ready to use and unbounded.
//
// Bound, when > 0, caps the completed entries: completing one more
// evicts the least recently used. In-flight calls never count toward the
// bound and are never evicted.
//
// Hits/Misses, when set, count calls served without executing fn
// (completed value or shared in-flight call) versus fn executions. For
// error-free workloads on an unbounded Group both are functions of the
// call multiset alone, independent of worker count; failed calls retry,
// so error paths may add misses.
type Group[V any] struct {
	Bound        int
	Hits, Misses *obs.Counter

	mu       sync.Mutex
	done     map[string]*list.Element // values are *entry[V]
	lru      list.List                // front = most recently used
	inflight map[string]*flight[V]
}

type entry[V any] struct {
	key string
	val V
}

type flight[V any] struct {
	wg  sync.WaitGroup
	val V
	err error
}

// Outcome reports how a Group.Do call was served.
type Outcome uint8

const (
	// Ran: this caller executed fn.
	Ran Outcome = iota
	// Hit: a completed value was returned without running anything.
	Hit
	// Shared: this caller waited on another caller's in-flight fn and
	// got its outcome.
	Shared
)

// Do returns the completed value for key, or runs fn to produce it, and
// reports how the call was served. Among concurrent callers for one key,
// exactly one executes fn. A waiter whose shared call failed with
// context.Canceled or context.DeadlineExceeded does not inherit that
// error: the cancellation belonged to the caller that ran fn, so the
// waiter retries (and runs fn itself if no other call is in flight).
func (g *Group[V]) Do(key string, fn func() (V, error)) (V, Outcome, error) {
	for {
		g.mu.Lock()
		if e, ok := g.done[key]; ok {
			g.lru.MoveToFront(e)
			g.mu.Unlock()
			g.Hits.Add(1)
			return e.Value.(*entry[V]).val, Hit, nil
		}
		if f, ok := g.inflight[key]; ok {
			g.mu.Unlock()
			g.Hits.Add(1)
			f.wg.Wait()
			if errors.Is(f.err, context.Canceled) || errors.Is(f.err, context.DeadlineExceeded) {
				continue
			}
			return f.val, Shared, f.err
		}
		if g.inflight == nil {
			g.inflight = map[string]*flight[V]{}
		}
		f := &flight[V]{}
		f.wg.Add(1)
		g.inflight[key] = f
		g.mu.Unlock()
		g.Misses.Add(1)

		f.val, f.err = fn()

		g.mu.Lock()
		delete(g.inflight, key)
		if f.err == nil {
			g.store(key, f.val)
		}
		g.mu.Unlock()
		f.wg.Done()
		return f.val, Ran, f.err
	}
}

// store records a completed value, evicting beyond the bound. g.mu must
// be held.
func (g *Group[V]) store(key string, v V) {
	if g.done == nil {
		g.done = map[string]*list.Element{}
	}
	g.done[key] = g.lru.PushFront(&entry[V]{key: key, val: v})
	if g.Bound > 0 && g.lru.Len() > g.Bound {
		oldest := g.lru.Back()
		g.lru.Remove(oldest)
		delete(g.done, oldest.Value.(*entry[V]).key)
	}
}

// Reset drops every completed value, so each key's next Do runs fn again.
// In-flight calls are unaffected (they complete and keep their own
// results). Callers that invalidate the inputs a Group's values were
// derived from — e.g. restamping the matrix a solver cache factorized —
// use Reset to flush the stale values in one step.
func (g *Group[V]) Reset() {
	g.mu.Lock()
	g.done = nil
	g.lru.Init()
	g.mu.Unlock()
}

// Len reports the number of completed (kept) keys.
func (g *Group[V]) Len() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.lru.Len()
}
