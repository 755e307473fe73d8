package obs

import (
	"cmp"
	"sync"
)

// retention is the bounded store behind TraceBuffer and SolveBuffer: a
// ring of the cap most recent entries plus the cap worst by key, so a
// long-running server holds a fixed amount of debug data no matter how
// much traffic it serves. Safe for concurrent use once cap and key are
// set.
type retention[T any, K cmp.Ordered] struct {
	mu     sync.Mutex
	cap    int
	key    func(*T) K
	recent []T // ring; next is the oldest once full
	next   int
	worst  []T // sorted by key descending, len <= cap
	added  int64
}

func (r *retention[T, K]) add(e T) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.added++
	if len(r.recent) < r.cap {
		r.recent = append(r.recent, e)
	} else {
		r.recent[r.next] = e
		r.next = (r.next + 1) % r.cap
	}
	if len(r.worst) < r.cap {
		r.worst = append(r.worst, e)
	} else if r.key(&e) > r.key(&r.worst[len(r.worst)-1]) {
		r.worst[len(r.worst)-1] = e
	} else {
		return
	}
	// Restore descending order: bubble the inserted tail entry up.
	for i := len(r.worst) - 1; i > 0 && r.key(&r.worst[i]) > r.key(&r.worst[i-1]); i-- {
		r.worst[i], r.worst[i-1] = r.worst[i-1], r.worst[i]
	}
}

// snapshot returns copies of the retained entries: recent newest-first,
// worst in descending key order, and the total number ever added.
func (r *retention[T, K]) snapshot() (recent, worst []T, added int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	recent = make([]T, 0, len(r.recent))
	// The ring's next slot holds the oldest entry once full (and stays 0
	// while filling), so the newest entry sits just before it; walk
	// backwards from there.
	for i := 0; i < len(r.recent); i++ {
		recent = append(recent, r.recent[(r.next-1-i+2*len(r.recent))%len(r.recent)])
	}
	worst = append([]T(nil), r.worst...)
	return recent, worst, r.added
}

// scan calls visit on every retained entry, the recent ring in storage
// order and then the worst list, until visit returns false.
func (r *retention[T, K]) scan(visit func(*T) bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, list := range [][]T{r.recent, r.worst} {
		for i := range list {
			if !visit(&list[i]) {
				return
			}
		}
	}
}

// find returns the first retained entry match accepts, preferring the
// recent ring.
func (r *retention[T, K]) find(match func(*T) bool) (hit T, ok bool) {
	r.scan(func(e *T) bool {
		if match(e) {
			hit, ok = *e, true
		}
		return !ok
	})
	return hit, ok
}
