// Package a declares a frozen type and exercises frozenmut inside the
// declaring package: construction is allowed, mutation is not.
package a

import "sync"

// Frozen is an immutable container once built.
//
//pdnlint:frozen
type Frozen struct {
	Vals []int
	n    int
}

// New is the builder: writes through a freshly constructed value are
// construction, not mutation.
func New(vals []int) *Frozen {
	f := &Frozen{}
	f.Vals = append([]int(nil), vals...)
	f.n = len(vals)
	return f
}

// Len reads are always fine.
func (f *Frozen) Len() int { return f.n }

// View returns an internal slice; callers must treat it as read-only.
func (f *Frozen) View() []int { return f.Vals }

// mutate writes a field of a value it did not construct.
func mutate(f *Frozen) {
	f.n = 3 // want `write to field n of frozen type Frozen; values are immutable after construction`
}

// mutateElem writes an element through a frozen field.
func mutateElem(f *Frozen) {
	f.Vals[0] = 1 // want `element write through field Vals of frozen type Frozen`
}

// rebuild constructs via new(): still fresh, still clean.
func rebuild() *Frozen {
	f := new(Frozen)
	f.n = 0
	return f
}

// inner is a plain type reached through a frozen value's pointer field.
type inner struct{ v int }

// Lazy is frozen but fills some fields on first use, under its own once.
//
//pdnlint:frozen
type Lazy struct {
	p     *int
	q     *inner
	once  sync.Once
	cache []int
}

// mutatePtr writes through pointer fields of a value it did not
// construct: the pointees are part of the frozen value.
func mutatePtr(l *Lazy) {
	*l.p = 3    // want `write through pointer field p of frozen type Lazy; values are immutable after construction`
	l.q.v = 4   // want `write through pointer field q of frozen type Lazy; values are immutable after construction`
	(*l.p)++    // want `write through pointer field p of frozen type Lazy`
	*(l.p) += 1 // want `write through pointer field p of frozen type Lazy`
}

// Cache fills the lazy field inside the value's own once: sanctioned.
func (l *Lazy) Cache() []int {
	l.once.Do(func() {
		l.cache = []int{1, 2, 3}
		*l.p = len(l.cache)
	})
	return l.cache
}

// crossOnce writes one value's field under another value's once: the
// Once publishes nothing about l, so this is still a mutation.
func crossOnce(l, other *Lazy) {
	other.once.Do(func() {
		l.cache = nil // want `write to field cache of frozen type Lazy; values are immutable after construction`
	})
}

// outsideOnce writes the lazy field without the once.
func outsideOnce(l *Lazy) {
	l.once.Do(func() {})
	l.cache = nil // want `write to field cache of frozen type Lazy; values are immutable after construction`
}
