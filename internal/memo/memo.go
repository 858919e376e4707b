// Package memo provides the small, bounded memoization primitives of the
// per-session cache layer (multi.Caches) and the service's session cache.
//
// The containers here are deliberately not concurrency-safe: the cache
// owners already serialise access under their own mutex, and keeping the
// locking in one place avoids double-locking on every hit.
package memo

// Bounded is a map from K to V holding at most a fixed number of entries.
// When full, Put evicts an arbitrary entry — the memoized values are pure
// functions of their key, so an eviction only ever costs a recompute. The
// zero value is not usable; call NewBounded.
type Bounded[K comparable, V any] struct {
	max int
	m   map[K]V
}

// NewBounded returns an empty bounded memo holding at most max entries
// (max < 1 is treated as 1).
func NewBounded[K comparable, V any](max int) *Bounded[K, V] {
	if max < 1 {
		max = 1
	}
	return &Bounded[K, V]{max: max}
}

// Get returns the memoized value for k.
func (b *Bounded[K, V]) Get(k K) (V, bool) {
	v, ok := b.m[k]
	return v, ok
}

// Put stores v under k, evicting an arbitrary entry first when the memo is
// full (an existing entry under k is simply overwritten).
func (b *Bounded[K, V]) Put(k K, v V) {
	if b.m == nil {
		b.m = make(map[K]V, b.max)
	}
	if _, exists := b.m[k]; !exists {
		for len(b.m) >= b.max {
			for victim := range b.m {
				delete(b.m, victim)
				break
			}
		}
	}
	b.m[k] = v
}

// Len returns the number of memoized entries.
func (b *Bounded[K, V]) Len() int { return len(b.m) }

// Snapshot copies every entry into dst (allocated when nil and there is
// anything to copy) and returns dst. The values are shared, not cloned —
// callers snapshotting mutable values must treat them as read-only. A nil
// receiver contributes nothing. Cache owners use this to hand a frozen
// read-only view to copy-on-write forks.
func (b *Bounded[K, V]) Snapshot(dst map[K]V) map[K]V {
	if b == nil || len(b.m) == 0 {
		return dst
	}
	if dst == nil {
		dst = make(map[K]V, len(b.m))
	}
	for k, v := range b.m {
		dst[k] = v
	}
	return dst
}

// Reset drops every entry, keeping the bound.
func (b *Bounded[K, V]) Reset() { clear(b.m) }
