// Package lru is the serving tier's one cache mechanism: a mutex-guarded,
// weight-bounded LRU from string keys to immutable values, in which
// concurrent misses on one key share one computation (singleflight). The
// result, plan and candidate caches are each one Cache per served index
// generation, dropped with it; their Counters belong to the server and
// outlive every generation, so the exported totals never go backwards.
package lru

import (
	"context"
	"sync"
	"sync/atomic"
)

// Counters accumulates cache outcomes. A succession of caches may share one.
type Counters struct {
	// Hits counts Do calls that computed nothing: the value came from an
	// entry or from a concurrent caller's computation.
	Hits atomic.Uint64
	// Misses counts computations run.
	Misses atomic.Uint64
	// Evictions counts entries dropped to stay within the budget.
	Evictions atomic.Uint64
	// Bypassed counts lookups the caller served without the cache (Bypass).
	Bypassed atomic.Uint64
}

// Stats is a snapshot of a cache: its counters and its residency.
type Stats struct {
	Hits, Misses, Evictions, Bypassed uint64
	// Entries is the number of resident entries, Weight their summed weight.
	Entries, Weight int
}

// Cache is a weight-bounded LRU with singleflight misses. Safe for
// concurrent use. A nil *Cache is a disabled cache: Do computes every call
// and nothing is counted.
type Cache[V any] struct {
	budget int
	weight func(V) int
	ctrs   *Counters

	mu      sync.Mutex
	entries map[string]*entry[V]
	flights map[string]*flight[V]
	root    entry[V] // sentinel of the recency ring: root.next is the most recently used
	total   int      // summed weight of the entries
}

type entry[V any] struct {
	key        string
	val        V
	weight     int
	prev, next *entry[V]
}

type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// New returns a cache whose entries weigh at most budget in total. weight
// weighs a value; nil weighs every entry 1, so that budget counts entries.
// The cache counts into ctrs, or into counters of its own when ctrs is nil.
// A budget <= 0 disables caching: New returns nil.
func New[V any](budget int, weight func(V) int, ctrs *Counters) *Cache[V] {
	if budget <= 0 {
		return nil
	}
	if ctrs == nil {
		ctrs = new(Counters)
	}
	c := &Cache[V]{
		budget:  budget,
		weight:  weight,
		ctrs:    ctrs,
		entries: make(map[string]*entry[V]),
		flights: make(map[string]*flight[V]),
	}
	c.root.prev, c.root.next = &c.root, &c.root
	return c
}

// Do returns the value stored under key, computing and storing it on a
// miss; hit reports that this call computed nothing. Concurrent calls for
// one key share the first one's computation. A failed computation is not
// stored and its error goes only to the caller that ran it: the callers
// waiting on it retry, and one of them computes next, so one caller's
// deadline or disconnect never answers for another. A waiter whose ctx ends
// first returns ctx.Err(). Every caller that gets a value shares it, so
// nobody may mutate one.
func (c *Cache[V]) Do(ctx context.Context, key string, compute func() (V, error)) (v V, hit bool, err error) {
	if c == nil {
		v, err = compute()
		return v, false, err
	}
	for {
		c.mu.Lock()
		if e, ok := c.entries[key]; ok {
			c.unlink(e)
			c.pushFront(e)
			c.mu.Unlock()
			c.ctrs.Hits.Add(1)
			return e.val, true, nil
		}
		if f, ok := c.flights[key]; ok {
			c.mu.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				return v, false, ctx.Err()
			}
			if f.err == nil {
				c.ctrs.Hits.Add(1)
				return f.val, true, nil
			}
			continue
		}
		f := &flight[V]{done: make(chan struct{})}
		c.flights[key] = f
		c.mu.Unlock()

		c.ctrs.Misses.Add(1)
		f.val, f.err = compute()
		c.mu.Lock()
		delete(c.flights, key)
		if f.err == nil {
			c.insert(key, f.val)
		}
		c.mu.Unlock()
		close(f.done)
		return f.val, false, f.err
	}
}

// Bypass counts n lookups the caller served without the cache.
func (c *Cache[V]) Bypass(n int) {
	if c != nil {
		c.ctrs.Bypassed.Add(uint64(n))
	}
}

// Stats snapshots the counters the cache counts into and its residency.
func (c *Cache[V]) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	st := Stats{Entries: len(c.entries), Weight: c.total}
	c.mu.Unlock()
	st.Hits, st.Misses = c.ctrs.Hits.Load(), c.ctrs.Misses.Load()
	st.Evictions, st.Bypassed = c.ctrs.Evictions.Load(), c.ctrs.Bypassed.Load()
	return st
}

// insert stores a new entry and evicts from the least recently used end
// until the cache is back within budget. An entry heavier than the whole
// budget is still admitted, alone: refusing the working set's largest member
// would recompute it forever. Caller holds c.mu.
func (c *Cache[V]) insert(key string, v V) {
	e := &entry[V]{key: key, val: v, weight: 1}
	if c.weight != nil {
		e.weight = c.weight(v)
	}
	c.entries[key] = e
	c.pushFront(e)
	c.total += e.weight
	for c.total > c.budget && c.root.prev != e {
		victim := c.root.prev
		c.unlink(victim)
		delete(c.entries, victim.key)
		c.total -= victim.weight
		c.ctrs.Evictions.Add(1)
	}
}

func (c *Cache[V]) pushFront(e *entry[V]) {
	e.prev, e.next = &c.root, c.root.next
	e.prev.next, e.next.prev = e, e
}

func (c *Cache[V]) unlink(e *entry[V]) {
	e.prev.next, e.next.prev = e.next, e.prev
}
