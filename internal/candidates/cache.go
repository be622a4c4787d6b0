// Per-generation candidate cache: a bounded, sharded LRU over *pruned*
// per-path candidate sets. The expensive prefix of every query — the posting
// scan (ix.Scan) fused with context pruning — is a pure function of
// (immutable reader, query structure, path node sequence, α), so repeated
// query shapes can skip both stages entirely. Ownership follows the
// plan/result caches: a Cache belongs to exactly one served generation and
// is dropped (never invalidated in place) when the generation is retired.
// Readers that report in-memory mutations (live views with a dirty overlay)
// bypass the cache wholesale; see Find.
package candidates

import (
	"context"
	"encoding/binary"
	"hash/maphash"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/decompose"
	"repro/internal/query"
)

const cacheShards = 8

// DefaultCacheBudget bounds the total number of pruned candidates a Cache
// retains across all entries when no explicit budget is given (~tens of MB
// at the typical ~10 nodes/candidate).
const DefaultCacheBudget = 1 << 20

// CacheStats is a point-in-time snapshot of cache effectiveness counters.
// Hits/Misses/Bypassed/Evictions are cumulative for the Cache's lifetime;
// Entries/Candidates describe current residency.
type CacheStats struct {
	Hits       uint64
	Misses     uint64
	Bypassed   uint64
	Evictions  uint64
	Entries    int
	Candidates int
}

// Cache is a sharded, weight-bounded LRU from (query structure, path node
// sequence, α) to the pruned candidate set for that path. Safe for
// concurrent use. The weight of an entry is its candidate count, so the
// budget bounds retained memory rather than entry count. Concurrent misses
// on the same key are collapsed via per-key singleflight so a hot path's
// postings are decoded and pruned exactly once.
type Cache struct {
	seed     maphash.Seed
	perShard int
	shards   [cacheShards]cacheShard

	hits     atomic.Uint64
	misses   atomic.Uint64
	bypassed atomic.Uint64
}

type cacheShard struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry
	flights map[string]*candFlight
	head    *cacheEntry // most recently used
	tail    *cacheEntry // least recently used
	weight  int
	evicted uint64
}

type cacheEntry struct {
	key        string
	rows       Rows
	initial    int
	prev, next *cacheEntry
}

type candFlight struct {
	done    chan struct{}
	rows    Rows
	initial int
	err     error
}

// NewCache returns a cache retaining at most budget pruned candidates in
// total (summed over entries). budget <= 0 selects DefaultCacheBudget.
func NewCache(budget int) *Cache {
	if budget <= 0 {
		budget = DefaultCacheBudget
	}
	per := budget / cacheShards
	if per < 1 {
		per = 1
	}
	c := &Cache{seed: maphash.MakeSeed(), perShard: per}
	for i := range c.shards {
		c.shards[i].entries = make(map[string]*cacheEntry)
		c.shards[i].flights = make(map[string]*candFlight)
	}
	return c
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	st := CacheStats{
		Hits:     c.hits.Load(),
		Misses:   c.misses.Load(),
		Bypassed: c.bypassed.Load(),
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Entries += len(s.entries)
		st.Candidates += s.weight
		st.Evictions += s.evicted
		s.mu.Unlock()
	}
	return st
}

func (c *Cache) shardFor(key string) *cacheShard {
	var h maphash.Hash
	h.SetSeed(c.seed)
	h.WriteString(key)
	return &c.shards[h.Sum64()%cacheShards]
}

// do returns the cached pruned set for key, computing and storing it on a
// miss. Concurrent callers with the same key share one computation; a
// failed computation is not cached, and waiters retry (one of them becomes
// the next leader), so a transient error never poisons the key. The
// returned arenas are shared with the entry, and through it with every other
// request that hits it — callers must treat them as immutable.
func (c *Cache) do(ctx context.Context, key string, compute func() (Rows, int, error)) (rows Rows, initial int, hit bool, err error) {
	s := c.shardFor(key)
	for {
		s.mu.Lock()
		if e, ok := s.entries[key]; ok {
			s.touch(e)
			s.mu.Unlock()
			c.hits.Add(1)
			return e.rows, e.initial, true, nil
		}
		if f, ok := s.flights[key]; ok {
			s.mu.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				return Rows{}, 0, false, ctx.Err()
			}
			if f.err == nil {
				c.hits.Add(1)
				return f.rows, f.initial, true, nil
			}
			continue // leader failed; retry (maybe as leader)
		}
		f := &candFlight{done: make(chan struct{})}
		s.flights[key] = f
		s.mu.Unlock()

		c.misses.Add(1)
		f.rows, f.initial, f.err = compute()
		s.mu.Lock()
		delete(s.flights, key)
		if f.err == nil {
			s.insert(key, f.rows, f.initial, c.perShard)
		}
		s.mu.Unlock()
		close(f.done)
		return f.rows, f.initial, false, f.err
	}
}

// touch moves e to the MRU position. Caller holds s.mu.
func (s *cacheShard) touch(e *cacheEntry) {
	if s.head == e {
		return
	}
	s.unlink(e)
	s.push(e)
}

func (s *cacheShard) unlink(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	}
	if s.head == e {
		s.head = e.next
	}
	if s.tail == e {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (s *cacheShard) push(e *cacheEntry) {
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

// insert stores a new entry and evicts from the LRU end until the shard is
// back under budget. An entry heavier than the whole shard budget is still
// admitted alone (weight-capped caches must not refuse the working set's
// largest member — it would recompute forever). Caller holds s.mu.
func (s *cacheShard) insert(key string, rows Rows, initial, budget int) {
	if _, ok := s.entries[key]; ok {
		return // raced with another leader after a failed flight; keep first
	}
	e := &cacheEntry{key: key, rows: rows, initial: initial}
	s.entries[key] = e
	s.push(e)
	s.weight += entryWeight(rows)
	for s.weight > budget && s.tail != nil && s.tail != e {
		victim := s.tail
		s.unlink(victim)
		delete(s.entries, victim.key)
		s.weight -= entryWeight(victim.rows)
		s.evicted++
	}
}

// entryWeight counts an empty pruned set as 1 so α-filtered-to-nothing
// paths still occupy (and age out of) the LRU.
func entryWeight(rows Rows) int {
	return max(rows.Len(), 1)
}

// queryFingerprint serializes the query structure that pruning depends on:
// node labels (NodeChecker thresholds, path label sequences) and the full
// edge set (neighbor label counts, path cycles/neighbors/reverse all derive
// from adjacency), plus the α bits. Two queries with equal fingerprints
// prune identically against the same reader.
func queryFingerprint(q *query.Query, alpha float64) []byte {
	n := q.NumNodes()
	edges := q.Edges()
	buf := make([]byte, 0, 12+4*n+8*len(edges))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(alpha))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
	for i := 0; i < n; i++ {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(q.Label(query.NodeID(i))))
	}
	for _, e := range edges {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e[0]))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e[1]))
	}
	return buf
}

// pathKey appends the path's query-node sequence to the query fingerprint.
// The node sequence (not just its label projection) is required: pruning
// consults per-query-node context (cycles, reverse neighbor positions), so
// two label-identical paths through different query nodes may keep
// different candidates.
func pathKey(prefix []byte, p *decompose.Path) string {
	buf := make([]byte, 0, len(prefix)+4+4*len(p.Nodes))
	buf = append(buf, prefix...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p.Nodes)))
	for _, n := range p.Nodes {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
	}
	return string(buf)
}

// mutating is implemented by readers whose answers can drift from their
// backing index (live views carrying a dirty overlay). A non-zero count
// makes Find bypass the cache: overlay state is not part of the key, and
// the server's per-generation ownership only covers published immutable
// snapshots.
type mutating interface {
	Mutations() uint64
}
