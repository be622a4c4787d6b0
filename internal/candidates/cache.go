// Per-generation candidate cache: pruned per-path candidate sets. The
// expensive prefix of every query — the posting scan (ix.Scan) fused with
// context pruning — is a pure function of (immutable reader, query
// structure, path node sequence, α), so repeated query shapes can skip both
// stages entirely. A Cache belongs to exactly one served generation and is
// dropped with it, never invalidated in place. Readers that report
// in-memory mutations (live views carrying mutations) bypass the cache
// wholesale; see Find.
package candidates

import (
	"encoding/binary"
	"math"

	"repro/internal/decompose"
	"repro/internal/lru"
)

// DefaultCacheBudget bounds the total number of pruned candidates a Cache
// retains across all entries when no explicit budget is given. A candidate of
// a path of w ≤ L+1 nodes retains 4·w bytes (its entity ids), so the default
// holds 12 MiB at L = 2.
const DefaultCacheBudget = 1 << 20

// Cache maps (query fingerprint, α, path node sequence) to the pruned
// candidate set of that path. An entry weighs its candidate count, so the
// budget bounds retained memory rather than entry count. Safe for concurrent
// use; concurrent misses on one key decode and prune once.
type Cache = lru.Cache[pruned]

// CacheStats snapshots a Cache; Weight is the number of retained candidates.
type CacheStats = lru.Stats

// pruned is one cached path: its surviving rows and the number scanned.
type pruned struct {
	rows    Rows
	initial int
}

// NewCache returns a cache retaining at most budget pruned candidates in
// total (summed over entries). budget <= 0 selects DefaultCacheBudget.
func NewCache(budget int) *Cache { return NewSharedCache(max(budget, 0), nil) }

// NewSharedCache is NewCache counting into ctrs, which may outlive the
// cache, except that a negative budget disables caching (nil).
func NewSharedCache(budget int, ctrs *lru.Counters) *Cache {
	if budget == 0 {
		budget = DefaultCacheBudget
	}
	// An empty pruned set weighs 1, so α-filtered-to-nothing paths still
	// occupy (and age out of) the LRU.
	return lru.New(budget, func(p pruned) int { return max(p.rows.Len(), 1) }, ctrs)
}

// pathKey keys one path's pruned set: the query's fingerprint fp (node
// labels feed the node-level sets and path label sequences; the edge set,
// the neighbor label counts and each path's cycles, neighbors and reverse
// positions), α's bits, and the path's query-node sequence. The
// node sequence (not just its label projection) is required: pruning
// consults per-query-node context, so two label-identical paths through
// different query nodes may keep different candidates.
func pathKey(fp string, alpha float64, p *decompose.Path) string {
	buf := make([]byte, 0, len(fp)+8+len(p.Nodes)) // exact while node ids are below 128
	buf = append(buf, fp...)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(alpha))
	for _, n := range p.Nodes {
		buf = binary.AppendUvarint(buf, uint64(n))
	}
	return string(buf)
}

// mutating is implemented by readers whose answers can drift from their
// backing index (live views carrying mutations). A non-zero count makes
// Find bypass the cache: the mutations are not part of the key, and
// the server's per-generation ownership only covers published immutable
// snapshots.
type mutating interface {
	Mutations() uint64
}
