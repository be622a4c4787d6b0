// Package candidates implements Section 5.2.2, "Finding Path Candidates":
// for every path in the decomposition it retrieves the initial match set
// from the path index and prunes it with node-level statistics (neighborhood
// label counts and full probability upperbounds) and path-level statistics
// (path-neighborhood upperbounds pu and path-cycle probabilities cpr).
package candidates

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/decompose"
	"repro/internal/entity"
	"repro/internal/pathindex"
	"repro/internal/prob"
	"repro/internal/query"
)

// Rows holds the surviving matches of one path in one flat arena of exactly
// the kept rows (len == cap): row i is Nodes[i*w:(i+1)*w], the entity nodes
// aligned with the positions of the path's w query nodes. A row is its ids
// and nothing else: the scanned Prle and Prn are read by the pruning test and
// dropped, and the k-partite graph looks the factors and the identity
// probability up itself. Find lays the arena out once, on one goroutine, and
// never touches it again; from then on it is immutable and shared without
// copying — by the Set handed to the caller, by the candidate cache (hence
// across requests), and by the k-partite graph built over the Set.
type Rows struct {
	Nodes []entity.ID
	n     int // rows in Nodes
}

// Len returns the number of rows.
func (r *Rows) Len() int { return r.n }

// Set is the candidate list cn(P) for one decomposition path.
type Set struct {
	Path *decompose.Path
	Rows
	// Initial is |PIndex(lQ(V_P), α)|, the path's rows before pruning, as
	// the reader's ScanCount reports it: not the rows this scan streamed,
	// which below β leave out those the node-level test cuts from the walk.
	Initial int
}

// Row returns the entity nodes of candidate i, aligned with the path's
// positions: a view into the arena.
func (s *Set) Row(i int) []entity.ID {
	w := len(s.Path.Nodes)
	return s.Nodes[i*w : (i+1)*w : (i+1)*w]
}

// Stats reports the search-space progression of Figure 7(e) plus the
// per-path observed counts behind the executor's candidates stage row.
type Stats struct {
	// SSPath is the search space after index lookup only (product of
	// initial candidate counts).
	SSPath float64
	// SSContext is the search space after node- and path-level context
	// pruning.
	SSContext float64
	// Initial[i] is the exact |PIndex(lQ(V_Pi), α)| for decomposition
	// path i — the number the offline histograms only estimated. Below β an
	// index counts it once per (label sequence, α) in a generation, on the
	// first unfiltered walk that runs to its end, and reports that count
	// from then on while its walks skip what the node-level test rejects.
	Initial []int
	// Kept[i] is the candidate count for path i surviving context pruning.
	Kept []int
	// CacheHits/CacheMisses/CacheBypassed count per-path candidate-cache
	// outcomes for this call (hits include singleflight joins). All zero
	// when no cache was supplied.
	CacheHits     int
	CacheMisses   int
	CacheBypassed int
}

// nodeTest is the node-level candidacy test cn(n) of Section 5.2.2 for one
// query at one α: the reader's set of every query node, read once, beside
// the context tables the path-level tests consult.
type nodeTest struct {
	ctx   *pathindex.Context
	q     *query.Query
	sets  []pathindex.NodeSet // by query node; shared with the reader
	floor float64             // prob.Floor(α, the factors of a match of q)
}

// newNodeTest reads the set of every query node of q from ix.
func newNodeTest(ix pathindex.Reader, q *query.Query, alpha float64) *nodeTest {
	nl := ix.Graph().NumLabels()
	nt := &nodeTest{ctx: ix.Context(), q: q, sets: make([]pathindex.NodeSet, q.NumNodes()),
		floor: prob.Floor(alpha, prob.Factors(q.NumNodes(), q.NumEdges()))}
	for i := range nt.sets {
		n := query.NodeID(i)
		nt.sets[i] = ix.NodeSet(q.Label(n), q.NeighborLabelCounts(n, nl), alpha)
	}
	return nt
}

// Find runs the candidate generation stage for every decomposition path:
// the path's posting scan (or on-demand enumeration, when α < β) streams
// through the context tests and only survivors' ids are copied, into chunks
// the path's scan owns and then once into its exact-size arena — so a path
// allocates in proportion to what it keeps (two to three times its rows'
// ids), not to what the index returns. Paths are independent units, so with workers > 1
// they are fanned out across the pool (one goroutine per path; a path is
// never split); results land in deterministic per-path slots and the Stats
// products are accumulated in path order afterwards, so the output — float
// bits and buffer sizes included — is identical to the sequential walk at
// any worker count.
//
// cache may be nil. A non-nil cache serves pruned per-path sets keyed by
// (query structure, path node sequence, α) and is only sound against the
// single immutable reader it was created for; readers reporting pending
// mutations (live views) bypass it wholesale, since the mutations are not
// part of the key.
func Find(ctx context.Context, ix pathindex.Reader, q *query.Query, dec *decompose.Decomposition, alpha float64, workers int, cache *Cache) ([]Set, Stats, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// The node-level sets are read by the first path that has to scan: a
	// request served entirely from the candidate cache never reads them.
	nodeLevel := sync.OnceValue(func() *nodeTest { return newNodeTest(ix, q, alpha) })

	n := len(dec.Paths)
	sets := make([]Set, n)
	stats := Stats{
		SSPath:    1,
		SSContext: 1,
		Initial:   make([]int, n),
		Kept:      make([]int, n),
	}

	if cache != nil {
		if m, ok := ix.(mutating); ok && m.Mutations() > 0 {
			cache.Bypass(n)
			stats.CacheBypassed = n
			cache = nil
		}
	}
	var fp string
	if cache != nil {
		fp = query.Fingerprint(q)
	}

	pathWorkers := workers
	if pathWorkers > n {
		pathWorkers = n
	}

	hits := make([]bool, n)
	findOne := func(i int) error {
		p := &dec.Paths[i]
		compute := func() (pruned, error) {
			rows, initial, err := scanPath(ctx, ix, nodeLevel(), p, alpha)
			return pruned{rows, initial}, err
		}
		var (
			c   pruned
			err error
		)
		if cache != nil {
			c, hits[i], err = cache.Do(ctx, pathKey(fp, alpha, p), compute)
		} else {
			c, err = compute()
		}
		if err != nil {
			return err
		}
		sets[i] = Set{Path: p, Rows: c.rows, Initial: c.initial}
		stats.Initial[i] = c.initial
		stats.Kept[i] = c.rows.Len()
		return nil
	}

	if pathWorkers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return nil, Stats{}, err
			}
			if err := findOne(i); err != nil {
				return nil, Stats{}, err
			}
		}
	} else {
		errs := make([]error, n)
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < pathWorkers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					if err := ctx.Err(); err != nil {
						errs[i] = err
						continue
					}
					errs[i] = findOne(i)
				}
			}()
		}
		wg.Wait()
		// Report the first failing path in index order, matching what the
		// sequential walk would have surfaced.
		for _, err := range errs {
			if err != nil {
				return nil, Stats{}, err
			}
		}
	}

	// Accumulate the search-space products and cache counters in path
	// order so the float results are bitwise-stable across worker counts.
	for i := 0; i < n; i++ {
		stats.SSPath *= float64(stats.Initial[i])
		stats.SSContext *= float64(stats.Kept[i])
		if hits[i] {
			stats.CacheHits++
		}
	}
	if cache != nil {
		stats.CacheMisses = n - stats.CacheHits
	}
	return sets, stats, nil
}

// cancelCheckEvery matches the join stage's polling convention: a path's
// scan consults ctx once per this many records, so a single huge path is
// cancellable mid-flight.
const cancelCheckEvery = 1024

// firstChunk is the row count of a path scan's first survivor chunk.
const firstChunk = 64

// scanPath streams PIndex(lQ(V_P), α) through the context tests, copying
// the survivors' entity ids into chunks of 64, 128, 256, … rows that this
// call owns, and lays them out once, in scan order, into one exact-size
// arena. Chunks and arena are allocated on this goroutine only, so their
// sizes depend on the survivor count and nothing else. The reader is handed
// the node-level sets of the path's query nodes as its walk's filter: the
// rows it leaves out are rows keepCandidate rejects, so the survivors and
// their order are those of the whole scan. initial is |PIndex(lQ(V_P), α)|,
// as ScanCount reports it.
func scanPath(ctx context.Context, ix pathindex.Reader, nt *nodeTest, p *decompose.Path, alpha float64) (kept Rows, initial int, err error) {
	g := ix.Graph()
	w := len(p.Nodes)
	var chunks [][]entity.ID // survivors in scan order; the last chunk is filling
	// The poll's state is one object: a lone counter would be a tiny
	// allocation, whose bytes depend on what the reader allocates beside it.
	var poll struct {
		rows int // rows streamed
		err  error
	}
	// A filter of the longest path's size whatever w is, so what a path
	// allocates beside its rows is the same for every path.
	var keep [pathindex.MaxSupportedLen + 1]pathindex.NodeSet
	for pos, n := range p.Nodes {
		keep[pos] = nt.sets[n]
	}
	initial, err = ix.ScanCount(ctx, p.Labels, alpha, keep[:w], func(nodes []entity.ID, prle, prn float64) bool {
		if poll.rows%cancelCheckEvery == 0 {
			if poll.err = ctx.Err(); poll.err != nil {
				return false
			}
		}
		poll.rows++
		if keepCandidate(g, nt, p, nodes, prle, prn) {
			if k := len(chunks); k == 0 || len(chunks[k-1]) == cap(chunks[k-1]) {
				chunks = append(chunks, make([]entity.ID, 0, (firstChunk<<k)*w))
			}
			c := &chunks[len(chunks)-1]
			*c = append(*c, nodes...)
		}
		return true
	})
	if err == nil {
		err = poll.err
	}
	if err != nil {
		return Rows{}, 0, err
	}
	size := 0
	for _, c := range chunks {
		size += len(c)
	}
	kept = Rows{Nodes: make([]entity.ID, 0, size), n: size / w}
	for _, c := range chunks {
		kept.Nodes = append(kept.Nodes, c...)
	}
	return kept, initial, nil
}

// keepCandidate applies the two path-level tests of Section 5.2.2, holding
// each bound to the query's floor: prob.MayClear at α.
func keepCandidate(g *entity.Graph, nt *nodeTest, p *decompose.Path, nodes []entity.ID, prle, prn float64) bool {
	// (1) every node must be a node-level candidate for its query node.
	for pos, v := range nodes {
		if !nt.sets[p.Nodes[pos]].Has(v) {
			return false
		}
	}
	// (2) (Prle·Prn) · pu · cpr ≥ α.
	bound := prle * prn
	if bound < nt.floor {
		return false
	}
	bound *= pathCyclesProb(g, nt.q, p, nodes)
	if bound < nt.floor {
		return false
	}
	bound *= neighborhoodUpperbound(nt, p, nodes)
	return bound >= nt.floor
}

// pathCyclesProb is cpr(Pu): the product of existence probabilities of the
// query chords instantiated on the candidate path. A missing GU edge yields
// zero (the structural part of the test).
func pathCyclesProb(g *entity.Graph, q *query.Query, p *decompose.Path, nodes []entity.ID) float64 {
	pr := 1.0
	for _, cyc := range p.Info.Cycles {
		u, v := nodes[cyc[0]], nodes[cyc[1]]
		ep, ok := g.EdgeBetween(u, v)
		if !ok {
			return 0
		}
		pr *= g.PrEdge(ep, q.Label(p.Nodes[cyc[0]]), q.Label(p.Nodes[cyc[1]]))
		if pr == 0 {
			return 0
		}
	}
	return pr
}

// neighborhoodUpperbound is pu(Pu): for every path neighbor m' ∈ Γ(P), the
// tightest bound over its reverse path neighbors, combining one full
// probability upperbound with partial upperbounds for the rest.
func neighborhoodUpperbound(nt *nodeTest, p *decompose.Path, nodes []entity.ID) float64 {
	if len(p.Info.Neighbors) == 0 {
		return 1
	}
	var rows [pathindex.MaxSupportedLen + 1]pathindex.ContextRow
	for pos, v := range nodes {
		rows[pos] = nt.ctx.Row(v)
	}
	pu := 1.0
	for i, nb := range p.Info.Neighbors {
		sigma := nt.q.Label(nb)
		rv := p.Info.Reverse[i]
		best := -1.0
		for _, nPos := range rv {
			val := rows[nPos].FPU(sigma)
			for _, oPos := range rv {
				if oPos == nPos {
					continue
				}
				val *= rows[oPos].PPU(sigma)
			}
			if best < 0 || val < best {
				best = val
			}
		}
		if best >= 0 {
			pu *= best
			if pu == 0 {
				return 0
			}
		}
	}
	return pu
}
