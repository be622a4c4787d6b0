// Package kpartite implements Sections 5.2.3 and 5.2.4: the candidate
// k-partite graph (one partition per decomposition path, one vertex per
// candidate path match, links between join-candidates), and the joint search
// space reduction that interleaves reduction by structure with reduction by
// upperbounds (perception-vector message passing) until fixpoint.
//
// The graph is stored in flat arena-backed arrays so the reduction and the
// downstream join enumeration walk contiguous memory: candidate rows live in
// one entity-id array per partition (row-major, path-length stride) — the
// candidate set's own arena, shared not copied, and therefore read-only
// here — links are CSR adjacency (offsets into one int32 edge pool per
// partition pair and direction), each row's two reduction weights (the exclusive cover product
// w1 and the identity probability w2) and its label and edge factors are
// computed once into float64 columns per partition, one arena for all four,
// and perception vectors are one flat float64 array per partition with a
// double buffer for the bulk-synchronous message-passing rounds. After Build/Reduce the graph is immutable and safe
// for any number of concurrent readers. A Walked graph is the exception: it
// serves one enumeration, whose join asks it for its first partition's rows
// one root at a time and for every other partition's one join key at a
// time, and it walks, stores and looks the factors up of a key's rows on the
// first request. It has no links and no weights.
package kpartite

import (
	"context"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/candidates"
	"repro/internal/decompose"
	"repro/internal/entity"
	"repro/internal/pathindex"
	"repro/internal/prob"
	"repro/internal/query"
)

// Graph is the candidate k-partite graph.
type Graph struct {
	g     *entity.Graph
	dec   *decompose.Decomposition
	floor float64 // prob.Floor(α, the factors of dec's query's matches)

	parts []*partition
	// links[p][j] is the CSR adjacency from partition p into partition j;
	// links[p][j].offs is nil unless j ∈ J(p). A walked graph has none.
	links [][]linkSet
	// joined[p] caches dec.Joined(p) so the reduction fixpoint does not
	// recompute it every round.
	joined [][]int
	// vecReady reports that perception vectors were initialized by Reduce.
	vecReady bool
	// walks produces a walked graph's rows by key; nil on Build's graph.
	// root is WalkRoot's key.
	walks *candidates.KeyWalks
	root  [1]entity.ID
}

// linkSet is one direction of a partition pair's links in CSR form: the
// vertices of the target partition linked to vertex i are
// pool[offs[i]:offs[i+1]], ascending. The lookup table T(b, a) of Section
// 5.2.3 that linkPair builds has one CSR row per join-key bucket instead,
// and the key it is probed with: the probing side's rows (nodes, plen), its
// join positions pos in predicate order, and the bucket shift.
type linkSet struct {
	offs  []int32
	pool  []int32
	nodes []entity.ID
	plen  int
	pos   []int32
	shift uint8
}

func (ls *linkSet) row(i int) []int32 {
	if ls.offs == nil {
		return nil
	}
	return ls.pool[ls.offs[i]:ls.offs[i+1]]
}

type partition struct {
	path *decompose.Path
	n    int // number of candidate vertices
	plen int // nodes per candidate row
	elen int // edges per candidate row: plen-1
	// nodes holds the candidate rows row-major: row i is
	// nodes[i*plen : (i+1)*plen]. On Build's graph it is the candidate
	// set's arena (Set.Nodes) and must not be written. On a walked graph it
	// is the graph's own: Walk appends each key's rows to it, and WalkRoot
	// replaces it by a root's.
	nodes  []entity.ID
	alive  []bool
	nAlive int
	// w1 and w2 are the two weights of the upper-bound reduction, row i's
	// exclusive cover product and its identity probability Graph.Prn(row i);
	// nil on a walked graph, which is never reduced.
	w1 []float64
	w2 []float64
	// lab and edge are the row factor columns fill fills, the only place a
	// candidate row's probabilities are looked up:
	// lab[i*plen+pos] = PrLabel(row i's node at pos, label of path.Nodes[pos])
	// and edge[i*elen+pos] = the probability of the GU edge between row
	// i's nodes at pos and pos+1 given the two query labels in edgeKey
	// orientation, 0 when GU has no such edge.
	lab  []float64
	edge []float64
	// keys, on a walked graph, maps each join key asked for to the rows
	// [lo, hi) it walked; walks counts the walks, root walks included, and
	// rows the rows they kept.
	keys  map[walkKey][2]int32
	walks int
	rows  int
	// vec / nextVec are the flat perception vectors (n rows of k entries,
	// row-major); nextVec is the write buffer of the current BSP round and
	// the two are swapped at each round barrier. vecSet[i] records whether
	// vertex i was alive when the vectors were initialized.
	vec     []float64
	nextVec []float64
	vecSet  []bool
}

// Stats reports the reduction behaviour (Figures 7(e) and 7(f)).
type Stats struct {
	// SSBefore is the search space size entering the reduction.
	SSBefore float64
	// SSAfterStructure is the size after the first structure-only fixpoint.
	SSAfterStructure float64
	// SSAfterUpperbound is the final size after the full interleaved
	// reduction.
	SSAfterUpperbound float64
	// Rounds counts the interleaved reduction iterations.
	Rounds int
}

// Build constructs the k-partite graph: join-candidate links are found with
// per-pair lookup tables (Section 5.2.3), filtering by join predicates,
// combined probability, and reference disjointness. With workers > 1 the
// per-pair link construction fans out across a pool: each unordered pair
// writes only its own two kg.links slots and each worker owns a private
// buildEval scratch, sized before the hand-out starts, and since per-pair
// output is independent of scheduling the resulting CSR arenas are
// byte-identical at any worker count. sets is retained and only read: its
// arenas become the partitions' rows. q is not read: dec's paths carry their
// labels.
func Build(ctx context.Context, g *entity.Graph, q *query.Query, dec *decompose.Decomposition, sets []candidates.Set, alpha float64, workers int) (*Graph, error) {
	kg, pairs, maxN := newGraph(g, dec, sets, alpha)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(pairs) {
		workers = len(pairs)
	}
	if workers <= 1 {
		be := newBuildEval(g, kg.floor, maxN)
		for _, pair := range pairs {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			kg.linkPair(be, pair[0], pair[1])
		}
		return kg, nil
	}

	// Every worker's scratch exists before the first pair is handed out, so
	// what Build allocates depends on the worker count and the input, never
	// on which worker happened to claim which pair.
	evals := make([]*buildEval, workers)
	for w := range evals {
		evals[w] = newBuildEval(g, kg.floor, maxN)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, be := range evals {
		wg.Add(1)
		go func(be *buildEval) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(pairs) || ctx.Err() != nil {
					return
				}
				kg.linkPair(be, pairs[i][0], pairs[i][1])
			}
		}(be)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return kg, nil
}

// newGraph lays out the partitions over the candidate sets' arenas, with
// their weights, and lists the joined pairs in linking order.
func newGraph(g *entity.Graph, dec *decompose.Decomposition, sets []candidates.Set, alpha float64) (kg *Graph, pairs [][2]int, maxN int) {
	k := len(sets)
	kg = &Graph{g: g, dec: dec, floor: prob.Floor(alpha, prob.Factors(len(dec.CoverNode), len(dec.CoverEdge)))}
	kg.parts = make([]*partition, k)
	kg.links = make([][]linkSet, k)
	kg.joined = make([][]int, k)
	for p := 0; p < k; p++ {
		n := sets[p].Len()
		plen := len(sets[p].Path.Nodes)
		elen := max(plen-1, 0)
		part := &partition{
			path:   sets[p].Path,
			n:      n,
			plen:   plen,
			elen:   elen,
			nodes:  sets[p].Nodes,
			alive:  make([]bool, n),
			nAlive: n,
		}
		// One arena for the four float columns Build computes.
		cols := make([]float64, n*(2+plen+elen))
		part.w1 = cols[:n:n]
		part.w2 = cols[n : 2*n : 2*n]
		part.lab = cols[2*n : 2*n+n*plen : 2*n+n*plen]
		part.edge = cols[2*n+n*plen:]
		for i := range part.alive {
			part.alive[i] = true
		}
		kg.parts[p] = part
		kg.links[p] = make([]linkSet, k)
		kg.joined[p] = dec.Joined(p)
		maxN = max(maxN, n)
	}
	kg.computeWeights()

	// Ascending pair order (any order would do for correctness — slots are
	// disjoint — but a sorted work list keeps the sequential walk
	// reproducible and the atomic hand-out stable).
	return kg, dec.Pairs, maxN
}

// computeWeights looks every row's probability factors up, once, into the
// lab and edge columns (fill), and multiplies w1 (the exclusive node/edge
// cover product: the covered label factors in position order, then the
// covered edge factors) from them; w2 is the row's identity probability
// Graph.Prn, evaluated over the row in position order. A row with a missing
// GU edge gets factor 0 there, hence w1 = 0 when this partition covers that
// edge.
func (kg *Graph) computeWeights() {
	for p, part := range kg.parts {
		path := part.path
		plen, elen := part.plen, part.elen
		// What a position contributes depends on the path alone.
		coverNode := make([]bool, plen)
		coverEdge := make([]bool, elen)
		for pos, qn := range path.Nodes {
			coverNode[pos] = kg.dec.CoverNode[qn] == p
		}
		for pos := range coverEdge {
			coverEdge[pos] = kg.dec.CoverEdge[edgeKey(path.Nodes[pos], path.Nodes[pos+1])] == p
		}
		for i := 0; i < part.n; i++ {
			lab, edge := part.lab[i*plen:(i+1)*plen], part.edge[i*elen:(i+1)*elen]
			fill(kg.g, part, i, lab, edge)
			w1 := 1.0
			for pos, f := range lab {
				if coverNode[pos] {
					w1 *= f
				}
			}
			for pos, f := range edge {
				if coverEdge[pos] {
					w1 *= f
				}
			}
			part.w1[i] = w1
			part.w2[i] = kg.g.Prn(part.nodes[i*plen : (i+1)*plen])
		}
	}
}

// fill looks the factors of row i of part up into lab (plen entries) and
// edge (elen entries).
func fill(g *entity.Graph, part *partition, i int, lab, edge []float64) {
	path := part.path
	row := part.nodes[i*part.plen : (i+1)*part.plen]
	for pos, v := range row {
		lab[pos] = g.PrLabel(v, path.Labels[pos])
	}
	for pos := range edge[:part.elen] {
		f := 0.0
		if ep, ok := g.EdgeBetween(row[pos], row[pos+1]); ok {
			la, lb := path.Labels[pos], path.Labels[pos+1]
			if path.Nodes[pos] > path.Nodes[pos+1] { // edgeKey orientation
				la, lb = lb, la
			}
			f = g.PrEdge(ep, la, lb)
		}
		edge[pos] = f
	}
}

// Walked returns the k-partite graph of a run that stops at a declared
// limit and so neither reduces nor enumerates exhaustively: every partition
// starts empty and gets its rows from walks, the join's first partition one
// root at a time (WalkRoot), every other per join key, on the join's first
// request for that key (Walk). It has no links and no weights, Reduce
// panics, and it serves one enumerating goroutine, since the walks write.
func Walked(g *entity.Graph, dec *decompose.Decomposition, walks *candidates.KeyWalks) *Graph {
	kg := &Graph{g: g, dec: dec, walks: walks}
	kg.parts = make([]*partition, len(dec.Paths))
	for p := range kg.parts {
		plen := len(dec.Paths[p].Nodes)
		kg.parts[p] = &partition{path: &dec.Paths[p], plen: plen, elen: max(plen-1, 0), keys: map[walkKey][2]int32{}}
	}
	return kg
}

// walkKey is a join key of a walked partition: the mask of the positions it
// fixes and their entities, in position order.
type walkKey struct {
	mask uint8
	ents [pathindex.MaxSupportedLen + 1]entity.ID
}

// Walk returns the rows [lo, hi) of partition p of a walked graph that
// carry key[k] at position pos[k] for every k (pos ascending): the rows
// the key walk kept, in ascending order of their ids, position by
// position, all alive. It walks a key once, on its first request; an
// empty key is every row of the partition's path.
func (kg *Graph) Walk(p int, pos []int32, key []entity.ID) (lo, hi int) {
	part := kg.parts[p]
	var k walkKey
	for i, x := range pos {
		k.mask |= 1 << x
		k.ents[i] = key[i]
	}
	if span, ok := part.keys[k]; ok {
		return int(span[0]), int(span[1])
	}
	lo = part.n
	part.nodes = kg.walks.Rows(part.nodes, p, pos, key)
	part.appendRows(kg.g, lo)
	part.walks++
	part.rows += part.n - lo
	part.keys[k] = [2]int32{int32(lo), int32(part.n)}
	return lo, part.n
}

// rootPos is the key position of a root walk.
var rootPos = []int32{0}

// Roots returns the entities partition p's rows of a walked graph may
// start with (candidates.KeyWalks.Roots). The join's first step asks
// WalkRoot for each, in ascending id.
func (kg *Graph) Roots(p int) pathindex.NodeSet { return kg.walks.Roots(p) }

// WalkRoot replaces the rows of partition p of a walked graph with those
// that carry v at position 0, walked from v, and returns their number n:
// rows [0, n) are the rows of Find's on-demand walk from v, in its order,
// all alive. The
// join's first partition is read this way, each root once, so its rows need
// no key memo, and one buffer serves every root: a row of the previous
// root is not to be read after the call. A partition is read by WalkRoot or
// by Walk, not both.
func (kg *Graph) WalkRoot(p int, v entity.ID) int {
	part := kg.parts[p]
	kg.root[0] = v
	part.nodes = kg.walks.Rows(part.nodes[:0], p, rootPos, kg.root[:])
	part.lab, part.edge, part.alive = part.lab[:0], part.edge[:0], part.alive[:0]
	part.appendRows(kg.g, 0)
	part.walks++
	part.rows += part.n
	return part.n
}

// appendRows takes the rows of nodes from row lo on into the partition:
// alive, with their factors looked up.
func (part *partition) appendRows(g *entity.Graph, lo int) {
	n := len(part.nodes) / part.plen
	part.lab = slices.Grow(part.lab, (n-lo)*part.plen)[:n*part.plen]
	part.edge = slices.Grow(part.edge, (n-lo)*part.elen)[:n*part.elen]
	for i := lo; i < n; i++ {
		fill(g, part, i, part.lab[i*part.plen:], part.edge[i*part.elen:])
		part.alive = append(part.alive, true)
	}
	part.n, part.nAlive = n, n
}

// Walks reports, for partition p of a walked graph, how many key and root
// walks ran and how many rows they kept; 0, 0 for a partition that was not
// walked, and on Build's graph.
func (kg *Graph) Walks(p int) (walks, rows int) {
	part := kg.parts[p]
	return part.walks, part.rows
}

// IsWalked reports whether kg came from Walked: the join reads a
// partition's rows by key through Walk, not through Links.
func (kg *Graph) IsWalked() bool { return kg.walks != nil }

func edgeKey(a, b query.NodeID) [2]query.NodeID {
	if a > b {
		a, b = b, a
	}
	return [2]query.NodeID{a, b}
}

// buildEval is one worker's reusable scratch for link construction: the
// union entity list of the joinability test with each entity's identity
// component, what probe computed for the row of pa in hand, the shape of the
// pair being linked (which positions of which side supply the union's nodes
// and edges), and pa's buckets and the lookup table of linkPair, sized for
// the largest partition — so linking a pair allocates its two CSR outputs
// and nothing else.
type buildEval struct {
	g     *entity.Graph
	floor float64 // the graph's

	nodesBuf []entity.ID
	compBuf  []int32 // compBuf[x] = Comp(nodesBuf[x])

	// Row i of pa as probe left it: its label factor product, its Prn, and
	// whether two of its entities share an identity component.
	prleA, prnA float64
	sharedA     bool

	// Per-pair shape, rebuilt by setPair. The union of the two paths is all
	// of pa's nodes then pb's at newB, and pa's edges at edgesA then pb's at
	// edgesB (an edge position is that of its first node); shared lists the
	// (posA, posB) holding the same query node, and posA, posB the join
	// positions of each side in predicate order.
	pa, pb         *partition
	shared         [][2]int32
	newB           []int32
	edgesA, edgesB []int32
	edgeKeys       [][2]query.NodeID // setPair's dedup list
	posA, posB     []int32

	// linkPair's scratch: pa's bucket per row, and T(b, a).
	keysA []int32
	table linkSet
}

// newBuildEval sizes the scratch for partitions of up to maxN rows: a table
// over n rows has fewer than 2n buckets (at least one).
func newBuildEval(g *entity.Graph, floor float64, maxN int) *buildEval {
	return &buildEval{
		g:     g,
		floor: floor,
		keysA: make([]int32, maxN),
		table: linkSet{offs: make([]int32, 2*maxN+2), pool: make([]int32, maxN)},
	}
}

// setPair precomputes which side and position supplies every node and every
// deduplicated edge of the union of pa's and pb's paths, and each side's
// join positions under preds — these depend only on the pair, not on the
// candidates.
func (be *buildEval) setPair(pa, pb *partition, preds []decompose.JoinPred) {
	be.pa, be.pb = pa, pb
	be.posA, be.posB = joinPositions(be.posA[:0], be.posB[:0], preds, true)
	be.shared, be.newB = be.shared[:0], be.newB[:0]
	be.edgesA, be.edgesB = be.edgesA[:0], be.edgesB[:0]
	be.edgeKeys = be.edgeKeys[:0]
	na, nb := pa.path.Nodes, pb.path.Nodes
	for posB, qn := range nb {
		dup := false
		for posA, on := range na {
			if on == qn {
				be.shared = append(be.shared, [2]int32{int32(posA), int32(posB)})
				dup = true
			}
		}
		if !dup {
			be.newB = append(be.newB, int32(posB))
		}
	}
	addEdges := func(nodes []query.NodeID, dst []int32) []int32 {
		for pos := 0; pos+1 < len(nodes); pos++ {
			key := edgeKey(nodes[pos], nodes[pos+1])
			if !slices.Contains(be.edgeKeys, key) {
				be.edgeKeys = append(be.edgeKeys, key)
				dst = append(dst, int32(pos))
			}
		}
		return dst
	}
	be.edgesA = addEdges(na, be.edgesA)
	be.edgesB = addEdges(nb, be.edgesB)
}

// extend appends v to the union entity list and folds it into the list's Prn
// the way Graph.Prn would: times Exist(v) while every identity component is
// new; once one is not, *shared is set and Prn has to be evaluated over the
// list — where it is 0 if v shares a reference with an entity on it, which
// shares its component. It reports false when v is already on the list.
func (be *buildEval) extend(v entity.ID, prn *float64, shared *bool) bool {
	c := be.g.Comp(v)
	for x, cu := range be.compBuf {
		if cu == c {
			if be.nodesBuf[x] == v {
				return false
			}
			*shared = true
		}
	}
	be.nodesBuf, be.compBuf = append(be.nodesBuf, v), append(be.compBuf, c)
	*prn *= be.g.Exist(v)
	return true
}

// probe loads row i of pa, once for every row of pb it is then tried against
// with joinable, and computes what it contributes to each of those tests: its
// label factor product and its Prn. It reports false when that Prn is 0 or an
// entity occurs twice: such a row is joinable with nothing.
func (be *buildEval) probe(i int) bool {
	pa := be.pa
	be.nodesBuf, be.compBuf = be.nodesBuf[:0], be.compBuf[:0]
	be.prleA, be.prnA, be.sharedA = 1, 1, false
	for pos, v := range pa.nodes[i*pa.plen : (i+1)*pa.plen] {
		if !be.extend(v, &be.prnA, &be.sharedA) {
			return false
		}
		be.prleA *= pa.lab[i*pa.plen+pos]
	}
	if be.sharedA {
		be.prnA = be.g.Prn(be.nodesBuf)
	}
	return be.prnA != 0
}

// joinable applies the filters of cn(P1, Pu1, P2) to row i of pa, which
// probe has loaded, and row j of pb (setPair must have been called for the
// pair): the join predicates, injectivity, refs(V_Pu1) ∩ refs(V_Pu2) = ∅
// (shared join nodes excepted) and prob.MayClear of Pr(Pu1 ∘ Pu2) at α.
// Identity is one test: the union's Prn, carried forward from probe's, is 0
// exactly when two of its entities share a reference, and MayClear rejects a
// zero bound whatever α. The probability is the product of the rows' cached
// factors in a fixed order — pa's label factors, pb's new ones, pa's edge
// factors, pb's new ones — times that Prn, which is the order and therefore
// the float bits of evaluating the union assignment by look-up.
func (be *buildEval) joinable(i, j int) bool {
	pa, pb := be.pa, be.pb
	rowB := pb.nodes[j*pb.plen : (j+1)*pb.plen]
	for _, s := range be.shared {
		if be.nodesBuf[s[0]] != rowB[s[1]] {
			return false // another key sharing the bucket
		}
	}
	// Back to row i alone: the previous j's new nodes go.
	be.nodesBuf, be.compBuf = be.nodesBuf[:pa.plen], be.compBuf[:pa.plen]
	prn, shared := be.prnA, be.sharedA
	for _, pos := range be.newB {
		if !be.extend(rowB[pos], &prn, &shared) {
			return false
		}
	}
	if shared {
		prn = be.g.Prn(be.nodesBuf)
	}
	prle := be.prleA
	labB := pb.lab[j*pb.plen:]
	for _, pos := range be.newB {
		prle *= labB[pos]
	}
	edgeA, edgeB := pa.edge[i*pa.elen:], pb.edge[j*pb.elen:]
	for _, pos := range be.edgesA {
		prle *= edgeA[pos]
	}
	for _, pos := range be.edgesB {
		prle *= edgeB[pos]
	}
	return prle*prn >= be.floor
}

// linkPair builds the links between partitions a and b via a lookup table
// T(b, a) over b's join-position node tuples. The table is a counting
// layout, not a map: every row of b hashes its packed join key into one of
// ≥ |b| buckets and group lays the row ids out bucket by bucket, ascending
// within a bucket. Probing with a's rows in order therefore meets the
// surviving (i, j) pairs already sorted, so the a→b CSR rows are written as
// they are found and b→a is their counting transpose. a's buckets and the
// table live in the worker's scratch; the a→b pool is allocated once, for the
// number of (i, j) the table pairs up — a count of the input, at least the
// link count.
func (kg *Graph) linkPair(be *buildEval, a, b int) {
	pa, pb := kg.parts[a], kg.parts[b]
	be.setPair(pa, pb, kg.dec.Preds(a, b))
	table := &be.table
	table.lookup(pa, be.posA, pb, be.posB, bucketShift(pb.n))

	keysA := be.keysA[:pa.n]
	paired := 0
	for i := range keysA {
		keysA[i] = int32(table.bucket(i))
		paired += len(table.row(int(keysA[i])))
	}
	ab := linkSet{offs: make([]int32, pa.n+1), pool: make([]int32, 0, paired)}
	for i, key := range keysA {
		if row := table.row(int(key)); len(row) > 0 && be.probe(i) {
			for _, j := range row {
				if be.joinable(i, int(j)) {
					ab.pool = append(ab.pool, j)
				}
			}
		}
		ab.offs[i+1] = int32(len(ab.pool))
	}
	kg.links[a][b], kg.links[b][a] = ab, transpose(ab, pb.n)
}

// joinPositions appends to a and b the join positions of the two sides
// under preds, in predicate order: a the PosA side's when sideA, else the
// PosB side's.
func joinPositions(a, b []int32, preds []decompose.JoinPred, sideA bool) ([]int32, []int32) {
	for _, pr := range preds {
		pa, pb := int32(pr.PosA), int32(pr.PosB)
		if !sideA {
			pa, pb = pb, pa
		}
		a, b = append(a, pa), append(b, pb)
	}
	return a, b
}

// bucketShift is the shift whose top bits of a spread join key pick one of
// 2^(64-shift) buckets: the least power of two ≥ n, at least one.
func bucketShift(n int) uint8 {
	shift := uint8(64)
	for m := 1; m < n; m <<= 1 {
		shift--
	}
	return shift
}

// bucket is row i's bucket under ls's join key: its nodes at pos packed into
// one integer — exactly for up to two positions, folded beyond — spread over
// all 64 bits (Fibonacci hashing), whose top bits pick the bucket. It is the
// only join hash.
func (ls *linkSet) bucket(i int) int {
	var key uint64
	for _, x := range ls.pos {
		key = bits.RotateLeft64(key, 32) ^ uint64(uint32(ls.nodes[i*ls.plen+int(x)]))
	}
	return int(key * 0x9E3779B97F4A7C15 >> ls.shift)
}

// counting starts a CSR of n rows whose row k will receive one entry per
// occurrence of k in keys: offsets are counted and prefix-summed here, put
// fills, rewind finishes.
func counting(n int, keys []int32) linkSet {
	ls := linkSet{offs: make([]int32, n+1), pool: make([]int32, len(keys))}
	for _, k := range keys {
		ls.offs[k+1]++
	}
	ls.prefixSum()
	return ls
}

// prefixSum turns offs[k+1] = the entries row k is to receive into the offset
// each row starts at.
func (ls *linkSet) prefixSum() {
	for k := 0; k+1 < len(ls.offs); k++ {
		ls.offs[k+1] += ls.offs[k]
	}
}

// put appends v to row k, advancing the row's offset as a cursor.
func (ls *linkSet) put(k, v int32) {
	ls.pool[ls.offs[k]] = v
	ls.offs[k]++
}

// rewind restores the offsets put advanced: each row's cursor ended where
// the next row starts.
func (ls *linkSet) rewind() {
	copy(ls.offs[1:], ls.offs)
	ls.offs[0] = 0
}

// lookup lays ls out, within the capacity it already has, as the lookup
// table T(b, a) keyed by a's join positions posA: the CSR of 2^(64-shift)
// buckets whose row k lists, ascending, every row of b whose nodes at posB
// (the same predicates, from b's side) hash to bucket k. b's rows are hashed
// by the key's own code, pointed at b while they are counted and placed —
// twice each, so no bucket is stored — and the key is then a's, for bucket
// to hash a's rows with.
func (ls *linkSet) lookup(a *partition, posA []int32, b *partition, posB []int32, shift uint8) {
	ls.nodes, ls.plen, ls.pos, ls.shift = b.nodes, b.plen, posB, shift
	ls.offs, ls.pool = ls.offs[:1<<(64-shift)+1], ls.pool[:b.n]
	clear(ls.offs)
	for j := 0; j < b.n; j++ {
		ls.offs[ls.bucket(j)+1]++
	}
	ls.prefixSum()
	for j := 0; j < b.n; j++ {
		ls.put(int32(ls.bucket(j)), int32(j))
	}
	ls.rewind()
	ls.nodes, ls.plen, ls.pos = a.nodes, a.plen, posA
}

// transpose returns the reverse direction of ls over n target vertices: row
// j lists, ascending, every row of ls that contains j.
func transpose(ls linkSet, n int) linkSet {
	t := counting(n, ls.pool)
	for i := 0; i+1 < len(ls.offs); i++ {
		for _, j := range ls.row(i) {
			t.put(j, int32(i))
		}
	}
	t.rewind()
	return t
}

// NumPartitions returns k.
func (kg *Graph) NumPartitions() int { return len(kg.parts) }

// NumCandidates returns the number of candidate vertices (alive or dead) in
// partition p.
func (kg *Graph) NumCandidates(p int) int { return kg.parts[p].n }

// AliveCount returns the number of surviving vertices in partition p.
func (kg *Graph) AliveCount(p int) int { return kg.parts[p].nAlive }

// Alive reports whether vertex i of partition p survives.
func (kg *Graph) Alive(p, i int) bool { return kg.parts[p].alive[i] }

// Row returns the entity nodes of candidate i of partition p, aligned with
// the partition path's positions — a view into the flat candidate arena
// that must not be modified.
func (kg *Graph) Row(p, i int) []entity.ID {
	part := kg.parts[p]
	return part.nodes[i*part.plen : (i+1)*part.plen]
}

// Factors returns the probability factors Build looked up for candidate i of
// partition p, aligned with Row: lab[pos] is the label probability of the
// node at pos under its query node's label, edge[pos] the probability of the
// edge between the nodes at pos and pos+1 under the query labels (0 when GU
// has no such edge). Views into the partition's columns; not to be modified.
func (kg *Graph) Factors(p, i int) (lab, edge []float64) {
	part := kg.parts[p]
	return part.lab[i*part.plen : (i+1)*part.plen], part.edge[i*part.elen : (i+1)*part.elen]
}

// Links returns the vertices of partition j linked to vertex i of partition
// p (including dead ones; filter with Alive), ascending. Nil when j ∉ J(p).
// A walked graph has no links: its rows are read by key, through Walk. The
// returned slice is a view into the shared edge pool and must not be
// modified.
func (kg *Graph) Links(p, i, j int) []int32 { return kg.links[p][j].row(i) }

// NumLinks returns the number of join-candidate links stored (each linked
// pair counted once) — the executor's observed size for the build stage; 0
// on a walked graph.
func (kg *Graph) NumLinks() int {
	total := 0
	for p := range kg.links {
		for j := range kg.links[p] {
			total += len(kg.links[p][j].pool) // each link, in both directions
		}
	}
	return total / 2
}

// SearchSpace returns the product of alive-vertex counts across partitions.
func (kg *Graph) SearchSpace() float64 {
	ss := 1.0
	for _, part := range kg.parts {
		ss *= float64(part.nAlive)
	}
	return ss
}

// Reduce runs the joint search space reduction to fixpoint: structure first,
// then upperbound message passing interleaved with structure until no vertex
// dies and no perception entry decreases.
func (kg *Graph) Reduce(ctx context.Context, workers int) (Stats, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	st := Stats{SSBefore: kg.SearchSpace()}
	kg.vecReady = false
	work := kg.reduceStructure(nil)
	st.SSAfterStructure = kg.SearchSpace()

	kg.initVectors()
	changedBuf := make([]bool, len(kg.parts))
	for {
		if err := ctx.Err(); err != nil {
			return st, err
		}
		st.Rounds++
		changed := kg.passUpperbounds(workers, changedBuf)
		killed := kg.pruneByBound()
		if killed > 0 {
			work = kg.reduceStructure(work)
		}
		if !changed && killed == 0 {
			break
		}
		if st.Rounds > 10000 {
			break // safety valve; convergence is monotone so this is unreachable
		}
	}
	st.SSAfterUpperbound = kg.SearchSpace()
	return st, nil
}

// reduceStructure kills vertices lacking a link into some required partition
// until fixpoint, propagating removals with a worklist of (partition,
// vertex) pairs. A vertex enters the list when it dies, so a list sized from
// the alive total never grows: pass nil to have it allocated, and the
// returned (empty) list to the later rounds of the same reduction.
func (kg *Graph) reduceStructure(work [][2]int32) [][2]int32 {
	if kg.IsWalked() {
		panic("kpartite: reduction over a walked graph")
	}
	if work == nil {
		total := 0
		for _, part := range kg.parts {
			total += part.nAlive
		}
		work = make([][2]int32, 0, total)
	}
	for p, part := range kg.parts {
		req := kg.joined[p]
		for i := range part.alive {
			if part.alive[i] && !kg.hasAllLinks(p, i, req) {
				part.alive[i] = false
				part.nAlive--
				work = append(work, [2]int32{int32(p), int32(i)})
			}
		}
	}
	for len(work) > 0 {
		p, i := int(work[len(work)-1][0]), int(work[len(work)-1][1])
		work = work[:len(work)-1]
		// Neighbors of the dead vertex may have lost their last link.
		for j := range kg.links[p] {
			lj := &kg.links[p][j]
			if lj.offs == nil {
				continue
			}
			reqJ := kg.joined[j]
			for _, u := range lj.row(i) {
				if !kg.parts[j].alive[u] {
					continue
				}
				if !kg.hasAllLinks(j, int(u), reqJ) {
					kg.parts[j].alive[u] = false
					kg.parts[j].nAlive--
					work = append(work, [2]int32{int32(j), u})
				}
			}
		}
	}
	return work
}

func (kg *Graph) hasAllLinks(p, i int, req []int) bool {
	for _, j := range req {
		found := false
		for _, u := range kg.links[p][j].row(i) {
			if kg.parts[j].alive[u] {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// initVectors sets every alive vertex's perception vector: w1 at its own
// partition, 1 elsewhere. The flat vector arenas (one live buffer and one
// BSP write buffer per partition) are allocated here, once per reduction.
func (kg *Graph) initVectors() {
	k := len(kg.parts)
	for p, part := range kg.parts {
		if len(part.vec) != part.n*k {
			part.vec = make([]float64, part.n*k)
			part.nextVec = make([]float64, part.n*k)
			part.vecSet = make([]bool, part.n)
		}
		for i := 0; i < part.n; i++ {
			part.vecSet[i] = part.alive[i]
			if !part.alive[i] {
				continue
			}
			row := part.vec[i*k : (i+1)*k]
			for q := range row {
				row[q] = 1
			}
			row[p] = part.w1[i]
		}
	}
	kg.vecReady = true
}

// passUpperbounds performs one bulk-synchronous message-passing round with
// one worker per partition (bounded by workers; inline, with no goroutine,
// when there is one worker or one partition), reporting whether any
// perception entry decreased. Workers read every partition's live vector
// buffer and write only their own partition's back buffer; the buffers are
// swapped at the barrier.
func (kg *Graph) passUpperbounds(workers int, changed []bool) bool {
	k := len(kg.parts)
	if workers <= 1 || k <= 1 {
		for p := 0; p < k; p++ {
			changed[p] = kg.updatePartition(p)
		}
	} else {
		sem := make(chan struct{}, workers)
		var wg sync.WaitGroup
		for p := 0; p < k; p++ {
			wg.Add(1)
			sem <- struct{}{}
			go func(p int) {
				defer wg.Done()
				defer func() { <-sem }()
				changed[p] = kg.updatePartition(p)
			}(p)
		}
		wg.Wait()
	}
	any := false
	for p := 0; p < k; p++ {
		if changed[p] {
			any = true
		}
		part := kg.parts[p]
		part.vec, part.nextVec = part.nextVec, part.vec
	}
	return any
}

// updatePartition computes the next perception vectors for partition p from
// the current snapshot: entry q becomes min over joined partitions P2 of the
// max over alive neighbors in P2 of their entry q (monotonically clamped).
func (kg *Graph) updatePartition(p int) bool {
	part := kg.parts[p]
	copy(part.nextVec, part.vec)
	req := kg.joined[p]
	if len(req) == 0 {
		return false
	}
	k := len(kg.parts)
	changed := false
	for i := 0; i < part.n; i++ {
		if !part.alive[i] {
			continue
		}
		cur := part.vec[i*k : (i+1)*k]
		next := part.nextVec[i*k : (i+1)*k]
		for q := 0; q < k; q++ {
			if q == p {
				continue
			}
			val := cur[q]
			for _, j := range req {
				pj := kg.parts[j]
				maxN := 0.0
				for _, u := range kg.links[p][j].row(i) {
					if !pj.alive[u] {
						continue
					}
					if vu := pj.vec[int(u)*k+q]; vu > maxN {
						maxN = vu
					}
				}
				if maxN < val {
					val = maxN
				}
			}
			if val < cur[q]-1e-15 {
				next[q] = val
				changed = true
			}
		}
	}
	return changed
}

// pruneByBound kills vertices whose upperbound w2 · ∏ vec prob.MayClear
// rejects at α, returning the number killed. w2 is Prn over the row in
// position order, which may differ in the last bits from the Prn a match
// multiplies in node order; the floor's slack covers that.
func (kg *Graph) pruneByBound() int {
	killed := 0
	k := len(kg.parts)
	for _, part := range kg.parts {
		for i := 0; i < part.n; i++ {
			if !part.alive[i] {
				continue
			}
			bound := part.w2[i]
			for _, v := range part.vec[i*k : (i+1)*k] {
				bound *= v
			}
			if bound < kg.floor {
				part.alive[i] = false
				part.nAlive--
				killed++
			}
		}
	}
	return killed
}
