// Package entity implements the Probabilistic Entity Graph (PEG) of
// Definition 2 and the derived certain graph GU of Section 4 that all query
// algorithms operate on.
//
// Build transforms a reference-level PGD into entity-level nodes (one per
// reference set, singletons included), merging label distributions and edge
// existence probabilities with the PGD's merge functions, and precomputing
// the identity components of the Markov network together with their legal
// configuration distributions (the offline "component probabilities" step of
// Section 5.1). A legal configuration is an exact cover of a component's
// references by its member entities; Build lists the covers directly, so its
// cost follows the number of configurations, not 2^members.
//
// Match probabilities decompose as Pr(M) = Prn(M) · Prle(M) (Eq. 11): Prn is
// the identity-existence marginal computed per connected component, Prle the
// decomposable product of node label and edge existence probabilities.
package entity

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"sync/atomic"

	"repro/internal/prob"
	"repro/internal/refgraph"
)

// ID identifies an entity node in the PEG / GU.
type ID int32

// Semantics selects how identity components are scored. See DESIGN.md
// ("Semantics note"): the paper's Definition 2 factors cannot reproduce its
// own Section 2 example, so both readings are implemented.
type Semantics uint8

const (
	// SemanticsExample (default) weights a legal component configuration by
	// ∏ p_s over existing non-singleton sets times ∏ (1−p_s) over absent
	// ones, normalized per component. This reproduces the Section 2 worked
	// example (Pr(merged)=0.8, Pr(unmerged)=0.2).
	SemanticsExample Semantics = iota
	// SemanticsFactor is the literal Definition 2 node-existence factor
	// product: each reference contributes fN over its containing sets,
	// valued p_s(T) of the unique existing set. Singleton priors default to
	// 1 and may be set via PGD.SetSingletonPrior.
	SemanticsFactor
)

// Neighbor is one adjacency entry of GU, 16 bytes: the neighbour and the
// merged existence distribution of the edge to it — the edge existence factor
// of Eq. 3 inline, or, when the underlying reference edges carry CPTs, the
// index of its label-conditioned form (Eq. 9) in the graph's CPT table, which
// Graph.PrEdge reads.
type Neighbor struct {
	To   ID
	cpt  int32 // CPT index; -1 when unconditional
	base float64
}

// Base returns the unconditional (base) probability.
func (nb Neighbor) Base() float64 { return nb.base }

// Conditional reports whether the edge probability depends on endpoint
// labels (Section 5.3 correlations).
func (nb Neighbor) Conditional() bool { return nb.cpt >= 0 }

// Config is one legal configuration of an identity component: Mask has bit
// i set iff the component's i-th member entity exists.
type Config struct {
	Mask uint64
	P    float64
}

// span is the half-open range of one row in a pooled column.
type span struct{ lo, hi int32 }

// Graph is the probabilistic entity graph (both the PEG and its certain
// skeleton GU), stored as columns indexed by entity id: no entity, edge or
// single-member component is a heap object of its own (DESIGN.md, "PEG
// memory layout"). It is immutable once returned, so all read methods are
// safe for concurrent use; marginal memoization is internally synchronized.
type Graph struct {
	alpha *prob.Alphabet
	sem   Semantics
	nl    int // |Σ|: the row length of labelP and the side of a CPT

	// Adjacency: row v is adj[adjRow[v].lo:adjRow[v].hi], sorted by
	// neighbour id. Build lays the rows out back to back in id order;
	// ApplyDelta writes each row it changes past the end of adj and repoints
	// adjRow, so graphs along a delta chain share one adj array.
	// cpts holds nl×nl probabilities per conditional edge, row-major,
	// shared by the edge's two directions.
	adjRow []span
	adj    []Neighbor
	cpts   []float64

	// labelP[v·nl+l] = Pr(v.l = l), the node label factor of Eq. 2; bit
	// v&63 of labelBits[(v>>6)·nl+l] is set iff that probability is positive.
	labelP    []float64
	labelBits []uint64

	// Entity v's member references are refs[refOff[v]:refOff[v+1]], sorted;
	// set[v] is its PGD set id, -1 for a singleton. entRow/ents is the
	// inverse: the entities containing reference r, ascending, laid out
	// like the adjacency.
	refOff []int32
	refs   []refgraph.RefID
	set    []refgraph.SetID
	entRow []span
	ents   []ID

	// Identity: comp[v] is v's component, compPos[v] its bit within it and
	// exist[v] = Pr(v.n = T). compHead[c] ≥ 0 names the only member of a
	// component whose single configuration is "it exists"; otherwise
	// ^compHead[c] indexes multi, the table of all other components.
	exist    []float64
	comp     []int32
	compPos  []uint8
	compHead []int32
	multi    []*Component

	// derived is set by the first ApplyDelta from this graph: that one may
	// append to the shared columns in place, a later one copies them.
	derived atomic.Bool
}

// BuildOptions configures Build.
type BuildOptions struct {
	// Semantics selects the identity scoring; default SemanticsExample.
	Semantics Semantics
}

// Build constructs the PEG from a PGD. The PGD is validated first.
func Build(d *refgraph.PGD, opt BuildOptions) (*Graph, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	merge := d.Merge()
	nRefs, nSets := d.NumRefs(), d.NumSets()
	g := newGraph(d.Alphabet(), opt.Semantics, nRefs+nSets)

	// Entities: singleton per reference first, then one per explicit set.
	for r := 0; r < nRefs; r++ {
		g.addEntity([]refgraph.RefID{refgraph.RefID(r)}, d.RefLabel(refgraph.RefID(r)), -1)
	}
	for i := 0; i < nSets; i++ {
		g.addEntity(setEntity(d, merge, refgraph.SetID(i)))
	}
	g.indexLabels(0)
	g.indexRefs(nRefs)

	g.buildEdges(d, merge)
	all := make([]ID, g.NumNodes())
	for i := range all {
		all[i] = ID(i)
	}
	g.compHead = make([]int32, 0, len(all))
	if err := g.addComponents(d, all); err != nil {
		return nil, err
	}
	return g, nil
}

// newGraph returns an empty graph with room for n entities.
func newGraph(alpha *prob.Alphabet, sem Semantics, n int) *Graph {
	nl := alpha.Len()
	return &Graph{
		alpha: alpha, sem: sem, nl: nl,
		adjRow:  make([]span, 0, n),
		labelP:  make([]float64, 0, n*nl),
		refOff:  append(make([]int32, 0, n+1), 0),
		refs:    make([]refgraph.RefID, 0, n),
		set:     make([]refgraph.SetID, 0, n),
		exist:   make([]float64, 0, n),
		comp:    make([]int32, 0, n),
		compPos: make([]uint8, 0, n),
	}
}

// setEntity returns the member references, merged label distribution and id
// of PGD set sid: addEntity's arguments.
func setEntity(d *refgraph.PGD, merge prob.MergeFuncs, sid refgraph.SetID) ([]refgraph.RefID, prob.Dist, refgraph.SetID) {
	s := d.Set(sid)
	dists := make([]prob.Dist, len(s.Members))
	for j, m := range s.Members {
		dists[j] = d.RefLabel(m)
	}
	return s.Members, merge.Labels(dists), sid
}

// addEntity appends one row to every per-entity column: an entity without
// edges whose identity columns addComponents fills in.
func (g *Graph) addEntity(refs []refgraph.RefID, label prob.Dist, set refgraph.SetID) ID {
	id := ID(len(g.set))
	for l := 0; l < g.nl; l++ {
		g.labelP = append(g.labelP, label.P(prob.LabelID(l)))
	}
	g.refs = append(g.refs, refs...)
	g.refOff = append(g.refOff, int32(len(g.refs)))
	g.set = append(g.set, set)
	g.adjRow = append(g.adjRow, span{})
	g.exist = append(g.exist, 0)
	g.comp = append(g.comp, 0)
	g.compPos = append(g.compPos, 0)
	return id
}

// indexLabels extends the HasLabel bitset — one word per 64 entities and
// label, n·|Σ|/8 bytes — to the entities from id `from` on; the words before
// them are copied.
func (g *Graph) indexLabels(from ID) {
	n := g.NumNodes()
	bits := make([]uint64, (n+63)/64*g.nl)
	copy(bits, g.labelBits)
	for v := int(from); v < n; v++ {
		for l, p := range g.LabelRow(ID(v)) {
			if p > 0 {
				bits[(v>>6)*g.nl+l] |= 1 << (uint(v) & 63)
			}
		}
	}
	g.labelBits = bits
}

// indexRefs builds the reference → entities table over nRefs references from
// the entities' reference lists, rows back to back.
func (g *Graph) indexRefs(nRefs int) {
	g.entRow = make([]span, nRefs)
	for _, r := range g.refs {
		g.entRow[r].hi++
	}
	g.ents = make([]ID, layOut(g.entRow))
	for v := 0; v < g.NumNodes(); v++ {
		for _, r := range g.Refs(ID(v)) {
			g.ents[g.entRow[r].hi] = ID(v)
			g.entRow[r].hi++
		}
	}
}

// layOut turns rows whose hi holds a row length into empty spans laid back to
// back, each to be filled by advancing its hi, and returns the total length.
func layOut(rows []span) int32 {
	at := int32(0)
	for i := range rows {
		n := rows[i].hi
		rows[i] = span{at, at}
		at += n
	}
	return at
}

// entsOf returns the entities containing reference r, ascending.
func (g *Graph) entsOf(r refgraph.RefID) []ID { return g.ents[g.entRow[r].lo:g.entRow[r].hi] }

// entPair is an unordered entity pair (a < b).
type entPair struct{ a, b ID }

func comparePairs(p, q entPair) int {
	if p.a != q.a {
		return int(p.a - q.a)
	}
	return int(p.b - q.b)
}

// mergeEdge merges the existence distributions of the reference edges
// between one entity pair into an adjacency entry, appending the merged CPT
// to g.cpts when any contribution is conditional. ok is false when the merged
// maximum is zero: Pr((s1,s2).e = T) = 0 is not a GU edge.
func (g *Graph) mergeEdge(merge prob.MergeFuncs, dists []refgraph.EdgeDist) (nb Neighbor, ok bool) {
	ps := make([]float64, len(dists))
	anyCPT := false
	for i, ed := range dists {
		ps[i] = ed.P
		anyCPT = anyCPT || ed.CPT != nil
	}
	nb = Neighbor{cpt: -1, base: merge.Edges(ps)}
	if !anyCPT {
		return nb, nb.base > 0
	}
	at := len(g.cpts)
	top := nb.base
	for l1 := 0; l1 < g.nl; l1++ {
		for l2 := 0; l2 < g.nl; l2++ {
			for i, ed := range dists {
				ps[i] = ed.Prob(prob.LabelID(l1), prob.LabelID(l2), g.nl)
			}
			p := merge.Edges(ps)
			g.cpts = append(g.cpts, p)
			if p > top {
				top = p
			}
		}
	}
	if top <= 0 {
		g.cpts = g.cpts[:at]
		return nb, false
	}
	nb.cpt = int32(at / (g.nl * g.nl))
	return nb, true
}

func (g *Graph) buildEdges(d *refgraph.PGD, merge prob.MergeFuncs) {
	// Iterate reference edges in canonical key order, not map order: when
	// several reference edges contribute to one entity pair, the merge
	// function sees them in a fixed sequence, so two PGDs holding the same
	// edges — however they were assembled — build bitwise-identical merged
	// probabilities.
	type keyedEdge struct {
		k refgraph.EdgeKey
		e refgraph.EdgeDist
	}
	edges := make([]keyedEdge, 0, d.NumEdges())
	d.Edges(func(k refgraph.EdgeKey, e refgraph.EdgeDist) bool {
		edges = append(edges, keyedEdge{k, e})
		return true
	})
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].k.A != edges[j].k.A {
			return edges[i].k.A < edges[j].k.A
		}
		return edges[i].k.B < edges[j].k.B
	})
	acc := make(map[entPair][]refgraph.EdgeDist, len(edges))
	for _, ke := range edges {
		for _, ea := range g.entsOf(ke.k.A) {
			for _, eb := range g.entsOf(ke.k.B) {
				// ea == eb would be a self loop on a merged entity, and two
				// entities sharing a reference can never coexist.
				if ea == eb || g.RefsOverlap(ea, eb) {
					continue
				}
				p := entPair{min(ea, eb), max(ea, eb)}
				acc[p] = append(acc[p], ke.e)
			}
		}
	}

	pairs := make([]entPair, 0, len(acc))
	for p := range acc {
		pairs = append(pairs, p)
	}
	slices.SortFunc(pairs, comparePairs)
	nbs := make([]Neighbor, len(pairs))
	for i, p := range pairs {
		nb, ok := g.mergeEdge(merge, acc[p])
		if !ok {
			pairs[i].a = -1
			continue
		}
		nbs[i] = nb
		g.adjRow[p.a].hi++
		g.adjRow[p.b].hi++
	}
	g.fillAdjacency(pairs, nbs)
}

// fillAdjacency lays the adjacency rows out back to back, adjRow[v].hi
// holding v's degree on entry: pair i, unless its a is negative, becomes
// entry nbs[i] of both its rows. Pairs must come in (a, b) order, which puts
// every row's entries in neighbour order: row v first receives its
// neighbours below v, ascending, from the pairs (·, v), then those above it
// from the pairs (v, ·).
func (g *Graph) fillAdjacency(pairs []entPair, nbs []Neighbor) {
	g.adj = make([]Neighbor, layOut(g.adjRow))
	put := func(v, to ID, nb Neighbor) {
		nb.To = to
		g.adj[g.adjRow[v].hi] = nb
		g.adjRow[v].hi++
	}
	for i, p := range pairs {
		if p.a >= 0 {
			put(p.a, p.b, nbs[i])
			put(p.b, p.a, nbs[i])
		}
	}
}

// addComponents groups ents — sorted, and closed under sharing a reference —
// into identity components, appends them to the component columns in order
// of first member and fills in their members' comp, compPos and exist.
func (g *Graph) addComponents(d *refgraph.PGD, ents []ID) error {
	for _, members := range g.groupByRefs(ents) {
		ci := int32(len(g.compHead))
		if len(members) == 1 {
			// Trivial component: the singleton of a reference that belongs
			// to no explicit set always exists.
			m := members[0]
			g.compHead = append(g.compHead, int32(m))
			g.comp[m], g.compPos[m], g.exist[m] = ci, 0, 1
			continue
		}
		if len(members) > 64 {
			return fmt.Errorf("entity: identity component of %d entities from entity %d exceeds the 64-entity limit", len(members), members[0])
		}
		cfgs, err := g.enumerateComponent(d, members)
		if err != nil {
			return err
		}
		c := &Component{Members: members, Configs: cfgs}
		g.compHead = append(g.compHead, ^int32(len(g.multi)))
		g.multi = append(g.multi, c)
		for pos, m := range members {
			g.comp[m], g.compPos[m], g.exist[m] = ci, uint8(pos), c.marginal(uint64(1)<<pos)
		}
	}
	return nil
}

// groupByRefs partitions ents (sorted, closed under sharing a reference)
// into the classes of "shares a reference with", transitively: groups in
// order of first member, members ascending.
func (g *Graph) groupByRefs(ents []ID) [][]ID {
	parent := make([]int32, len(ents))
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for i, e := range ents {
		for _, r := range g.Refs(e) {
			first, _ := slices.BinarySearch(ents, g.entsOf(r)[0])
			if ra, rb := find(int32(i)), find(int32(first)); ra != rb {
				parent[ra] = rb
			}
		}
	}
	group := make([]int32, len(ents)) // by root: 1 + its class's index in out
	var out [][]ID
	for i, e := range ents {
		r := find(int32(i))
		if group[r] == 0 {
			out = append(out, nil)
			group[r] = int32(len(out))
		}
		out[group[r]-1] = append(out[group[r]-1], e)
	}
	return out
}

// maxConfigs bounds the legal configurations of one identity component: a
// component with more fails the build rather than hold them all.
const maxConfigs = 1 << 22

// enumerateComponent lists and weights the legal configurations of one
// identity component under the graph's semantics. A legal configuration is
// an exact cover of the component's references by its members: every
// reference lies in exactly one existing member. Algorithm X finds them,
// branching at the lowest uncovered reference over the members that hold it
// and share no reference with those already chosen, so the cost is
// proportional to the number of configurations.
//
// A weight multiplies the factors of Eq. 7 in a fixed order: under
// SemanticsExample p or 1 − p for each non-singleton member in member
// order, under SemanticsFactor the prior of the member covering each
// reference in reference-id order. Zero weights are dropped, and the rest
// are normalized by their sum taken in ascending mask order.
func (g *Graph) enumerateComponent(d *refgraph.PGD, members []ID) ([]Config, error) {
	if g.sem != SemanticsExample && g.sem != SemanticsFactor {
		return nil, fmt.Errorf("entity: unknown semantics %d", g.sem)
	}
	// Number the component's references in id order. Each one's singleton
	// is a member, so there are at most 64 and a set of them fits a word.
	var refs []refgraph.RefID
	for _, m := range members {
		refs = append(refs, g.Refs(m)...)
	}
	slices.Sort(refs)
	refs = slices.Compact(refs)
	// holds[pos] is the references of member pos, cover[i] the members
	// holding reference i, clash[pos] the members sharing a reference with
	// member pos, itself included, and prior[pos] its p_s.
	holds := make([]uint64, len(members))
	clash := make([]uint64, len(members))
	prior := make([]float64, len(members))
	cover := make([]uint64, len(refs))
	for pos, m := range members {
		for _, r := range g.Refs(m) {
			i, _ := slices.BinarySearch(refs, r)
			holds[pos] |= 1 << i
			cover[i] |= 1 << pos
		}
		if g.set[m] >= 0 {
			prior[pos] = d.Set(g.set[m]).P
		} else {
			prior[pos] = d.SingletonPrior(g.Refs(m)[0])
		}
	}
	for pos, h := range holds {
		for ; h != 0; h &= h - 1 {
			clash[pos] |= cover[bits.TrailingZeros64(h)]
		}
	}

	// covers hands visit every exact cover that extends chosen, until visit
	// returns false. The lowest uncovered reference's singleton is never
	// banned, so every branch ends in a cover.
	all := uint64(1)<<len(refs) - 1
	var covers func(chosen, banned, covered uint64, visit func(uint64) bool) bool
	covers = func(chosen, banned, covered uint64, visit func(uint64) bool) bool {
		if covered == all {
			return visit(chosen)
		}
		for opts := cover[bits.TrailingZeros64(^covered)] &^ banned; opts != 0; opts &= opts - 1 {
			pos := bits.TrailingZeros64(opts)
			if !covers(chosen|1<<pos, banned|clash[pos], covered|holds[pos], visit) {
				return false
			}
		}
		return true
	}
	// Count first: a component past the bound fails without holding its
	// configurations, and the list below is allocated once.
	n := 0
	if !covers(0, 0, 0, func(uint64) bool { n++; return n <= maxConfigs }) {
		return nil, fmt.Errorf("entity: identity component of %d entities from entity %d has more than %d legal configurations",
			len(members), members[0], maxConfigs)
	}
	cfgs := make([]Config, 0, n)
	covers(0, 0, 0, func(mask uint64) bool {
		w := 1.0
		if g.sem == SemanticsExample {
			for pos, m := range members {
				if g.set[m] < 0 {
					continue
				}
				if mask>>pos&1 != 0 {
					w *= prior[pos]
				} else {
					w *= 1 - prior[pos]
				}
			}
		} else {
			for _, c := range cover {
				w *= prior[bits.TrailingZeros64(c&mask)]
			}
		}
		if w > 0 {
			cfgs = append(cfgs, Config{Mask: mask, P: w})
		}
		return true
	})
	slices.SortFunc(cfgs, func(a, b Config) int { return cmp.Compare(a.Mask, b.Mask) })
	z := 0.0
	for _, c := range cfgs {
		z += c.P
	}
	if z == 0 {
		return nil, fmt.Errorf("entity: identity component of %d entities from entity %d has no legal configuration of positive weight",
			len(members), members[0])
	}
	for i := range cfgs {
		cfgs[i].P /= z
	}
	return cfgs, nil
}
