package entity

import (
	"fmt"
	"slices"

	"repro/internal/prob"
	"repro/internal/refgraph"
)

// Delta describes a batch of PGD mutations to fold into an existing entity
// graph incrementally. Reference and set ids refer to the (already mutated)
// PGD handed to ApplyDelta; both id spaces are append-only, so ids recorded
// before the mutation stay valid.
type Delta struct {
	// NewRefs are references appended to the PGD since the graph was built.
	NewRefs []refgraph.RefID
	// Edges are reference edges added or overwritten.
	Edges []refgraph.EdgeKey
	// NewSets are reference sets appended to the PGD.
	NewSets []refgraph.SetID
	// SetProbs are pre-existing sets whose merge probability changed.
	SetProbs []refgraph.SetID
}

// Empty reports whether the delta carries no mutations.
func (dl Delta) Empty() bool {
	return len(dl.NewRefs) == 0 && len(dl.Edges) == 0 && len(dl.NewSets) == 0 && len(dl.SetProbs) == 0
}

// Merge appends the mutations of other onto dl (other happened after dl).
// A probability update on a set that dl already introduces stays a NewSets
// entry — the set's current probability is read from the PGD either way.
func (dl Delta) Merge(other Delta) Delta {
	out := Delta{
		NewRefs: append(append([]refgraph.RefID(nil), dl.NewRefs...), other.NewRefs...),
		Edges:   append(append([]refgraph.EdgeKey(nil), dl.Edges...), other.Edges...),
		NewSets: append(append([]refgraph.SetID(nil), dl.NewSets...), other.NewSets...),
	}
	isNew := make(map[refgraph.SetID]bool, len(out.NewSets))
	for _, s := range out.NewSets {
		isNew[s] = true
	}
	for _, s := range append(append([]refgraph.SetID(nil), dl.SetProbs...), other.SetProbs...) {
		if !isNew[s] {
			out.SetProbs = append(out.SetProbs, s)
		}
	}
	return out
}

// ApplyDelta produces a new entity graph reflecting the mutated PGD without
// rebuilding it from scratch: new entities are appended (existing entity ids
// are stable), entity edges are recomputed only for pairs whose contributing
// reference edges changed, and identity components are re-enumerated only
// where the mutation touched them — the incremental counterpart of the
// offline "component probabilities" step of Section 5.1. Columns the batch
// does not touch, untouched components (including their marginal memos) and
// every unchanged adjacency row are shared with the old graph, which stays
// fully usable for concurrent readers.
//
// The second result lists the dirty entities: every entity whose label/edge
// surroundings or identity marginals may differ from the old graph, plus all
// new entities. Paths avoiding every dirty entity score identically in both
// graphs. The new graph keeps old's semantics.
func ApplyDelta(old *Graph, d *refgraph.PGD, dl Delta) (*Graph, []ID, error) {
	if old.alpha != d.Alphabet() {
		return nil, nil, fmt.Errorf("entity: delta PGD has a different alphabet")
	}
	for _, r := range dl.NewRefs {
		if r < 0 || int(r) >= d.NumRefs() {
			return nil, nil, fmt.Errorf("entity: delta references unknown reference %d", r)
		}
	}
	for _, sid := range dl.NewSets {
		if sid < 0 || int(sid) >= d.NumSets() {
			return nil, nil, fmt.Errorf("entity: delta references unknown set %d", sid)
		}
	}
	if len(old.entRow) > d.NumRefs() {
		return nil, nil, fmt.Errorf("entity: graph knows %d references, delta PGD has %d", len(old.entRow), d.NumRefs())
	}
	merge := d.Merge()
	ng := old.derive()
	// New entities take the ids from nOld on.
	nOld, nNew := old.NumNodes(), len(dl.NewRefs)+len(dl.NewSets)

	if nNew > 0 || len(dl.SetProbs) > 0 {
		ng.exist = append(make([]float64, 0, nOld+nNew), old.exist...)
		ng.comp = append(make([]int32, 0, nOld+nNew), old.comp...)
		ng.compPos = append(make([]uint8, 0, nOld+nNew), old.compPos...)
	}
	if nNew > 0 {
		ng.adjRow = append(make([]span, 0, nOld+nNew), old.adjRow...)
		ng.entRow = append(make([]span, 0, d.NumRefs()), old.entRow...)[:d.NumRefs()]
		for _, r := range dl.NewRefs {
			ng.linkEntity(ng.addEntity([]refgraph.RefID{r}, d.RefLabel(r), -1))
		}
		for _, sid := range dl.NewSets {
			ng.linkEntity(ng.addEntity(setEntity(d, merge, sid)))
		}
		ng.indexLabels(ID(nOld))
	}

	changed := ng.changedPairs(d, dl, ID(nOld))
	if nNew == 0 && len(changed) > 0 {
		ng.adjRow = slices.Clone(old.adjRow)
	}
	ng.rewriteRows(d, merge, changed)

	dirty, err := ng.recomputeComponents(old, d, dl)
	if err != nil {
		return nil, nil, err
	}
	for _, p := range changed {
		dirty = append(dirty, p.a, p.b)
	}
	slices.Sort(dirty)
	return ng, slices.Compact(dirty), nil
}

// tail returns col as the head of a column a derived graph appends to: as it
// is when the caller owns the spare capacity behind it, otherwise clipped so
// that an append — by this graph or by one derived from it — copies.
func tail[T any](col []T, own bool) []T {
	if own {
		return col
	}
	return slices.Clip(col)
}

// derive returns a graph that shares every column with old. Only the first
// graph derived from old may write behind the pooled columns' ends, where no
// reader of old looks; a second one (a batch retried after its first result
// was dropped, two branches off one base) gets clipped columns and copies on
// its first append.
func (old *Graph) derive() *Graph {
	own := old.derived.CompareAndSwap(false, true)
	return &Graph{
		alpha: old.alpha, sem: old.sem, nl: old.nl,
		adjRow: old.adjRow, adj: tail(old.adj, own), cpts: tail(old.cpts, own),
		labelP: tail(old.labelP, own), labelBits: old.labelBits,
		refOff: tail(old.refOff, own), refs: tail(old.refs, own), set: tail(old.set, own),
		entRow: old.entRow, ents: tail(old.ents, own),
		exist: old.exist, comp: old.comp, compPos: old.compPos, compHead: old.compHead, multi: old.multi,
	}
}

// linkEntity adds entity e — the newest — to the reference → entities rows
// of its member references, each rewritten behind the end of ents.
func (g *Graph) linkEntity(e ID) {
	for _, r := range g.Refs(e) {
		lo := int32(len(g.ents))
		g.ents = append(append(g.ents, g.entsOf(r)...), e)
		g.entRow[r] = span{lo, int32(len(g.ents))}
	}
}

// changedPairs collects, in (a, b) order, the entity pairs whose merged edge
// distribution may have changed: pairs spanning a mutated reference edge,
// plus every pair a new entity forms through the PGD edges incident to its
// member references.
func (g *Graph) changedPairs(d *refgraph.PGD, dl Delta, nOld ID) []entPair {
	var changed []entPair
	// cross pairs a's entities from id `from` on with all of b's.
	cross := func(a, b refgraph.RefID, from ID) {
		if a < 0 || b < 0 || int(a) >= len(g.entRow) || int(b) >= len(g.entRow) {
			return
		}
		for _, ea := range g.entsOf(a) {
			if ea < from {
				continue
			}
			for _, eb := range g.entsOf(b) {
				if ea != eb && !g.RefsOverlap(ea, eb) {
					changed = append(changed, entPair{min(ea, eb), max(ea, eb)})
				}
			}
		}
	}
	for _, ek := range dl.Edges {
		cross(ek.A, ek.B, 0)
	}
	// Only new set-entities can connect through pre-existing PGD edges (a
	// brand-new reference has none, and edges added in this batch are in
	// dl.Edges above), so the full edge scan is gated on them.
	if len(dl.NewSets) > 0 {
		d.Edges(func(k refgraph.EdgeKey, _ refgraph.EdgeDist) bool {
			cross(k.A, k.B, nOld)
			cross(k.B, k.A, nOld)
			return true
		})
	}
	slices.SortFunc(changed, comparePairs)
	return slices.Compact(changed)
}

// rewriteRows recomputes the merged edge of every changed pair — every PGD
// edge between the two entities' reference sets, in reference order — and
// writes each adjacency row that gains, loses or updates an entry behind the
// end of adj, leaving the rows the old graph reads untouched.
func (g *Graph) rewriteRows(d *refgraph.PGD, merge prob.MergeFuncs, changed []entPair) {
	type edit struct {
		v    ID
		nb   Neighbor
		keep bool // false: the pair has no GU edge (any more)
	}
	edits := make([]edit, 0, 2*len(changed))
	var dists []refgraph.EdgeDist
	for _, p := range changed {
		dists = dists[:0]
		for _, r1 := range g.Refs(p.a) {
			for _, r2 := range g.Refs(p.b) {
				if e, ok := d.Edge(r1, r2); ok {
					dists = append(dists, e)
				}
			}
		}
		var nb Neighbor
		keep := false
		if len(dists) > 0 {
			nb, keep = g.mergeEdge(merge, dists)
		}
		nb.To = p.b
		edits = append(edits, edit{p.a, nb, keep})
		nb.To = p.a
		edits = append(edits, edit{p.b, nb, keep})
	}
	slices.SortFunc(edits, func(x, y edit) int { return comparePairs(entPair{x.v, x.nb.To}, entPair{y.v, y.nb.To}) })
	for len(edits) > 0 {
		v := edits[0].v
		row := g.Neighbors(v)
		lo := int32(len(g.adj))
		for len(edits) > 0 && edits[0].v == v {
			e := edits[0]
			edits = edits[1:]
			for len(row) > 0 && row[0].To < e.nb.To {
				g.adj = append(g.adj, row[0])
				row = row[1:]
			}
			if len(row) > 0 && row[0].To == e.nb.To {
				row = row[1:]
			}
			if e.keep {
				g.adj = append(g.adj, e.nb)
			}
		}
		g.adj = append(g.adj, row...)
		g.adjRow[v] = span{lo, int32(len(g.adj))}
	}
}

// recomputeComponents dissolves every identity component the delta touches,
// regroups the affected entities by shared references, and re-enumerates the
// legal configurations of only those groups. Untouched components are shared
// with the old graph (keeping their memoized marginals) and renumbered in
// their old order, the regrouped ones follow. Returns the entities whose
// identity marginals were recomputed.
func (ng *Graph) recomputeComponents(old *Graph, d *refgraph.PGD, dl Delta) ([]ID, error) {
	nOld, n := ID(old.NumNodes()), ID(ng.NumNodes())
	var dissolve []int32
	for _, sid := range dl.SetProbs {
		e, ok := ng.entityOfSet(d, sid)
		if !ok {
			return nil, fmt.Errorf("entity: delta updates set %d with no entity", sid)
		}
		if e < nOld {
			dissolve = append(dissolve, old.comp[e])
		}
	}
	// A new entity drags every old entity it shares a reference with — and
	// transitively that entity's whole component — into the recompute set.
	for e := nOld; e < n; e++ {
		for _, r := range ng.Refs(e) {
			for _, o := range ng.entsOf(r) {
				if o < nOld {
					dissolve = append(dissolve, old.comp[o])
				}
			}
		}
	}
	if len(dissolve) == 0 && n == nOld {
		return nil, nil
	}
	slices.Sort(dissolve)
	dissolve = slices.Compact(dissolve)

	// Keep every untouched component, sharing the pointer (and its memo).
	var affected []ID
	ng.compHead = make([]int32, 0, len(old.compHead)+int(n-nOld))
	ng.multi = make([]*Component, 0, len(old.multi))
	for ci, h := range old.compHead {
		var c *Component
		one := [1]ID{ID(h)}
		members := one[:]
		if h < 0 {
			c = old.multi[^h]
			members = c.Members
		}
		if len(dissolve) > 0 && dissolve[0] == int32(ci) {
			dissolve = dissolve[1:]
			affected = append(affected, members...)
			continue
		}
		for _, m := range members {
			ng.comp[m] = int32(len(ng.compHead))
		}
		if c != nil {
			h = ^int32(len(ng.multi))
			ng.multi = append(ng.multi, c)
		}
		ng.compHead = append(ng.compHead, h)
	}
	slices.Sort(affected)
	for e := nOld; e < n; e++ {
		affected = append(affected, e)
	}
	return affected, ng.addComponents(d, affected)
}

// entityOfSet finds the entity of PGD set sid among those containing the
// set's first member.
func (g *Graph) entityOfSet(d *refgraph.PGD, sid refgraph.SetID) (ID, bool) {
	if sid < 0 || int(sid) >= d.NumSets() {
		return 0, false
	}
	if r := d.Set(sid).Members[0]; int(r) < len(g.entRow) {
		for _, e := range g.entsOf(r) {
			if g.set[e] == sid {
				return e, true
			}
		}
	}
	return 0, false
}
