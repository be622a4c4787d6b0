package entity

import (
	"fmt"
	"sort"

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
// offline "component probabilities" step of Section 5.1. Untouched
// components (including their marginal memos) and adjacency rows are shared
// with the old graph, which stays fully usable for concurrent readers.
//
// The second result lists the dirty entities: every entity whose label/edge
// surroundings or identity marginals may differ from the old graph, plus all
// new entities. Paths avoiding every dirty entity score identically in both
// graphs.
func ApplyDelta(old *Graph, d *refgraph.PGD, dl Delta, opt BuildOptions) (*Graph, []ID, error) {
	if old.alpha != d.Alphabet() {
		return nil, nil, fmt.Errorf("entity: delta PGD has a different alphabet")
	}
	merge := d.Merge()
	nLabels := old.alpha.Len()

	ng := &Graph{alpha: old.alpha, sem: old.sem}
	ng.nodes = make([]Node, len(old.nodes), len(old.nodes)+len(dl.NewRefs)+len(dl.NewSets))
	copy(ng.nodes, old.nodes)

	var newEnts []ID
	for _, r := range dl.NewRefs {
		if r < 0 || int(r) >= d.NumRefs() {
			return nil, nil, fmt.Errorf("entity: delta references unknown reference %d", r)
		}
		ng.nodes = append(ng.nodes, Node{Refs: []refgraph.RefID{r}, Label: d.RefLabel(r), Set: -1})
		newEnts = append(newEnts, ID(len(ng.nodes)-1))
	}
	for _, sid := range dl.NewSets {
		if sid < 0 || int(sid) >= d.NumSets() {
			return nil, nil, fmt.Errorf("entity: delta references unknown set %d", sid)
		}
		s := d.Set(sid)
		dists := make([]prob.Dist, len(s.Members))
		for j, m := range s.Members {
			dists[j] = d.RefLabel(m)
		}
		ng.nodes = append(ng.nodes, Node{Refs: s.Members, Label: merge.Labels(dists), Set: sid})
		newEnts = append(newEnts, ID(len(ng.nodes)-1))
	}

	ng.maxRef = maxNodeRef(old.maxRef, ng.nodes[len(old.nodes):])
	ng.indexLabels()

	refToEnts := make([][]ID, d.NumRefs())
	setEnt := make(map[refgraph.SetID]ID)
	for i := range ng.nodes {
		for _, r := range ng.nodes[i].Refs {
			if r < 0 || int(r) >= d.NumRefs() {
				return nil, nil, fmt.Errorf("entity: node %d references unknown reference %d", i, r)
			}
			refToEnts[r] = append(refToEnts[r], ID(i))
		}
		if s := ng.nodes[i].Set; s >= 0 {
			setEnt[s] = ID(i)
		}
	}

	changed := changedPairs(ng, d, dl, refToEnts, newEnts)
	ng.adj = make([][]Neighbor, len(ng.nodes))
	copy(ng.adj, old.adj)
	cloned := make(map[ID]bool, 2*len(changed))
	for p := range changed {
		ep := computePairEdge(d, merge, &ng.nodes[p.a], &ng.nodes[p.b], nLabels)
		setNeighbor(ng, cloned, p.a, p.b, ep)
		setNeighbor(ng, cloned, p.b, p.a, ep)
	}

	dirtyComps, err := recomputeComponents(old, ng, d, dl, refToEnts, setEnt, newEnts, opt)
	if err != nil {
		return nil, nil, err
	}

	dirty := make(map[ID]bool, len(newEnts)+2*len(changed))
	for _, e := range newEnts {
		dirty[e] = true
	}
	for p := range changed {
		dirty[p.a] = true
		dirty[p.b] = true
	}
	for _, e := range dirtyComps {
		dirty[e] = true
	}
	out := make([]ID, 0, len(dirty))
	for e := range dirty {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return ng, out, nil
}

// entPair is an unordered entity pair (a < b).
type entPair struct{ a, b ID }

// changedPairs collects the entity pairs whose merged edge distribution may
// have changed: pairs spanning a mutated reference edge, plus every pair a
// new entity forms through the PGD edges incident to its member references.
func changedPairs(ng *Graph, d *refgraph.PGD, dl Delta, refToEnts [][]ID, newEnts []ID) map[entPair]bool {
	changed := make(map[entPair]bool)
	add := func(a, b ID) {
		if a == b || ng.refsOverlapSlices(ng.nodes[a].Refs, ng.nodes[b].Refs) {
			return
		}
		if a > b {
			a, b = b, a
		}
		changed[entPair{a, b}] = true
	}
	for _, ek := range dl.Edges {
		if int(ek.A) >= len(refToEnts) || int(ek.B) >= len(refToEnts) || ek.A < 0 || ek.B < 0 {
			continue
		}
		for _, ea := range refToEnts[ek.A] {
			for _, eb := range refToEnts[ek.B] {
				add(ea, eb)
			}
		}
	}
	// Only new set-entities can connect through pre-existing PGD edges (a
	// brand-new reference has none, and edges added in this batch are in
	// dl.Edges above), so the full edge scan is gated on them.
	if len(dl.NewSets) > 0 {
		inNew := make(map[refgraph.RefID][]ID)
		for _, e := range newEnts {
			for _, r := range ng.nodes[e].Refs {
				inNew[r] = append(inNew[r], e)
			}
		}
		d.Edges(func(k refgraph.EdgeKey, _ refgraph.EdgeDist) bool {
			for _, e := range inNew[k.A] {
				for _, o := range refToEnts[k.B] {
					add(e, o)
				}
			}
			for _, e := range inNew[k.B] {
				for _, o := range refToEnts[k.A] {
					add(e, o)
				}
			}
			return true
		})
	}
	return changed
}

// computePairEdge merges the existence distributions of every PGD edge
// between the two entities' reference sets, mirroring buildEdges for one
// pair. Returns nil when no reference edge contributes or the merged maximum
// is zero (no GU edge).
func computePairEdge(d *refgraph.PGD, merge prob.MergeFuncs, n1, n2 *Node, nLabels int) *EdgeProb {
	var dists []refgraph.EdgeDist
	anyCPT := false
	for _, r1 := range n1.Refs {
		for _, r2 := range n2.Refs {
			if e, ok := d.Edge(r1, r2); ok {
				dists = append(dists, e)
				if e.CPT != nil {
					anyCPT = true
				}
			}
		}
	}
	if len(dists) == 0 {
		return nil
	}
	ep := &EdgeProb{stride: int32(nLabels)}
	ps := make([]float64, len(dists))
	for i, ed := range dists {
		ps[i] = ed.P
	}
	ep.base = merge.Edges(ps)
	if anyCPT {
		ep.cpt = make([]float64, nLabels*nLabels)
		cell := make([]float64, len(dists))
		for l1 := 0; l1 < nLabels; l1++ {
			for l2 := 0; l2 < nLabels; l2++ {
				for i, ed := range dists {
					cell[i] = ed.Prob(prob.LabelID(l1), prob.LabelID(l2), nLabels)
				}
				ep.cpt[l1*nLabels+l2] = merge.Edges(cell)
			}
		}
	}
	ep.max = ep.base
	for _, v := range ep.cpt {
		if v > ep.max {
			ep.max = v
		}
	}
	if ep.max <= 0 {
		return nil
	}
	return ep
}

// setNeighbor installs (or removes, when ep is nil) the edge v→to in ng's
// adjacency, cloning the row copy-on-write so the old graph's rows stay
// untouched.
func setNeighbor(ng *Graph, cloned map[ID]bool, v, to ID, ep *EdgeProb) {
	if !cloned[v] {
		ng.adj[v] = append([]Neighbor(nil), ng.adj[v]...)
		cloned[v] = true
	}
	row := ng.adj[v]
	i := sort.Search(len(row), func(i int) bool { return row[i].To >= to })
	present := i < len(row) && row[i].To == to
	switch {
	case ep == nil && present:
		ng.adj[v] = append(row[:i], row[i+1:]...)
	case ep == nil:
		// nothing to remove
	case present:
		row[i].E = ep
	default:
		row = append(row, Neighbor{})
		copy(row[i+1:], row[i:])
		row[i] = Neighbor{To: to, E: ep}
		ng.adj[v] = row
	}
}

// recomputeComponents dissolves every identity component the delta touches,
// regroups the affected entities by shared references, and re-enumerates the
// legal configurations of only those groups. Untouched components are shared
// with the old graph (keeping their memoized marginals); component indices
// are renumbered on the new graph's copied nodes. Returns the entities whose
// identity marginals were recomputed.
func recomputeComponents(old, ng *Graph, d *refgraph.PGD, dl Delta, refToEnts [][]ID, setEnt map[refgraph.SetID]ID, newEnts []ID, opt BuildOptions) ([]ID, error) {
	dissolve := make(map[int32]bool)
	affected := make(map[ID]bool)
	for _, e := range newEnts {
		affected[e] = true
	}
	for _, sid := range dl.SetProbs {
		e, ok := setEnt[sid]
		if !ok {
			return nil, fmt.Errorf("entity: delta updates set %d with no entity", sid)
		}
		if int(e) < len(old.nodes) {
			dissolve[old.nodes[e].Comp] = true
		}
	}
	// A new entity drags every old entity it shares a reference with — and
	// transitively that entity's whole component — into the recompute set.
	for _, e := range newEnts {
		for _, r := range ng.nodes[e].Refs {
			for _, o := range refToEnts[r] {
				if o != e && int(o) < len(old.nodes) {
					dissolve[old.nodes[o].Comp] = true
				}
			}
		}
	}
	for ci := range dissolve {
		for _, m := range old.comps[ci].Members {
			affected[m] = true
		}
	}

	// Keep every untouched component, sharing the pointer (and its memo).
	ng.comps = make([]*Component, 0, len(old.comps)+len(newEnts))
	for ci, c := range old.comps {
		if !dissolve[int32(ci)] {
			ng.comps = append(ng.comps, c)
		}
	}
	for ci, c := range ng.comps {
		for pos, m := range c.Members {
			ng.nodes[m].Comp = int32(ci)
			ng.nodes[m].CompPos = uint8(pos)
		}
	}
	if len(affected) == 0 {
		return nil, nil
	}

	// Regroup the affected entities by shared references (union-find).
	members := make([]ID, 0, len(affected))
	for e := range affected {
		members = append(members, e)
	}
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
	idx := make(map[ID]int32, len(members))
	for i, e := range members {
		idx[e] = int32(i)
	}
	parent := make([]int32, len(members))
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	byRef := make(map[refgraph.RefID]int32)
	for i, e := range members {
		for _, r := range ng.nodes[e].Refs {
			if j, ok := byRef[r]; ok {
				ra, rb := find(int32(i)), find(j)
				if ra != rb {
					parent[ra] = rb
				}
			} else {
				byRef[r] = int32(i)
			}
		}
	}
	groups := make(map[int32][]ID)
	for i, e := range members {
		r := find(int32(i))
		groups[r] = append(groups[r], e)
	}
	roots := make([]int32, 0, len(groups))
	for r := range groups {
		roots = append(roots, r)
	}
	sort.Slice(roots, func(i, j int) bool { return groups[roots[i]][0] < groups[roots[j]][0] })

	var recomputed []ID
	for _, root := range roots {
		ms := groups[root]
		if len(ms) > 64 {
			return nil, fmt.Errorf("entity: identity component with %d entities exceeds the 64-entity limit", len(ms))
		}
		ci := int32(len(ng.comps))
		comp := &Component{Members: ms}
		for pos, m := range ms {
			ng.nodes[m].Comp = ci
			ng.nodes[m].CompPos = uint8(pos)
		}
		if len(ms) == 1 {
			comp.Configs = []Config{{Mask: 1, P: 1}}
		} else {
			cfgs, err := ng.enumerateComponent(d, ms, opt)
			if err != nil {
				return nil, err
			}
			comp.Configs = cfgs
		}
		ng.comps = append(ng.comps, comp)
		for _, m := range ms {
			nd := &ng.nodes[m]
			nd.Exist = comp.MarginalAll(uint64(1) << nd.CompPos)
			recomputed = append(recomputed, m)
		}
	}
	return recomputed, nil
}
