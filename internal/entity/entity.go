// Package entity implements the Probabilistic Entity Graph (PEG) of
// Definition 2 and the derived certain graph GU of Section 4 that all query
// algorithms operate on.
//
// Build transforms a reference-level PGD into entity-level nodes (one per
// reference set, singletons included), merging label distributions and edge
// existence probabilities with the PGD's merge functions, and precomputing
// the identity components of the Markov network together with their legal
// configuration distributions (the offline "component probabilities" step of
// Section 5.1).
//
// Match probabilities decompose as Pr(M) = Prn(M) · Prle(M) (Eq. 11): Prn is
// the identity-existence marginal computed per connected component, Prle the
// decomposable product of node label and edge existence probabilities.
package entity

import (
	"fmt"
	"sort"

	"repro/internal/pgm"
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

// EdgeProb is the merged existence distribution of an entity edge: the edge
// existence factor of Eq. 3, or its label-conditioned form of Eq. 9 when the
// underlying reference edges carry CPTs.
type EdgeProb struct {
	base   float64
	cpt    []float64 // nil when unconditional; else |Σ|² row-major
	max    float64
	stride int32
}

// Prob returns the existence probability given the endpoint labels.
// For unconditional edges the labels are ignored.
func (e *EdgeProb) Prob(l1, l2 prob.LabelID) float64 {
	if e.cpt == nil {
		return e.base
	}
	return e.cpt[l1*prob.LabelID(e.stride)+l2]
}

// Max returns the largest existence probability over all label pairs. It is
// the bound used by GU edge inclusion and by the Section 5.3 variants of
// ppu/fpu.
func (e *EdgeProb) Max() float64 { return e.max }

// Conditional reports whether the edge probability depends on endpoint
// labels (Section 5.3 correlations).
func (e *EdgeProb) Conditional() bool { return e.cpt != nil }

// Base returns the unconditional (base) probability.
func (e *EdgeProb) Base() float64 { return e.base }

// Neighbor is one adjacency entry of GU.
type Neighbor struct {
	To ID
	E  *EdgeProb
}

// Node is one entity node: a reference set with merged label distribution.
type Node struct {
	Refs    []refgraph.RefID // sorted member references
	Label   prob.Dist        // merged label distribution (node label factor)
	Set     refgraph.SetID   // originating PGD set id; -1 for singletons
	Comp    int32            // identity component index
	CompPos uint8            // bit position within the component
	Exist   float64          // marginal existence probability Pr(v.n = T)
}

// Config is one legal configuration of an identity component: Mask has bit
// i set iff the component's i-th member entity exists.
type Config struct {
	Mask uint64
	P    float64
}

// Graph is the probabilistic entity graph (both the PEG and its certain
// skeleton GU). It is immutable after Build, so all read methods are safe
// for concurrent use; marginal memoization is internally synchronized.
type Graph struct {
	alpha *prob.Alphabet
	nodes []Node
	adj   [][]Neighbor
	comps []*Component
	sem   Semantics
	// maxRef is the largest reference id of any node (-1 without nodes),
	// recorded wherever nodes are created: Build, ApplyDelta, Load.
	maxRef refgraph.RefID
	// labelBits is one entity bitset per label, labelWords words each (see
	// HasLabel), built by indexLabels in the same three places.
	labelBits  []uint64
	labelWords int
}

// BuildOptions configures Build.
type BuildOptions struct {
	// Semantics selects the identity scoring; default SemanticsExample.
	Semantics Semantics
	// StateBudget caps per-component exact enumeration (0 = pgm default).
	StateBudget int
}

// Build constructs the PEG from a PGD. The PGD is validated first.
func Build(d *refgraph.PGD, opt BuildOptions) (*Graph, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	merge := d.Merge()
	nRefs := d.NumRefs()
	nSets := d.NumSets()
	nLabels := d.Alphabet().Len()

	g := &Graph{
		alpha: d.Alphabet(),
		nodes: make([]Node, 0, nRefs+nSets),
		sem:   opt.Semantics,
	}

	// Entities: singleton per reference first, then one per explicit set.
	refToEnts := make([][]ID, nRefs)
	for r := 0; r < nRefs; r++ {
		g.nodes = append(g.nodes, Node{
			Refs:  []refgraph.RefID{refgraph.RefID(r)},
			Label: d.RefLabel(refgraph.RefID(r)),
			Set:   -1,
		})
		refToEnts[r] = append(refToEnts[r], ID(r))
	}
	for i := 0; i < nSets; i++ {
		s := d.Set(refgraph.SetID(i))
		dists := make([]prob.Dist, len(s.Members))
		for j, m := range s.Members {
			dists[j] = d.RefLabel(m)
		}
		id := ID(len(g.nodes))
		g.nodes = append(g.nodes, Node{
			Refs:  s.Members,
			Label: merge.Labels(dists),
			Set:   refgraph.SetID(i),
		})
		for _, m := range s.Members {
			refToEnts[m] = append(refToEnts[m], id)
		}
	}

	g.maxRef = maxNodeRef(-1, g.nodes)
	g.indexLabels()

	if err := g.buildEdges(d, refToEnts, merge, nLabels); err != nil {
		return nil, err
	}
	if err := g.buildComponents(d, refToEnts, opt); err != nil {
		return nil, err
	}
	return g, nil
}

// maxNodeRef returns the largest reference id among nodes, or floor when
// none exceeds it.
func maxNodeRef(floor refgraph.RefID, nodes []Node) refgraph.RefID {
	for i := range nodes {
		for _, r := range nodes[i].Refs {
			if r > floor {
				floor = r
			}
		}
	}
	return floor
}

// edgeAccum collects reference-edge contributions for one entity pair.
type edgeAccum struct {
	dists  []refgraph.EdgeDist
	anyCPT bool
}

func (g *Graph) buildEdges(d *refgraph.PGD, refToEnts [][]ID, merge prob.MergeFuncs, nLabels int) error {
	type pair struct{ a, b ID }
	// Iterate reference edges in canonical key order, not map order: when
	// several reference edges contribute to one entity pair, the merge
	// function sees them in a fixed sequence, so two PGDs holding the same
	// edges — however they were assembled — build bitwise-identical merged
	// probabilities. The shard tier's byte-identical scatter-gather merge
	// depends on this.
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
	acc := make(map[pair]*edgeAccum)
	for _, ke := range edges {
		k, e := ke.k, ke.e
		for _, ea := range refToEnts[k.A] {
			for _, eb := range refToEnts[k.B] {
				if ea == eb {
					continue // would be a self loop on a merged entity
				}
				if g.refsOverlapSlices(g.nodes[ea].Refs, g.nodes[eb].Refs) {
					continue // the two entities can never coexist
				}
				p := pair{ea, eb}
				if p.a > p.b {
					p.a, p.b = p.b, p.a
				}
				a := acc[p]
				if a == nil {
					a = &edgeAccum{}
					acc[p] = a
				}
				a.dists = append(a.dists, e)
				if e.CPT != nil {
					a.anyCPT = true
				}
			}
		}
	}

	g.adj = make([][]Neighbor, len(g.nodes))
	ps := make([]float64, 0, 8)
	for p, a := range acc {
		ep := &EdgeProb{stride: int32(nLabels)}
		ps = ps[:0]
		for _, ed := range a.dists {
			ps = append(ps, ed.P)
		}
		ep.base = merge.Edges(ps)
		if a.anyCPT {
			ep.cpt = make([]float64, nLabels*nLabels)
			cell := make([]float64, len(a.dists))
			for l1 := 0; l1 < nLabels; l1++ {
				for l2 := 0; l2 < nLabels; l2++ {
					for i, ed := range a.dists {
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
			continue // Pr((s1,s2).e = T) = 0: not a GU edge
		}
		g.adj[p.a] = append(g.adj[p.a], Neighbor{To: p.b, E: ep})
		g.adj[p.b] = append(g.adj[p.b], Neighbor{To: p.a, E: ep})
	}
	for _, nbs := range g.adj {
		sort.Slice(nbs, func(i, j int) bool { return nbs[i].To < nbs[j].To })
	}
	return nil
}

func (g *Graph) buildComponents(d *refgraph.PGD, refToEnts [][]ID, opt BuildOptions) error {
	n := len(g.nodes)
	parent := make([]int32, n)
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
	for _, ents := range refToEnts {
		for i := 1; i < len(ents); i++ {
			ra, rb := find(int32(ents[0])), find(int32(ents[i]))
			if ra != rb {
				parent[ra] = rb
			}
		}
	}
	groups := make(map[int32][]ID)
	for i := 0; i < n; i++ {
		r := find(int32(i))
		groups[r] = append(groups[r], ID(i))
	}
	roots := make([]int32, 0, len(groups))
	for r := range groups {
		roots = append(roots, r)
	}
	sort.Slice(roots, func(i, j int) bool { return groups[roots[i]][0] < groups[roots[j]][0] })

	g.comps = make([]*Component, 0, len(groups))
	for _, root := range roots {
		members := groups[root]
		ci := int32(len(g.comps))
		if len(members) > 64 {
			return fmt.Errorf("entity: identity component with %d entities exceeds the 64-entity limit", len(members))
		}
		comp := &Component{Members: members}
		for pos, m := range members {
			g.nodes[m].Comp = ci
			g.nodes[m].CompPos = uint8(pos)
		}
		if len(members) == 1 {
			// Trivial component: the singleton of a reference that belongs
			// to no explicit set always exists.
			comp.Configs = []Config{{Mask: 1, P: 1}}
		} else {
			cfgs, err := g.enumerateComponent(d, members, opt)
			if err != nil {
				return err
			}
			comp.Configs = cfgs
		}
		g.comps = append(g.comps, comp)
	}
	for i := range g.nodes {
		nd := &g.nodes[i]
		nd.Exist = g.comps[nd.Comp].MarginalAll(uint64(1) << nd.CompPos)
	}
	return nil
}

// enumerateComponent scores the legal configurations of one identity
// component using the PGM engine, under the configured semantics.
func (g *Graph) enumerateComponent(d *refgraph.PGD, members []ID, opt BuildOptions) ([]Config, error) {
	cards := make([]int, len(members))
	for i := range cards {
		cards[i] = 2
	}
	model, err := pgm.NewModel(cards)
	if err != nil {
		return nil, err
	}
	pos := make(map[ID]int, len(members))
	for i, m := range members {
		pos[m] = i
	}

	// Collect the references appearing in the component and, per reference,
	// the member variables of the entities containing it.
	refVars := make(map[refgraph.RefID][]pgm.Var)
	for _, m := range members {
		for _, r := range g.nodes[m].Refs {
			refVars[r] = append(refVars[r], pgm.Var(pos[m]))
		}
	}
	refIDs := make([]refgraph.RefID, 0, len(refVars))
	for r := range refVars {
		refIDs = append(refIDs, r)
	}
	sort.Slice(refIDs, func(i, j int) bool { return refIDs[i] < refIDs[j] })

	switch g.sem {
	case SemanticsExample:
		// Legality factor per reference: exactly one containing set exists.
		for _, r := range refIDs {
			vars := refVars[r]
			if err := model.AddFactor(pgm.Factor{Vars: vars, Fn: exactlyOne}); err != nil {
				return nil, err
			}
		}
		// Prior factor per non-singleton member: p if exists, 1-p if not.
		for _, m := range members {
			if len(g.nodes[m].Refs) < 2 {
				continue
			}
			p := g.setProb(d, m)
			v := pgm.Var(pos[m])
			if err := model.AddFactor(pgm.Factor{Vars: []pgm.Var{v}, Fn: bernoulli(p)}); err != nil {
				return nil, err
			}
		}
	case SemanticsFactor:
		// Literal Definition 2: per reference r, fN over S_r values p_s(T)
		// of the unique existing set, 0 unless exactly one exists.
		for _, r := range refIDs {
			vars := refVars[r]
			probs := make([]float64, len(vars))
			for i, v := range vars {
				m := members[v]
				if len(g.nodes[m].Refs) < 2 {
					probs[i] = d.SingletonPrior(g.nodes[m].Refs[0])
				} else {
					probs[i] = g.setProb(d, m)
				}
			}
			fn := func(probs []float64) func([]int) float64 {
				return func(vals []int) float64 {
					chosen := -1
					for i, v := range vals {
						if v == 1 {
							if chosen >= 0 {
								return 0
							}
							chosen = i
						}
					}
					if chosen < 0 {
						return 0
					}
					return probs[chosen]
				}
			}(probs)
			if err := model.AddFactor(pgm.Factor{Vars: vars, Fn: fn}); err != nil {
				return nil, err
			}
		}
	default:
		return nil, fmt.Errorf("entity: unknown semantics %d", g.sem)
	}

	vars := make([]pgm.Var, len(members))
	for i := range vars {
		vars[i] = pgm.Var(i)
	}
	dist, err := model.ComponentDist(vars, opt.StateBudget)
	if err != nil {
		return nil, fmt.Errorf("entity: component %v: %w", members, err)
	}
	cfgs := make([]Config, len(dist))
	for i, a := range dist {
		var mask uint64
		for j, v := range a.Vals {
			if v == 1 {
				mask |= uint64(1) << uint(j)
			}
		}
		cfgs[i] = Config{Mask: mask, P: a.P}
	}
	sort.Slice(cfgs, func(i, j int) bool { return cfgs[i].Mask < cfgs[j].Mask })
	return cfgs, nil
}

// setProb returns the PGD merge probability of the non-singleton entity m
// via the set id recorded at node creation (stable under incremental
// maintenance, where entity ids no longer follow the singletons-then-sets
// layout of Build).
func (g *Graph) setProb(d *refgraph.PGD, m ID) float64 {
	return d.Set(g.nodes[m].Set).P
}

func exactlyOne(vals []int) float64 {
	n := 0
	for _, v := range vals {
		n += v
	}
	if n == 1 {
		return 1
	}
	return 0
}

func bernoulli(p float64) func([]int) float64 {
	return func(vals []int) float64 {
		if vals[0] == 1 {
			return p
		}
		return 1 - p
	}
}

func (g *Graph) refsOverlapSlices(a, b []refgraph.RefID) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			return true
		}
	}
	return false
}
