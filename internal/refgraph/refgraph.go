// Package refgraph implements the Probabilistic Graph Description (PGD) of
// Definition 1: the reference-level uncertain graph from which the
// probabilistic entity graph is constructed. A PGD holds
//
//   - a set of references R, each with a probability distribution over labels,
//   - edge existence probabilities over reference pairs (optionally
//     conditioned on the endpoint labels, Section 5.3),
//   - reference sets S — candidate entities — with merge probabilities, and
//   - the two merge functions mΣ and m{T,F}.
package refgraph

import (
	"fmt"
	"sort"

	"repro/internal/prob"
)

// RefID identifies a reference in a PGD.
type RefID int32

// SetID identifies a non-singleton reference set in a PGD. Singleton sets
// are implicit (Definition 1 requires S to contain all singletons) and are
// not enumerated.
type SetID int32

// EdgeDist is the existence distribution of a reference-pair edge:
// p((r1,r2).x) of Definition 1, or its label-conditioned form
// p((r1,r2).x | r1.x, r2.x) of Section 5.3 when CPT is non-nil.
type EdgeDist struct {
	// P is the unconditional existence probability. When CPT is non-nil it
	// is retained as the base probability for merging with unconditioned
	// edges and for reporting.
	P float64
	// CPT, when non-nil, holds the conditional existence probability for
	// every ordered label pair, row-major: CPT[l1*|Σ|+l2] = Pr(edge | l1, l2).
	// It must be symmetric for undirected graphs (CPT[i*n+j] == CPT[j*n+i]).
	CPT []float64
}

// Prob returns the existence probability given the endpoint labels.
func (e EdgeDist) Prob(l1, l2 prob.LabelID, nLabels int) float64 {
	if e.CPT == nil {
		return e.P
	}
	return e.CPT[int(l1)*nLabels+int(l2)]
}

// Max returns the largest existence probability over label assignments.
func (e EdgeDist) Max() float64 {
	if e.CPT == nil {
		return e.P
	}
	m := 0.0
	for _, p := range e.CPT {
		if p > m {
			m = p
		}
	}
	return m
}

func (e EdgeDist) validate(nLabels int) error {
	if !(e.P >= 0 && e.P <= 1) {
		return fmt.Errorf("edge probability %v out of range", e.P)
	}
	if e.CPT != nil {
		if len(e.CPT) != nLabels*nLabels {
			return fmt.Errorf("CPT has %d entries, want %d", len(e.CPT), nLabels*nLabels)
		}
		for i := 0; i < nLabels; i++ {
			for j := 0; j <= i; j++ {
				a, b := e.CPT[i*nLabels+j], e.CPT[j*nLabels+i]
				if !(a >= 0 && a <= 1) {
					return fmt.Errorf("CPT[%d,%d] = %v out of range", i, j, a)
				}
				if a != b {
					return fmt.Errorf("CPT not symmetric at (%d,%d): %v vs %v", i, j, a, b)
				}
			}
		}
	}
	return nil
}

// EdgeKey is the canonical (undirected) key of a reference edge.
type EdgeKey struct{ A, B RefID }

// MakeEdgeKey normalizes the endpoint order.
func MakeEdgeKey(a, b RefID) EdgeKey {
	if a > b {
		a, b = b, a
	}
	return EdgeKey{A: a, B: b}
}

// RefSet is a non-singleton reference set with its merge probability
// p_s(s.x = T).
type RefSet struct {
	Members []RefID // sorted, len >= 2
	P       float64
}

// PGD is a probabilistic graph description. Construct with New, populate
// with AddReference / AddEdge / AddReferenceSet, then Validate (or hand it
// to entity.Build, which validates).
type PGD struct {
	alphabet *prob.Alphabet
	labels   []prob.Dist
	edges    map[EdgeKey]EdgeDist
	sets     []RefSet
	// singletonPrior holds explicit p_s priors for singleton sets, used by
	// the literal Definition 2 factor semantics; unset references default
	// to prior 1.
	singletonPrior map[RefID]float64
	// setByKey indexes sets by canonical member list for O(1) FindSet —
	// the hot lookup of every streamed set-linkage mutation.
	setByKey map[string]SetID
	merge    prob.MergeFuncs
	// mergeLabelName / mergeEdgeName identify the installed merge functions
	// for the snapshot header; prob.MergeCustom marks unserializable raw
	// function values installed via SetMerge.
	mergeLabelName string
	mergeEdgeName  string
}

// New creates an empty PGD over the given alphabet with the paper's default
// merge functions (average for labels and edges).
func New(a *prob.Alphabet) *PGD {
	return &PGD{
		alphabet:       a,
		edges:          make(map[EdgeKey]EdgeDist),
		singletonPrior: make(map[RefID]float64),
		setByKey:       make(map[string]SetID),
		merge:          prob.DefaultMerge(),
		mergeLabelName: "average",
		mergeEdgeName:  "average",
	}
}

// memberKey encodes a sorted member list as a map key.
func memberKey(ms []RefID) string {
	b := make([]byte, 4*len(ms))
	for i, r := range ms {
		b[4*i] = byte(r >> 24)
		b[4*i+1] = byte(r >> 16)
		b[4*i+2] = byte(r >> 8)
		b[4*i+3] = byte(r)
	}
	return string(b)
}

// normalizeMembers returns the sorted, deduplicated member list.
func normalizeMembers(members []RefID) []RefID {
	ms := append([]RefID(nil), members...)
	sort.Slice(ms, func(i, j int) bool { return ms[i] < ms[j] })
	n := 0
	for i, r := range ms {
		if i == 0 || r != ms[i-1] {
			ms[n] = r
			n++
		}
	}
	return ms[:n]
}

// Alphabet returns the label alphabet.
func (g *PGD) Alphabet() *prob.Alphabet { return g.alphabet }

// SetMerge overrides the merge functions mΣ and m{T,F} with raw function
// values. Function values cannot be serialized, so the snapshot records the
// prob.MergeCustom identifier for each overridden function and Load of such
// a snapshot fails loudly; prefer SetNamedMerge for snapshot-bound PGDs.
func (g *PGD) SetMerge(m prob.MergeFuncs) {
	if m.Labels != nil {
		g.merge.Labels = m.Labels
		g.mergeLabelName = prob.MergeCustom
	}
	if m.Edges != nil {
		g.merge.Edges = m.Edges
		g.mergeEdgeName = prob.MergeCustom
	}
}

// SetNamedMerge installs merge functions by registry name (see
// prob.NamedLabelMerge / prob.NamedEdgeMerge; "" keeps the current
// function). Named merges survive Save/Load round-trips: the names go into
// the snapshot header and Load re-resolves them.
func (g *PGD) SetNamedMerge(labels, edges string) error {
	if labels != "" {
		fn, err := prob.NamedLabelMerge(labels)
		if err != nil {
			return err
		}
		g.merge.Labels = fn
		g.mergeLabelName = labels
	}
	if edges != "" {
		fn, err := prob.NamedEdgeMerge(edges)
		if err != nil {
			return err
		}
		g.merge.Edges = fn
		g.mergeEdgeName = edges
	}
	return nil
}

// Merge returns the PGD's merge functions.
func (g *PGD) Merge() prob.MergeFuncs { return g.merge }

// AddReference adds a reference with the given label distribution and
// returns its id.
func (g *PGD) AddReference(d prob.Dist) RefID {
	g.labels = append(g.labels, d)
	return RefID(len(g.labels) - 1)
}

// NumRefs returns the number of references.
func (g *PGD) NumRefs() int { return len(g.labels) }

// RefLabel returns the label distribution of reference r.
func (g *PGD) RefLabel(r RefID) prob.Dist { return g.labels[r] }

// AddEdge records an undirected reference edge with the given existence
// distribution. Re-adding an existing edge overwrites it.
func (g *PGD) AddEdge(a, b RefID, e EdgeDist) error {
	if a == b {
		return fmt.Errorf("refgraph: self edge on reference %d", a)
	}
	if err := g.checkRef(a); err != nil {
		return err
	}
	if err := g.checkRef(b); err != nil {
		return err
	}
	if err := e.validate(g.alphabet.Len()); err != nil {
		return fmt.Errorf("refgraph: edge (%d,%d): %w", a, b, err)
	}
	g.edges[MakeEdgeKey(a, b)] = e
	return nil
}

// Edge returns the existence distribution of the edge between a and b and
// whether it is present.
func (g *PGD) Edge(a, b RefID) (EdgeDist, bool) {
	e, ok := g.edges[MakeEdgeKey(a, b)]
	return e, ok
}

// NumEdges returns the number of reference edges.
func (g *PGD) NumEdges() int { return len(g.edges) }

// Edges calls fn for every reference edge in unspecified order. Iteration
// stops early when fn returns false.
func (g *PGD) Edges(fn func(k EdgeKey, e EdgeDist) bool) {
	for k, e := range g.edges {
		if !fn(k, e) {
			return
		}
	}
}

// AddReferenceSet adds a non-singleton reference set with merge probability
// p and returns its id. Members are deduplicated and sorted.
func (g *PGD) AddReferenceSet(members []RefID, p float64) (SetID, error) {
	if !(p >= 0 && p <= 1) {
		return 0, fmt.Errorf("refgraph: set probability %v out of range", p)
	}
	for _, r := range members {
		if err := g.checkRef(r); err != nil {
			return 0, err
		}
	}
	ms := normalizeMembers(members)
	if len(ms) < 2 {
		return 0, fmt.Errorf("refgraph: reference set needs at least 2 distinct members, got %d", len(ms))
	}
	g.sets = append(g.sets, RefSet{Members: ms, P: p})
	id := SetID(len(g.sets) - 1)
	g.setByKey[memberKey(ms)] = id
	return id, nil
}

// NumSets returns the number of non-singleton reference sets.
func (g *PGD) NumSets() int { return len(g.sets) }

// Set returns the non-singleton reference set with the given id.
func (g *PGD) Set(id SetID) RefSet { return g.sets[id] }

// SetSetProb replaces the merge probability of an existing reference set —
// the SetLinkage update of the live ingest path.
func (g *PGD) SetSetProb(id SetID, p float64) error {
	if id < 0 || int(id) >= len(g.sets) {
		return fmt.Errorf("refgraph: unknown set %d", id)
	}
	if !(p >= 0 && p <= 1) {
		return fmt.Errorf("refgraph: set probability %v out of range", p)
	}
	g.sets[id].P = p
	return nil
}

// FindSet returns the id of the reference set with exactly the given
// members (order-insensitive, duplicates ignored), if one exists. O(1) via
// the member-key index.
func (g *PGD) FindSet(members []RefID) (SetID, bool) {
	id, ok := g.setByKey[memberKey(normalizeMembers(members))]
	return id, ok
}

// TruncateRefs removes the most recently added references so that n remain.
// Rollback helper for the live ingest path: the caller must first undo any
// edges or sets referencing the dropped ids.
func (g *PGD) TruncateRefs(n int) {
	if n >= 0 && n < len(g.labels) {
		g.labels = g.labels[:n]
	}
}

// TruncateSets removes the most recently added reference sets so that n
// remain, maintaining the member index. Rollback helper for the live ingest
// path.
func (g *PGD) TruncateSets(n int) {
	for i := n; i >= 0 && i < len(g.sets); i++ {
		delete(g.setByKey, memberKey(g.sets[i].Members))
	}
	if n >= 0 && n < len(g.sets) {
		g.sets = g.sets[:n]
	}
}

// RestoreEdge reinstates (present) or deletes (!present) an edge without
// validation. Rollback helper for the live ingest path.
func (g *PGD) RestoreEdge(k EdgeKey, e EdgeDist, present bool) {
	if present {
		g.edges[k] = e
	} else {
		delete(g.edges, k)
	}
}

// Clone returns an independent copy of the PGD: subsequent mutations on
// either PGD never affect the other. Immutable-by-convention innards (label
// distributions, CPT slices, member slices) are shared.
func (g *PGD) Clone() *PGD {
	c := &PGD{
		alphabet:       g.alphabet,
		labels:         append([]prob.Dist(nil), g.labels...),
		edges:          make(map[EdgeKey]EdgeDist, len(g.edges)),
		sets:           append([]RefSet(nil), g.sets...),
		singletonPrior: make(map[RefID]float64, len(g.singletonPrior)),
		setByKey:       make(map[string]SetID, len(g.setByKey)),
		merge:          g.merge,
		mergeLabelName: g.mergeLabelName,
		mergeEdgeName:  g.mergeEdgeName,
	}
	for k, e := range g.edges {
		c.edges[k] = e
	}
	for r, p := range g.singletonPrior {
		c.singletonPrior[r] = p
	}
	for k, id := range g.setByKey {
		c.setByKey[k] = id
	}
	return c
}

// SetSingletonPrior sets the explicit existence prior p_s for the singleton
// set {r}, used only by the literal Definition 2 factor semantics
// (entity.SemanticsFactor). Unset singletons default to prior 1.
func (g *PGD) SetSingletonPrior(r RefID, p float64) error {
	if err := g.checkRef(r); err != nil {
		return err
	}
	if !(p >= 0 && p <= 1) {
		return fmt.Errorf("refgraph: singleton prior %v out of range", p)
	}
	g.singletonPrior[r] = p
	return nil
}

// SingletonPrior returns the existence prior of the singleton set {r}.
func (g *PGD) SingletonPrior(r RefID) float64 {
	if p, ok := g.singletonPrior[r]; ok {
		return p
	}
	return 1
}

func (g *PGD) checkRef(r RefID) error {
	if r < 0 || int(r) >= len(g.labels) {
		return fmt.Errorf("refgraph: unknown reference %d", r)
	}
	return nil
}

// Validate checks the structural invariants of the PGD: every reference has
// a label distribution over the alphabet, edges and sets reference existing
// references, and probabilities are in range.
func (g *PGD) Validate() error {
	n := g.alphabet.Len()
	if n == 0 {
		return fmt.Errorf("refgraph: empty alphabet")
	}
	for i, d := range g.labels {
		if d.IsZero() {
			return fmt.Errorf("refgraph: reference %d has no label distribution", i)
		}
		for _, e := range d.Entries() {
			if e.Label < 0 || int(e.Label) >= n {
				return fmt.Errorf("refgraph: reference %d has label %d outside alphabet", i, e.Label)
			}
		}
	}
	for k, e := range g.edges {
		if err := e.validate(n); err != nil {
			return fmt.Errorf("refgraph: edge (%d,%d): %w", k.A, k.B, err)
		}
	}
	for i, s := range g.sets {
		if len(s.Members) < 2 {
			return fmt.Errorf("refgraph: set %d has %d members", i, len(s.Members))
		}
		if !(s.P >= 0 && s.P <= 1) {
			return fmt.Errorf("refgraph: set %d probability %v out of range", i, s.P)
		}
	}
	return nil
}
