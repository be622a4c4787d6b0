// Package live makes the system writable end to end: it wraps a PGD, its
// entity graph, and an immutable on-disk path index in a single-writer /
// many-reader database that accepts linkage-evidence mutations at serving
// time. Every mutation batch is appended to a CRC-protected write-ahead log,
// folded into the entity graph incrementally (entity.ApplyDelta recomputes
// only the identity components the batch touches), and surfaced to queries
// by a View (a pathindex.Reader) that streams the on-disk base's paths
// avoiding every dirty entity and walks the paths through them on demand.
// A background compactor folds the accumulated mutations into a fresh
// on-disk generation and atomically republishes, so queries keep serving throughout — the paper's offline
// index (Section 5.1) becomes the immutable base layer of an LSM-style
// read-write design.
package live

import (
	"bytes"
	"fmt"

	"repro/internal/prob"
	"repro/internal/refgraph"
	"repro/internal/storage/binio"
)

// Mutation op names (the JSON "op" field of /ingest and the WAL tag).
const (
	// OpAddRef appends a reference with a label distribution.
	OpAddRef = "add-ref"
	// OpAddEdge adds (or overwrites) a reference edge's existence
	// distribution.
	OpAddEdge = "add-edge"
	// OpSetLinkage records linkage evidence: it sets the merge probability
	// of the reference set with exactly the given members, creating the set
	// when it is new.
	OpSetLinkage = "set-linkage"
)

// LabelP is one entry of an add-ref label distribution, by label name.
type LabelP struct {
	Label string  `json:"label"`
	P     float64 `json:"p"`
}

// Mutation is one write against the live PGD. Exactly the fields of its op
// are consulted:
//
//	{"op":"add-ref","labels":[{"label":"a","p":0.7},{"label":"r","p":0.3}]}
//	{"op":"add-edge","a":3,"b":7,"p":0.8}
//	{"op":"set-linkage","members":[3,4],"p":0.9}
type Mutation struct {
	Op      string           `json:"op"`
	Labels  []LabelP         `json:"labels,omitempty"`
	A       refgraph.RefID   `json:"a,omitempty"`
	B       refgraph.RefID   `json:"b,omitempty"`
	P       float64          `json:"p,omitempty"`
	CPT     []float64        `json:"cpt,omitempty"`
	Members []refgraph.RefID `json:"members,omitempty"`
}

// WAL payload tags.
const (
	walAddRef     = 1
	walAddEdge    = 2
	walSetLinkage = 3
)

// encode writes the mutation's WAL payload to w (label names are stored as
// strings so records stay meaningful across generations).
func (m *Mutation) encode(w *binio.Writer) error {
	switch m.Op {
	case OpAddRef:
		w.U8(walAddRef)
		w.U32(uint32(len(m.Labels)))
		for _, lp := range m.Labels {
			w.Str(lp.Label)
			w.F64(lp.P)
		}
	case OpAddEdge:
		w.U8(walAddEdge)
		w.U32(uint32(m.A))
		w.U32(uint32(m.B))
		w.F64(m.P)
		w.U32(uint32(len(m.CPT)))
		for _, p := range m.CPT {
			w.F64(p)
		}
	case OpSetLinkage:
		w.U8(walSetLinkage)
		w.U32(uint32(len(m.Members)))
		for _, r := range m.Members {
			w.U32(uint32(r))
		}
		w.F64(m.P)
	default:
		return fmt.Errorf("live: unknown mutation op %q", m.Op)
	}
	return w.Err()
}

// decodeMutation parses one WAL record payload.
func decodeMutation(payload []byte) (Mutation, error) {
	r := binio.NewReader(bytes.NewReader(payload))
	var m Mutation
	switch tag := r.U8(); tag {
	case walAddRef:
		m.Op = OpAddRef
		n := r.U32()
		if n > 1<<16 {
			return m, fmt.Errorf("live: wal add-ref with %d labels", n)
		}
		m.Labels = make([]LabelP, n)
		for i := range m.Labels {
			m.Labels[i].Label = r.Str()
			m.Labels[i].P = r.F64()
		}
	case walAddEdge:
		m.Op = OpAddEdge
		m.A = refgraph.RefID(r.U32())
		m.B = refgraph.RefID(r.U32())
		m.P = r.F64()
		n := r.U32()
		if n > 1<<16 {
			return m, fmt.Errorf("live: wal add-edge with %d CPT entries", n)
		}
		if n > 0 {
			m.CPT = make([]float64, n)
			for i := range m.CPT {
				m.CPT[i] = r.F64()
			}
		}
	case walSetLinkage:
		m.Op = OpSetLinkage
		n := r.U32()
		if n > 1<<16 {
			return m, fmt.Errorf("live: wal set-linkage with %d members", n)
		}
		m.Members = make([]refgraph.RefID, n)
		for i := range m.Members {
			m.Members[i] = refgraph.RefID(r.U32())
		}
		m.P = r.F64()
	default:
		return m, fmt.Errorf("live: unknown wal record tag %d", tag)
	}
	if err := r.Err(); err != nil {
		return m, fmt.Errorf("live: wal record: %w", err)
	}
	return m, nil
}

// validate checks a mutation against the PGD it will be applied to.
// pendingRefs counts references added earlier in the same batch, so
// intra-batch forward references resolve.
func (m *Mutation) validate(d *refgraph.PGD, pendingRefs int) error {
	numRefs := d.NumRefs() + pendingRefs
	checkRef := func(r refgraph.RefID) error {
		if r < 0 || int(r) >= numRefs {
			return fmt.Errorf("live: unknown reference %d", r)
		}
		return nil
	}
	switch m.Op {
	case OpAddRef:
		if len(m.Labels) == 0 {
			return fmt.Errorf("live: add-ref needs a label distribution")
		}
		for _, lp := range m.Labels {
			if d.Alphabet().ID(lp.Label) == prob.NoLabel {
				return fmt.Errorf("live: unknown label %q", lp.Label)
			}
		}
		if _, err := m.dist(d.Alphabet()); err != nil {
			return err
		}
	case OpAddEdge:
		if err := checkRef(m.A); err != nil {
			return err
		}
		if err := checkRef(m.B); err != nil {
			return err
		}
		if m.A == m.B {
			return fmt.Errorf("live: self edge on reference %d", m.A)
		}
		if !(m.P >= 0 && m.P <= 1) {
			return fmt.Errorf("live: edge probability %v out of range", m.P)
		}
		if n := d.Alphabet().Len(); len(m.CPT) != 0 && len(m.CPT) != n*n {
			return fmt.Errorf("live: CPT has %d entries, want %d", len(m.CPT), n*n)
		}
	case OpSetLinkage:
		if !(m.P >= 0 && m.P <= 1) {
			return fmt.Errorf("live: linkage probability %v out of range", m.P)
		}
		seen := make(map[refgraph.RefID]bool, len(m.Members))
		for _, r := range m.Members {
			if err := checkRef(r); err != nil {
				return err
			}
			seen[r] = true
		}
		if len(seen) < 2 {
			return fmt.Errorf("live: set-linkage needs at least 2 distinct members, got %d", len(seen))
		}
	default:
		return fmt.Errorf("live: unknown mutation op %q", m.Op)
	}
	return nil
}

// dist resolves the add-ref label distribution against the alphabet.
func (m *Mutation) dist(a *prob.Alphabet) (prob.Dist, error) {
	entries := make([]prob.LabelProb, len(m.Labels))
	for i, lp := range m.Labels {
		id := a.ID(lp.Label)
		if id == prob.NoLabel {
			return prob.Dist{}, fmt.Errorf("live: unknown label %q", lp.Label)
		}
		entries[i] = prob.LabelProb{Label: id, P: lp.P}
	}
	d, err := prob.NewDist(entries...)
	if err != nil {
		return prob.Dist{}, fmt.Errorf("live: add-ref distribution: %w", err)
	}
	return d, nil
}
