package refgraph

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/prob"
	"repro/internal/storage/binio"
)

// Binary snapshot format. A PGD file is the offline phase's input artifact
// (cmd/peggen writes one, cmd/pegbuild reads it). Version 2 added the merge
// function identifiers to the header; version 1 files (which never recorded
// them) still load with the defaults.
const (
	magic   = "PGD1"
	version = 2
)

// Save writes the PGD as a versioned binary snapshot. The merge functions
// are code and cannot be serialized; instead the header records their
// registry identifiers (see SetNamedMerge) so Load can re-resolve them —
// or fail loudly instead of silently restoring defaults when the PGD
// carried unregistered custom functions.
func (g *PGD) Save(w io.Writer) error {
	bw := binio.NewWriter(w)
	bw.Str(magic)
	bw.U8(version)
	bw.Str(g.mergeLabelName)
	bw.Str(g.mergeEdgeName)

	names := g.alphabet.Names()
	bw.U32(uint32(len(names)))
	for _, n := range names {
		bw.Str(n)
	}

	bw.U32(uint32(len(g.labels)))
	for _, d := range g.labels {
		es := d.Entries()
		bw.U32(uint32(len(es)))
		for _, e := range es {
			bw.U32(uint32(e.Label))
			bw.F64(e.P)
		}
	}

	// Edge and prior maps are written in sorted key order so snapshots are
	// deterministic (equal PGDs produce equal bytes).
	keys := make([]EdgeKey, 0, len(g.edges))
	for k := range g.edges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].A != keys[j].A {
			return keys[i].A < keys[j].A
		}
		return keys[i].B < keys[j].B
	})
	bw.U32(uint32(len(keys)))
	for _, k := range keys {
		e := g.edges[k]
		bw.U32(uint32(k.A))
		bw.U32(uint32(k.B))
		bw.F64(e.P)
		if e.CPT != nil {
			bw.U8(1)
			for _, p := range e.CPT {
				bw.F64(p)
			}
		} else {
			bw.U8(0)
		}
	}

	bw.U32(uint32(len(g.sets)))
	for _, s := range g.sets {
		bw.U32(uint32(len(s.Members)))
		for _, m := range s.Members {
			bw.U32(uint32(m))
		}
		bw.F64(s.P)
	}

	refs := make([]RefID, 0, len(g.singletonPrior))
	for r := range g.singletonPrior {
		refs = append(refs, r)
	}
	sort.Slice(refs, func(i, j int) bool { return refs[i] < refs[j] })
	bw.U32(uint32(len(refs)))
	for _, r := range refs {
		bw.U32(uint32(r))
		bw.F64(g.singletonPrior[r])
	}

	if err := bw.Flush(); err != nil {
		return fmt.Errorf("refgraph: save: %w", err)
	}
	return nil
}

// Load reads a PGD binary snapshot written by Save. Version 2 snapshots
// record the merge-function identifiers; Load re-installs the named
// functions and fails loudly when a snapshot was saved from a PGD carrying
// unregistered custom merge functions (identifier prob.MergeCustom), since
// restoring the defaults would silently change every merged probability.
// Version 1 snapshots predate the header field and load with the defaults.
func Load(r io.Reader) (*PGD, error) {
	br := binio.NewReader(r)
	if m := br.Str(); br.Err() == nil && m != magic {
		return nil, fmt.Errorf("refgraph: bad magic %q", m)
	}
	v := br.U8()
	if br.Err() == nil && v != 1 && v != version {
		return nil, fmt.Errorf("refgraph: unsupported version %d", v)
	}
	mergeLabels, mergeEdges := "average", "average"
	if v == version {
		mergeLabels = br.Str()
		mergeEdges = br.Str()
	}
	if br.Err() != nil {
		return nil, fmt.Errorf("refgraph: load header: %w", br.Err())
	}
	if mergeLabels == prob.MergeCustom || mergeEdges == prob.MergeCustom {
		return nil, fmt.Errorf("refgraph: snapshot was saved with unregistered custom merge functions; rebuild it with SetNamedMerge so the snapshot is self-describing")
	}

	// Every count below is a claim of the input: a list grows by append as
	// the bytes behind it arrive, and is sized up front only after its count
	// has been checked against what bounds it.
	nLabels := br.U32()
	if br.Err() != nil {
		return nil, fmt.Errorf("refgraph: load header: %w", br.Err())
	}
	var names []string
	for i := uint32(0); i < nLabels && br.Err() == nil; i++ {
		names = append(names, br.Str())
	}
	if br.Err() != nil {
		return nil, fmt.Errorf("refgraph: load alphabet: %w", br.Err())
	}
	alpha, err := prob.NewAlphabet(names...)
	if err != nil {
		return nil, fmt.Errorf("refgraph: load alphabet: %w", err)
	}
	g := New(alpha)
	if err := g.SetNamedMerge(mergeLabels, mergeEdges); err != nil {
		return nil, fmt.Errorf("refgraph: load merge functions: %w", err)
	}

	nRefs := br.U32()
	for i := uint32(0); i < nRefs && br.Err() == nil; i++ {
		nEnt := br.U32()
		if br.Err() == nil && nEnt > uint32(alpha.Len()) {
			return nil, fmt.Errorf("refgraph: load reference %d: %d label entries over %d labels", i, nEnt, alpha.Len())
		}
		entries := make([]prob.LabelProb, nEnt)
		for j := range entries {
			entries[j].Label = prob.LabelID(br.U32())
			entries[j].P = br.F64()
		}
		if br.Err() != nil {
			break
		}
		d, err := prob.NewDist(entries...)
		if err != nil {
			return nil, fmt.Errorf("refgraph: load reference %d: %w", i, err)
		}
		g.AddReference(d)
	}

	nEdges := br.U32()
	cptLen := alpha.Len() * alpha.Len()
	for i := uint32(0); i < nEdges && br.Err() == nil; i++ {
		a := RefID(br.U32())
		b := RefID(br.U32())
		e := EdgeDist{P: br.F64()}
		if br.U8() == 1 {
			for j := 0; j < cptLen && br.Err() == nil; j++ {
				e.CPT = append(e.CPT, br.F64())
			}
		}
		if br.Err() != nil {
			break
		}
		if err := g.AddEdge(a, b, e); err != nil {
			return nil, fmt.Errorf("refgraph: load edge: %w", err)
		}
	}

	nSets := br.U32()
	for i := uint32(0); i < nSets && br.Err() == nil; i++ {
		nm := br.U32()
		if br.Err() == nil && nm > uint32(g.NumRefs()) {
			return nil, fmt.Errorf("refgraph: load set %d: %d members over %d references", i, nm, g.NumRefs())
		}
		members := make([]RefID, nm)
		for j := range members {
			members[j] = RefID(br.U32())
		}
		p := br.F64()
		if br.Err() != nil {
			break
		}
		if _, err := g.AddReferenceSet(members, p); err != nil {
			return nil, fmt.Errorf("refgraph: load set: %w", err)
		}
	}

	nPriors := br.U32()
	for i := uint32(0); i < nPriors && br.Err() == nil; i++ {
		r := RefID(br.U32())
		p := br.F64()
		if br.Err() != nil {
			break
		}
		if err := g.SetSingletonPrior(r, p); err != nil {
			return nil, fmt.Errorf("refgraph: load prior: %w", err)
		}
	}

	if br.Err() != nil {
		return nil, fmt.Errorf("refgraph: load: %w", br.Err())
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("refgraph: load: %w", err)
	}
	return g, nil
}
