package entity

import (
	"fmt"
	"io"

	"repro/internal/prob"
	"repro/internal/refgraph"
	"repro/internal/storage/binio"
)

// Binary snapshot format for a built PEG. The paper keeps the entity graph
// in a disk-based store (Neo4j); Save/Load give the offline phase the same
// property — cmd/pegbuild can persist the built graph so the online phase
// never re-runs merging or component inference.
const (
	snapMagic   = "PEG1"
	snapVersion = 1
)

// Save writes the graph (nodes, merged distributions, components with their
// legal-configuration distributions, and edges) as a versioned snapshot.
func (g *Graph) Save(w io.Writer) error {
	bw := binio.NewWriter(w)
	bw.Str(snapMagic)
	bw.U8(snapVersion)
	bw.U8(uint8(g.sem))

	names := g.alpha.Names()
	bw.U32(uint32(len(names)))
	for _, n := range names {
		bw.Str(n)
	}

	bw.U32(uint32(len(g.nodes)))
	for i := range g.nodes {
		nd := &g.nodes[i]
		bw.U32(uint32(len(nd.Refs)))
		for _, r := range nd.Refs {
			bw.U32(uint32(r))
		}
		es := nd.Label.Entries()
		bw.U32(uint32(len(es)))
		for _, e := range es {
			bw.U32(uint32(e.Label))
			bw.F64(e.P)
		}
		bw.U32(uint32(nd.Comp))
		bw.U8(nd.CompPos)
		bw.F64(nd.Exist)
	}

	bw.U32(uint32(len(g.comps)))
	for _, c := range g.comps {
		bw.U32(uint32(len(c.Members)))
		for _, m := range c.Members {
			bw.U32(uint32(m))
		}
		bw.U32(uint32(len(c.Configs)))
		for _, cfg := range c.Configs {
			bw.U64(cfg.Mask)
			bw.F64(cfg.P)
		}
	}

	// Edges once per pair (a < b).
	nEdges := g.NumEdges()
	bw.U32(uint32(nEdges))
	for a := range g.adj {
		for _, nb := range g.adj[a] {
			if nb.To <= ID(a) {
				continue
			}
			bw.U32(uint32(a))
			bw.U32(uint32(nb.To))
			bw.F64(nb.E.base)
			if nb.E.cpt != nil {
				bw.U8(1)
				for _, p := range nb.E.cpt {
					bw.F64(p)
				}
			} else {
				bw.U8(0)
			}
		}
	}
	if err := bw.Err(); err != nil {
		return fmt.Errorf("entity: save: %w", err)
	}
	return bw.Flush()
}

// Load reads a snapshot written by Save.
func Load(r io.Reader) (*Graph, error) {
	br := binio.NewReader(r)
	if m := br.Str(); br.Err() == nil && m != snapMagic {
		return nil, fmt.Errorf("entity: bad magic %q", m)
	}
	if v := br.U8(); br.Err() == nil && v != snapVersion {
		return nil, fmt.Errorf("entity: unsupported version %d", v)
	}
	g := &Graph{sem: Semantics(br.U8())}

	nLabels := int(br.U32())
	if br.Err() != nil || nLabels <= 0 || nLabels > 1<<16 {
		return nil, fmt.Errorf("entity: load alphabet: %w", brErr(br))
	}
	names := make([]string, nLabels)
	for i := range names {
		names[i] = br.Str()
	}
	alpha, err := prob.NewAlphabet(names...)
	if err != nil {
		return nil, fmt.Errorf("entity: load alphabet: %w", err)
	}
	g.alpha = alpha

	nNodes := int(br.U32())
	if br.Err() != nil || nNodes < 0 || nNodes > 1<<28 {
		return nil, fmt.Errorf("entity: load nodes: %w", brErr(br))
	}
	g.nodes = make([]Node, nNodes)
	for i := 0; i < nNodes && br.Err() == nil; i++ {
		nd := &g.nodes[i]
		nRefs := int(br.U32())
		if nRefs < 0 || nRefs > 1<<20 {
			return nil, fmt.Errorf("entity: node %d has %d refs", i, nRefs)
		}
		nd.Refs = make([]refgraph.RefID, nRefs)
		for j := range nd.Refs {
			nd.Refs[j] = refgraph.RefID(br.U32())
		}
		nEnt := int(br.U32())
		entries := make([]prob.LabelProb, nEnt)
		for j := range entries {
			entries[j].Label = prob.LabelID(br.U32())
			entries[j].P = br.F64()
		}
		if br.Err() == nil {
			d, err := prob.NewDist(entries...)
			if err != nil {
				return nil, fmt.Errorf("entity: node %d label dist: %w", i, err)
			}
			nd.Label = d
		}
		nd.Comp = int32(br.U32())
		nd.CompPos = br.U8()
		nd.Exist = br.F64()
	}

	g.maxRef = maxNodeRef(-1, g.nodes)
	g.indexLabels()

	nComps := int(br.U32())
	if br.Err() != nil || nComps < 0 || nComps > nNodes {
		return nil, fmt.Errorf("entity: load components: %w", brErr(br))
	}
	g.comps = make([]*Component, nComps)
	for i := 0; i < nComps && br.Err() == nil; i++ {
		nm := int(br.U32())
		if nm < 0 || nm > 64 {
			return nil, fmt.Errorf("entity: component %d has %d members", i, nm)
		}
		c := &Component{Members: make([]ID, nm)}
		for j := range c.Members {
			c.Members[j] = ID(br.U32())
		}
		nc := int(br.U32())
		if nc < 0 || nc > 1<<20 {
			return nil, fmt.Errorf("entity: component %d has %d configs", i, nc)
		}
		c.Configs = make([]Config, nc)
		for j := range c.Configs {
			c.Configs[j].Mask = br.U64()
			c.Configs[j].P = br.F64()
		}
		g.comps[i] = c
	}

	g.adj = make([][]Neighbor, nNodes)
	nEdges := int(br.U32())
	cptLen := nLabels * nLabels
	for i := 0; i < nEdges && br.Err() == nil; i++ {
		a := ID(br.U32())
		b := ID(br.U32())
		if int(a) >= nNodes || int(b) >= nNodes {
			return nil, fmt.Errorf("entity: edge references node out of range")
		}
		ep := &EdgeProb{base: br.F64(), stride: int32(nLabels)}
		if br.U8() == 1 {
			ep.cpt = make([]float64, cptLen)
			for j := range ep.cpt {
				ep.cpt[j] = br.F64()
			}
		}
		ep.max = ep.base
		for _, v := range ep.cpt {
			if v > ep.max {
				ep.max = v
			}
		}
		g.adj[a] = append(g.adj[a], Neighbor{To: b, E: ep})
		g.adj[b] = append(g.adj[b], Neighbor{To: a, E: ep})
	}
	if err := br.Err(); err != nil {
		return nil, fmt.Errorf("entity: load: %w", err)
	}
	for _, nbs := range g.adj {
		sortNeighbors(nbs)
	}
	return g, nil
}

func sortNeighbors(nbs []Neighbor) {
	for i := 1; i < len(nbs); i++ {
		for j := i; j > 0 && nbs[j].To < nbs[j-1].To; j-- {
			nbs[j], nbs[j-1] = nbs[j-1], nbs[j]
		}
	}
}

func brErr(br *binio.Reader) error {
	if err := br.Err(); err != nil {
		return err
	}
	return fmt.Errorf("corrupt header field")
}
