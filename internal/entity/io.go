package entity

import (
	"errors"
	"fmt"
	"io"
	"math"

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

// ErrCorrupt is the base error for every snapshot Load refuses because its
// bytes do not describe a graph: test with errors.Is(err, ErrCorrupt). A
// snapshot that merely ends early surfaces the reader's error instead.
var ErrCorrupt = errors.New("entity: corrupt snapshot")

func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

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

	bw.U32(uint32(g.NumNodes()))
	for v := ID(0); int(v) < g.NumNodes(); v++ {
		refs := g.Refs(v)
		bw.U32(uint32(len(refs)))
		for _, r := range refs {
			bw.U32(uint32(r))
		}
		row := g.LabelRow(v)
		support := 0
		for _, p := range row {
			if p > 0 {
				support++
			}
		}
		bw.U32(uint32(support))
		for l, p := range row {
			if p > 0 {
				bw.U32(uint32(l))
				bw.F64(p)
			}
		}
		bw.U32(uint32(g.comp[v]))
		bw.U8(g.compPos[v])
		bw.F64(g.exist[v])
	}

	bw.U32(uint32(g.NumComponents()))
	for i := 0; i < g.NumComponents(); i++ {
		c := g.Component(i)
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
	bw.U32(uint32(g.NumEdges()))
	for a := ID(0); int(a) < g.NumNodes(); a++ {
		for _, nb := range g.Neighbors(a) {
			if nb.To <= a {
				continue
			}
			bw.U32(uint32(a))
			bw.U32(uint32(nb.To))
			bw.F64(nb.base)
			if nb.cpt >= 0 {
				bw.U8(1)
				for _, p := range g.cpts[int(nb.cpt)*g.nl*g.nl:][:g.nl*g.nl] {
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

// isProb reports whether p is a probability; NaN is not.
func isProb(p float64) bool { return p >= 0 && p <= 1 }

// Load reads a snapshot written by Save. The bytes are not trusted: every id
// is checked against its range before it indexes a column, every probability
// must lie in [0, 1], adjacency must arrive sorted, node and component
// records must agree with each other, and no allocation is sized by a count
// the input has not yet backed with data. What Save did not write — set ids,
// the reference → entities table, the label bitset — is rebuilt.
func Load(r io.Reader) (*Graph, error) {
	br := binio.NewReader(r)
	if m := br.Str(); br.Err() == nil && m != snapMagic {
		return nil, corrupt("bad magic %q", m)
	}
	if v := br.U8(); br.Err() == nil && v != snapVersion {
		return nil, corrupt("unsupported version %d", v)
	}
	sem := Semantics(br.U8())

	nl := int(br.U32())
	if br.Err() == nil && (nl <= 0 || nl > 1<<16) {
		return nil, corrupt("%d labels", nl)
	}
	var names []string
	for i := 0; i < nl && br.Err() == nil; i++ {
		names = append(names, br.Str())
	}
	if err := br.Err(); err != nil {
		return nil, fmt.Errorf("entity: load alphabet: %w", err)
	}
	alpha, err := prob.NewAlphabet(names...)
	if err != nil {
		return nil, corrupt("alphabet: %v", err)
	}

	n := int(br.U32())
	if br.Err() == nil && n > 1<<28 {
		return nil, corrupt("%d nodes", n)
	}
	g := newGraph(alpha, sem, 0)
	for v := 0; v < n && br.Err() == nil; v++ {
		nRefs := int(br.U32())
		if nRefs < 1 || nRefs > n {
			br.Fail(corrupt("node %d has %d refs", v, nRefs))
		}
		for j := 0; j < nRefs && br.Err() == nil; j++ {
			// Every reference has its singleton entity, so ids stay below n.
			ref := br.U32()
			if ref >= uint32(n) || (j > 0 && refgraph.RefID(ref) <= g.refs[len(g.refs)-1]) || len(g.refs) == math.MaxInt32 {
				br.Fail(corrupt("node %d: reference %d out of range or order", v, ref))
			}
			g.refs = append(g.refs, refgraph.RefID(ref))
		}
		g.refOff = append(g.refOff, int32(len(g.refs)))

		g.labelP = append(g.labelP, make([]float64, nl)...)
		row, sum := g.labelP[v*nl:], 0.0
		support := int(br.U32())
		for j := 0; j < support && br.Err() == nil; j++ {
			l, p := br.U32(), br.F64()
			if l >= uint32(nl) || !isProb(p) || row[l] != 0 {
				br.Fail(corrupt("node %d: label entry (%d, %v)", v, l, p))
				break
			}
			row[l] = p
			sum += p
		}
		if math.Abs(sum-1) > 1e-6 {
			br.Fail(corrupt("node %d: label distribution sums to %v", v, sum))
		}

		g.comp = append(g.comp, int32(br.U32()))
		g.compPos = append(g.compPos, br.U8())
		g.exist = append(g.exist, br.F64())
		if !isProb(g.exist[v]) {
			br.Fail(corrupt("node %d: existence probability %v", v, g.exist[v]))
		}
	}
	if err := br.Err(); err != nil {
		return nil, fmt.Errorf("entity: load nodes: %w", err)
	}

	nComps := int(br.U32())
	if br.Err() == nil && nComps > n {
		return nil, corrupt("%d components over %d nodes", nComps, n)
	}
	placed := 0
	for i := 0; i < nComps && br.Err() == nil; i++ {
		nm := int(br.U32())
		if nm < 1 || nm > 64 {
			br.Fail(corrupt("component %d has %d members", i, nm))
		}
		c := &Component{}
		for j := 0; j < nm && br.Err() == nil; j++ {
			m := br.U32()
			if m >= uint32(n) || g.comp[m] != int32(i) || int(g.compPos[m]) != j {
				br.Fail(corrupt("component %d: member %d disagrees with its node record", i, m))
			}
			c.Members = append(c.Members, ID(m))
		}
		placed += nm
		nc, sum := int(br.U32()), 0.0
		for j := 0; j < nc && br.Err() == nil; j++ {
			cfg := Config{Mask: br.U64(), P: br.F64()}
			if (nm < 64 && cfg.Mask>>nm != 0) || !isProb(cfg.P) || (j > 0 && cfg.Mask <= c.Configs[j-1].Mask) {
				br.Fail(corrupt("component %d: configuration (%#x, %v)", i, cfg.Mask, cfg.P))
			}
			c.Configs = append(c.Configs, cfg)
			sum += cfg.P
		}
		if br.Err() != nil {
			break
		}
		if math.Abs(sum-1) > 1e-6 {
			br.Fail(corrupt("component %d: configurations sum to %v", i, sum))
		}
		// Prn multiplies exist where MarginalAll would be asked for a
		// one-bit mask, so the two must be the same float.
		for pos, m := range c.Members {
			if g.exist[m] != c.marginal(uint64(1)<<pos) {
				br.Fail(corrupt("component %d: member %d exists with %v, its configurations say otherwise", i, m, g.exist[m]))
			}
		}
		if nm == 1 && nc == 1 && c.Configs[0] == (Config{Mask: 1, P: 1}) {
			g.compHead = append(g.compHead, int32(c.Members[0]))
		} else {
			g.compHead = append(g.compHead, ^int32(len(g.multi)))
			g.multi = append(g.multi, c)
		}
	}
	if br.Err() == nil && placed != n {
		br.Fail(corrupt("components hold %d of %d nodes", placed, n))
	}
	if err := br.Err(); err != nil {
		return nil, fmt.Errorf("entity: load components: %w", err)
	}

	// Edges arrive once per pair in (a, b) order, which fills every row in
	// neighbour order (see buildEdges).
	g.adjRow = make([]span, n)
	nEdges := int(br.U32())
	if br.Err() == nil && nEdges > math.MaxInt32/2 {
		return nil, corrupt("%d edges", nEdges)
	}
	var pairs []entPair
	var nbs []Neighbor
	for i := 0; i < nEdges && br.Err() == nil; i++ {
		p := entPair{ID(br.U32()), ID(br.U32())}
		nb := Neighbor{cpt: -1, base: br.F64()}
		if br.Err() != nil {
			break
		}
		if p.a < 0 || p.a >= p.b || int(p.b) >= n || (i > 0 && comparePairs(pairs[i-1], p) >= 0) {
			br.Fail(corrupt("edge %d–%d out of range or order", p.a, p.b))
			break
		}
		switch flag := br.U8(); flag {
		case 0:
		case 1:
			nb.cpt = int32(len(g.cpts) / (nl * nl))
			for j := 0; j < nl*nl && br.Err() == nil; j++ {
				g.cpts = append(g.cpts, br.F64())
				if !isProb(g.cpts[len(g.cpts)-1]) {
					br.Fail(corrupt("edge %d–%d: conditional probability out of range", p.a, p.b))
				}
			}
		default:
			br.Fail(corrupt("edge %d–%d: CPT flag %d", p.a, p.b, flag))
		}
		if !isProb(nb.base) {
			br.Fail(corrupt("edge %d–%d: probability %v", p.a, p.b, nb.base))
		}
		pairs, nbs = append(pairs, p), append(nbs, nb)
		g.adjRow[p.a].hi++
		g.adjRow[p.b].hi++
	}
	if err := br.Err(); err != nil {
		return nil, fmt.Errorf("entity: load edges: %w", err)
	}
	g.fillAdjacency(pairs, nbs)

	// Set entities are created in set-id order, at Build and by every delta.
	sets, maxRef := refgraph.SetID(0), refgraph.RefID(-1)
	for v := ID(0); int(v) < n; v++ {
		maxRef = max(maxRef, g.Refs(v)[len(g.Refs(v))-1])
		if len(g.Refs(v)) == 1 {
			g.set = append(g.set, -1)
		} else {
			g.set = append(g.set, sets)
			sets++
		}
	}
	g.indexLabels(0)
	g.indexRefs(int(maxRef) + 1)

	// The query stages tell that two entities share a reference from Prn
	// alone: it must be 0 over any such pair.
	for r := range g.entRow {
		ents := g.entsOf(refgraph.RefID(r))
		for i, a := range ents {
			for _, b := range ents[:i] {
				if g.comp[a] != g.comp[b] || g.ComponentOf(a).marginal(uint64(1)<<g.compPos[a]|uint64(1)<<g.compPos[b]) != 0 {
					return nil, corrupt("entities %d and %d share reference %d but not a component, or a configuration holds both", b, a, r)
				}
			}
		}
	}
	return g, nil
}
