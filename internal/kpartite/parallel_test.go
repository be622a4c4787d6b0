package kpartite

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"repro/internal/candidates"
	"repro/internal/decompose"
	"repro/internal/entity"
	"repro/internal/gen"
	"repro/internal/pathindex"
	"repro/internal/query"
)

// graphsIdentical compares the built k-partite graphs arena by arena: the
// row-major candidate node arrays, the float bits of w1/w2 and of the two
// factor columns, and every CSR link set's offs and pool. Byte-identical arenas are the determinism
// contract of the parallel pair fan-out.
func graphsIdentical(t *testing.T, label string, want, got *Graph) {
	t.Helper()
	if len(want.parts) != len(got.parts) {
		t.Fatalf("%s: %d partitions, want %d", label, len(got.parts), len(want.parts))
	}
	for p := range want.parts {
		wp, gp := want.parts[p], got.parts[p]
		if wp.n != gp.n || wp.plen != gp.plen {
			t.Fatalf("%s: partition %d shape (%d,%d), want (%d,%d)", label, p, gp.n, gp.plen, wp.n, wp.plen)
		}
		for i := range wp.nodes {
			if wp.nodes[i] != gp.nodes[i] {
				t.Fatalf("%s: partition %d nodes[%d] = %d, want %d", label, p, i, gp.nodes[i], wp.nodes[i])
			}
		}
		for i := range wp.w1 {
			if math.Float64bits(wp.w1[i]) != math.Float64bits(gp.w1[i]) ||
				math.Float64bits(wp.w2[i]) != math.Float64bits(gp.w2[i]) {
				t.Fatalf("%s: partition %d weights[%d] differ", label, p, i)
			}
		}
		for _, col := range [][2][]float64{{wp.lab, gp.lab}, {wp.edge, gp.edge}} {
			if len(col[0]) != len(col[1]) {
				t.Fatalf("%s: partition %d factor column has %d entries, want %d", label, p, len(col[1]), len(col[0]))
			}
			for i := range col[0] {
				if math.Float64bits(col[0][i]) != math.Float64bits(col[1][i]) {
					t.Fatalf("%s: partition %d factor column entry %d differs", label, p, i)
				}
			}
		}
	}
	for a := range want.links {
		for b := range want.links[a] {
			wl, gl := &want.links[a][b], &got.links[a][b]
			if len(wl.offs) != len(gl.offs) || len(wl.pool) != len(gl.pool) {
				t.Fatalf("%s: links[%d][%d] shape (%d,%d), want (%d,%d)",
					label, a, b, len(gl.offs), len(gl.pool), len(wl.offs), len(wl.pool))
			}
			for i := range wl.offs {
				if wl.offs[i] != gl.offs[i] {
					t.Fatalf("%s: links[%d][%d].offs[%d] = %d, want %d", label, a, b, i, gl.offs[i], wl.offs[i])
				}
			}
			for i := range wl.pool {
				if wl.pool[i] != gl.pool[i] {
					t.Fatalf("%s: links[%d][%d].pool[%d] = %d, want %d", label, a, b, i, gl.pool[i], wl.pool[i])
				}
			}
		}
	}
}

// lookupRef is the reference the factor-column build is held to, kept only
// here: the joinability test, the links and the weights as they were computed
// before any factor was cached or any layout counted — every label and edge
// probability looked up from the entity graph at the point of use, the union
// assignment in a per-query-node array, a string-keyed map over b's
// join-position tuples, the surviving (i, j) pairs collected in a slice and
// sorted once per CSR direction. Identity is tested independently too: a
// reference bitset decides overlap, where the build reads it off Prn.
type lookupRef struct {
	kg       *Graph
	q        *query.Query
	asn      []entity.ID // per query node; -1 = unassigned
	refWords []uint64
}

func newLookupRef(kg *Graph, q *query.Query) *lookupRef {
	maxRef := 0
	for v := 0; v < kg.g.NumNodes(); v++ {
		for _, r := range kg.g.Refs(entity.ID(v)) {
			maxRef = max(maxRef, int(r))
		}
	}
	ref := &lookupRef{
		kg:       kg,
		q:        q,
		asn:      make([]entity.ID, q.NumNodes()),
		refWords: make([]uint64, maxRef/64+1),
	}
	for i := range ref.asn {
		ref.asn[i] = -1
	}
	return ref
}

// joinable evaluates Pr(Pu1 ∘ Pu2) ≥ α and reference disjointness over the
// union assignment of rowA (on path pa) and rowB (on pb) by look-up.
func (ref *lookupRef) joinable(pa, pb *decompose.Path, rowA, rowB []entity.ID) bool {
	g, q := ref.kg.g, ref.q
	var unionNodes []query.NodeID
	var unionEdges [][2]query.NodeID
	unionNodes = append(unionNodes, pa.Nodes...)
	for _, qn := range pb.Nodes {
		if !slices.Contains(pa.Nodes, qn) {
			unionNodes = append(unionNodes, qn)
		}
	}
	for _, p := range []*decompose.Path{pa, pb} {
		for pos := 0; pos+1 < len(p.Nodes); pos++ {
			if key := edgeKey(p.Nodes[pos], p.Nodes[pos+1]); !slices.Contains(unionEdges, key) {
				unionEdges = append(unionEdges, key)
			}
		}
	}
	defer func() {
		for _, qn := range unionNodes {
			ref.asn[qn] = -1
		}
		clear(ref.refWords)
	}()

	for pos, qn := range pa.Nodes {
		ref.asn[qn] = rowA[pos]
	}
	for pos, qn := range pb.Nodes {
		if v := ref.asn[qn]; v >= 0 && v != rowB[pos] {
			return false // join predicate violated
		}
		ref.asn[qn] = rowB[pos]
	}
	prle := 1.0
	var nodes []entity.ID
	for _, qn := range unionNodes {
		v := ref.asn[qn]
		for _, r := range g.Refs(v) {
			w, bit := uint(r)>>6, uint64(1)<<(uint(r)&63)
			if ref.refWords[w]&bit != 0 {
				return false
			}
			ref.refWords[w] |= bit
		}
		nodes = append(nodes, v)
		prle *= g.PrLabel(v, q.Label(qn))
	}
	if prle > 0 {
		for _, key := range unionEdges {
			ep, found := g.EdgeBetween(ref.asn[key[0]], ref.asn[key[1]])
			if !found {
				prle = 0
				break
			}
			prle *= g.PrEdge(ep, q.Label(key[0]), q.Label(key[1]))
			if prle == 0 {
				break
			}
		}
	}
	return prle*g.Prn(nodes)+1e-12 >= ref.kg.alpha
}

// links is the map-and-sort construction of both CSR directions of pair
// (a, b).
func (ref *lookupRef) links(a, b int) (ab, ba linkSet) {
	kg := ref.kg
	preds := kg.dec.Preds(a, b)
	pa, pb := kg.parts[a], kg.parts[b]
	key := func(row []entity.ID, sideA bool) string {
		var buf []byte
		for _, pr := range preds {
			pos := pr.PosB
			if sideA {
				pos = pr.PosA
			}
			id := row[pos]
			buf = append(buf, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
		}
		return string(buf)
	}
	table := make(map[string][]int32)
	for j := 0; j < pb.n; j++ {
		k := key(pb.nodes[j*pb.plen:(j+1)*pb.plen], false)
		table[k] = append(table[k], int32(j))
	}
	var pairs [][2]int32
	for i := 0; i < pa.n; i++ {
		rowA := pa.nodes[i*pa.plen : (i+1)*pa.plen]
		for _, j := range table[key(rowA, true)] {
			if ref.joinable(pa.path, pb.path, rowA, pb.nodes[int(j)*pb.plen:(int(j)+1)*pb.plen]) {
				pairs = append(pairs, [2]int32{int32(i), j})
			}
		}
	}
	csr := func(n, from, to int) linkSet {
		sort.Slice(pairs, func(x, y int) bool {
			if pairs[x][from] != pairs[y][from] {
				return pairs[x][from] < pairs[y][from]
			}
			return pairs[x][to] < pairs[y][to]
		})
		ls := linkSet{offs: make([]int32, n+1), pool: make([]int32, len(pairs))}
		for x, pr := range pairs {
			ls.offs[pr[from]+1]++
			ls.pool[x] = pr[to]
		}
		for i := 0; i < n; i++ {
			ls.offs[i+1] += ls.offs[i]
		}
		return ls
	}
	return csr(pa.n, 0, 1), csr(pb.n, 1, 0)
}

// weights looks up row i of partition p's label factors, edge factors and w1
// — w1 as the cover product was written before the columns existed: covered
// labels in position order, then covered edges with their labels in path
// orientation, 0 at the first missing edge.
func (ref *lookupRef) weights(p, i int) (w1 float64, lab, edge []float64) {
	kg := ref.kg
	g, q, path, row := kg.g, ref.q, kg.parts[p].path, kg.Row(p, i)
	w1 = 1.0
	for pos, qn := range path.Nodes {
		lab = append(lab, g.PrLabel(row[pos], q.Label(qn)))
		if kg.dec.CoverNode[qn] == p {
			w1 *= g.PrLabel(row[pos], q.Label(qn))
		}
	}
	for pos := 0; pos+1 < len(path.Nodes); pos++ {
		key := edgeKey(path.Nodes[pos], path.Nodes[pos+1])
		f := 0.0
		if ep, ok := g.EdgeBetween(row[pos], row[pos+1]); ok {
			f = g.PrEdge(ep, q.Label(key[0]), q.Label(key[1]))
		}
		edge = append(edge, f)
	}
	for pos := 0; pos+1 < len(path.Nodes); pos++ {
		a, b := path.Nodes[pos], path.Nodes[pos+1]
		if kg.dec.CoverEdge[edgeKey(a, b)] != p {
			continue
		}
		ep, ok := g.EdgeBetween(row[pos], row[pos+1])
		if !ok {
			w1 = 0
			break
		}
		w1 *= g.PrEdge(ep, q.Label(a), q.Label(b))
	}
	return w1, lab, edge
}

// matchesLookup holds the sequential build to the reference: every link set
// and every float column, bit for bit, w2 to Graph.Prn of the row. It returns the number of links
// compared, split by how joinable had to come by the union's Prn: shared
// counts the links whose two rows put two entities into one identity
// component (Prn evaluated over the union), fresh the others (one Exist per
// node carried forward).
func matchesLookup(t *testing.T, label string, kg *Graph, q *query.Query) (shared, fresh int) {
	t.Helper()
	ref := newLookupRef(kg, q)
	for pair := range kg.dec.Joins {
		a, b := pair[0], pair[1]
		ab, ba := ref.links(a, b)
		if !slices.Equal(ab.offs, kg.links[a][b].offs) || !slices.Equal(ab.pool, kg.links[a][b].pool) ||
			!slices.Equal(ba.offs, kg.links[b][a].offs) || !slices.Equal(ba.pool, kg.links[b][a].pool) {
			t.Fatalf("%s: links of pair (%d,%d) differ from the look-up, map-and-sort construction", label, a, b)
		}
		for i := 0; i < kg.parts[a].n; i++ {
			for _, j := range ab.row(i) {
				comps := map[int32]entity.ID{}
				twice := false
				for _, v := range append(slices.Clone(kg.Row(a, i)), kg.Row(b, int(j))...) {
					if u, seen := comps[kg.g.Comp(v)]; seen && u != v {
						twice = true
					}
					comps[kg.g.Comp(v)] = v
				}
				if twice {
					shared++
				} else {
					fresh++
				}
			}
		}
	}
	for p, part := range kg.parts {
		elen := part.elen
		for i := 0; i < part.n; i++ {
			w1, lab, edge := ref.weights(p, i)
			if math.Float64bits(w1) != math.Float64bits(part.w1[i]) {
				t.Fatalf("%s: partition %d w1[%d] = %v, looked up %v", label, p, i, part.w1[i], w1)
			}
			if w2 := kg.g.Prn(kg.Row(p, i)); math.Float64bits(w2) != math.Float64bits(part.w2[i]) {
				t.Fatalf("%s: partition %d w2[%d] = %v, Graph.Prn of the row %v", label, p, i, part.w2[i], w2)
			}
			if !slices.EqualFunc(lab, part.lab[i*part.plen:(i+1)*part.plen], sameBits) || !slices.EqualFunc(edge, part.edge[i*elen:(i+1)*elen], sameBits) {
				t.Fatalf("%s: partition %d row %d factor columns differ from the looked-up factors", label, p, i)
			}
		}
	}
	return shared, fresh
}

func sameBits(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }

// TestBuildParallelEquivalence: the k-partite arenas built at workers 2, 4,
// and 8 are byte-identical to the single-threaded build, across both
// decomposition strategies and α on both sides of β on seeded synthetic
// graphs — and the single-threaded build's link sets, w1 and factor columns
// are byte-identical to lookupRef's, and w2 to Graph.Prn of each row. The dense arm links enough references
// that joinable's two ways to the union's Prn are both taken, and both must
// have produced links.
func TestBuildParallelEquivalence(t *testing.T) {
	for _, arm := range []struct {
		name  string
		opt   gen.SynthOptions
		dense bool
	}{
		{"default-linkage", gen.SynthOptions{Refs: 30, EdgeFactor: 2, Labels: 4, UncertainFrac: 0.4, Groups: 2, GroupSize: 3, PairsPerGroup: 2}, false},
		{"dense-linkage", gen.SynthOptions{Refs: 60, EdgeFactor: 4, Labels: 2, UncertainFrac: 0.5, Groups: 12, GroupSize: 4, PairsPerGroup: 3}, true},
	} {
		t.Run(arm.name, func(t *testing.T) {
			shared, fresh := 0, 0
			for _, seed := range []int64{1, 2, 3} {
				arm.opt.Seed = seed
				d, err := gen.Synthetic(arm.opt)
				if err != nil {
					t.Fatal(err)
				}
				g, err := entity.Build(d, entity.BuildOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if linked := linkedShare(g); arm.dense && linked < 0.15 {
					t.Fatalf("seed %d: %.0f%% of entities sit in multi-member components, want ≥ 15%%", seed, 100*linked)
				}
				ix, err := pathindex.Build(context.Background(), g, pathindex.Options{
					MaxLen: 2, Beta: 0.05, Gamma: 0.1, Dir: filepath.Join(t.TempDir(), "ix"),
				})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { ix.Close() })

				rng := rand.New(rand.NewSource(seed * 977))
				for qi := 0; qi < 3; qi++ {
					q, err := gen.RandomQuery(rng, g.NumLabels(), 2+rng.Intn(2), 3)
					if err != nil {
						t.Fatal(err)
					}
					for _, mode := range []decompose.Mode{decompose.ModeOptimized, decompose.ModeRandom} {
						for _, alpha := range []float64{0.02, 0.1} { // β = 0.05 lies between
							dec, err := decompose.Decompose(q, ix, decompose.Options{
								MaxLen: 2, Alpha: alpha, Mode: mode, Seed: seed,
							})
							if err != nil {
								t.Fatal(err)
							}
							sets, _, err := candidates.Find(context.Background(), ix, q, dec, alpha, 1, nil)
							if err != nil {
								t.Fatal(err)
							}
							seq, err := Build(context.Background(), g, q, dec, sets, alpha, 1)
							if err != nil {
								t.Fatal(err)
							}
							label := fmt.Sprintf("seed %d q%d mode %d α=%v", seed, qi, mode, alpha)
							sh, fr := matchesLookup(t, label, seq, q)
							shared, fresh = shared+sh, fresh+fr
							for _, workers := range []int{2, 4, 8} {
								got, err := Build(context.Background(), g, q, dec, sets, alpha, workers)
								if err != nil {
									t.Fatalf("workers=%d: %v", workers, err)
								}
								graphsIdentical(t, fmt.Sprintf("%s w=%d", label, workers), seq, got)
							}
						}
					}
				}
			}
			t.Logf("%d links over a shared component, %d over new components only", shared, fresh)
			if shared+fresh == 0 {
				t.Error("no query produced a link; the comparison was vacuous")
			}
			if arm.dense && (shared == 0 || fresh == 0) {
				t.Errorf("%d links over a shared component and %d over new components only: one way to the union's Prn was never taken", shared, fresh)
			}
		})
	}
}

// linkedShare is the share of g's entities whose identity component has
// other members.
func linkedShare(g *entity.Graph) float64 {
	linked := 0
	for v := 0; v < g.NumNodes(); v++ {
		if len(g.ComponentOf(entity.ID(v)).Members) > 1 {
			linked++
		}
	}
	return float64(linked) / float64(g.NumNodes())
}
