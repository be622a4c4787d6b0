package entity

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/refgraph"
)

// prnByMemo is Prn as it was before single-node components took the
// Node.Exist shortcut: every component's mask, one bit or many, is looked
// up through MarginalAll's memo map.
func prnByMemo(g *Graph, nodes []ID) float64 {
	if len(nodes) == 0 {
		return 1
	}
	var comps []int32
	masks := map[int32]uint64{}
	for _, v := range nodes {
		nd := g.Node(v)
		if _, ok := masks[nd.Comp]; !ok {
			comps = append(comps, nd.Comp)
		}
		masks[nd.Comp] |= uint64(1) << nd.CompPos
	}
	p := 1.0
	for _, c := range comps {
		p *= g.Component(int(c)).MarginalAll(masks[c])
		if p == 0 {
			return 0
		}
	}
	return p
}

// TestPrnExistShortcutBitwise: Prn and PrnPair equal the all-memo path bit
// for bit on random node sets — drawn so that components are often shared
// between several nodes of a set, and with duplicates — over graphs that
// were built, incrementally maintained (components shared with the old
// graph), and reloaded from a snapshot (Exist read back, not recomputed).
// Also pins MaxRef on every one of those construction paths.
func TestPrnExistShortcutBitwise(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed * 17))
		d, err := gen.Synthetic(gen.SynthOptions{
			Refs: 40, EdgeFactor: 2, Labels: 3, UncertainFrac: 0.5,
			Groups: 4, GroupSize: 4, PairsPerGroup: 3, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		built, err := Build(d, BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		delta, _, err := ApplyDelta(built, d, applyRandomDelta(t, rng, d), BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var snap bytes.Buffer
		if err := delta.Save(&snap); err != nil {
			t.Fatal(err)
		}
		reloaded, err := Load(&snap)
		if err != nil {
			t.Fatal(err)
		}
		for name, g := range map[string]*Graph{"built": built, "delta": delta, "reloaded": reloaded} {
			label := fmt.Sprintf("seed %d %s", seed, name)
			wantMax := refgraph.RefID(-1)
			for v := 0; v < g.NumNodes(); v++ {
				for _, r := range g.Refs(ID(v)) {
					wantMax = max(wantMax, r)
				}
			}
			if g.MaxRef() != wantMax {
				t.Fatalf("%s: MaxRef = %d, want %d", label, g.MaxRef(), wantMax)
			}
			for trial := 0; trial < 400; trial++ {
				nodes := make([]ID, 1+rng.Intn(6))
				for i := range nodes {
					if i > 0 && rng.Intn(3) == 0 {
						// Same component as the previous node (possibly the
						// same node): a multi-bit mask, or a duplicate.
						ms := g.ComponentOf(nodes[i-1]).Members
						nodes[i] = ms[rng.Intn(len(ms))]
					} else {
						nodes[i] = ID(rng.Intn(g.NumNodes()))
					}
				}
				if got, want := g.Prn(nodes), prnByMemo(g, nodes); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: Prn(%v) = %v, memo path %v", label, nodes, got, want)
				}
				if len(nodes) >= 2 {
					pair := nodes[:2]
					if got, want := g.PrnPair(pair[0], pair[1]), prnByMemo(g, pair); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s: PrnPair(%v) = %v, memo path %v", label, pair, got, want)
					}
				}
			}
		}
	}
}
