package entity

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"testing"

	"repro/internal/prob"
	"repro/internal/refgraph"
)

// digester feeds little-endian words into a SHA-256.
type digester struct {
	h   hash.Hash
	buf [8]byte
}

func (d *digester) u32(v uint32) {
	binary.LittleEndian.PutUint32(d.buf[:4], v)
	d.h.Write(d.buf[:4])
}

func (d *digester) u64(v uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], v)
	d.h.Write(d.buf[:])
}

func (d *digester) f64(v float64) { d.u64(math.Float64bits(v)) }

// graphDigest hashes everything the graph exposes, walked in id order: per
// entity its references, label row, existence and component number; its
// adjacency row in row order with each edge's base and label-conditioned
// probabilities; then every component's members and configurations. Two
// graphs with the same digest answer every query alike, and number their
// entities, components and adjacency entries alike.
func graphDigest(g *Graph) string {
	d := &digester{h: sha256.New()}
	nl := g.NumLabels()
	d.u32(uint32(g.Semantics()))
	d.u32(uint32(nl))
	d.u32(uint32(g.NumNodes()))
	d.u32(uint32(g.NumComponents()))
	for v := ID(0); int(v) < g.NumNodes(); v++ {
		refs := g.Refs(v)
		d.u32(uint32(len(refs)))
		for _, r := range refs {
			d.u32(uint32(r))
		}
		for _, p := range g.LabelRow(v) {
			d.f64(p)
		}
		d.f64(g.Exist(v))
		d.u32(uint32(g.Comp(v)))
		nbs := g.Neighbors(v)
		d.u32(uint32(len(nbs)))
		for _, nb := range nbs {
			d.u32(uint32(nb.To))
			d.f64(nb.Base())
			for l1 := 0; l1 < nl; l1++ {
				for l2 := 0; l2 < nl; l2++ {
					d.f64(g.PrEdge(nb, prob.LabelID(l1), prob.LabelID(l2)))
				}
			}
		}
	}
	for c := 0; c < g.NumComponents(); c++ {
		comp := g.Component(c)
		d.u32(uint32(len(comp.Members)))
		for _, m := range comp.Members {
			d.u32(uint32(m))
		}
		d.u32(uint32(len(comp.Configs)))
		for _, cfg := range comp.Configs {
			d.u64(cfg.Mask)
			d.f64(cfg.P)
		}
	}
	return hex.EncodeToString(d.h.Sum(nil))
}

// TestGraphDigestUnchanged pins graph content — and with it entity and
// component numbering and adjacency order — after a Build and after a chain
// of deltas, so the in-memory layout is free to change while what the graph
// answers is not.
func TestGraphDigestUnchanged(t *testing.T) {
	for _, tc := range []struct {
		name    string
		pgd     func(testing.TB, int) *refgraph.PGD
		refs    int
		batches int // ApplyDelta batches folded in before hashing
		want    string
	}{
		{"default-linkage", defaultLinkagePGD, 2000, 0, "0c2fb566896289fb4bdaa6860cd7c53777634b1e0f5990ad9740c49f75c45d2f"},
		{"dense-linkage-cpt", denseLinkagePGD, 600, 0, "df3056b6370d64d23ac4836b555296a8cbac682a1577d15bbd8cba6be83cd49f"},
		{"dense-linkage-cpt-delta", denseLinkagePGD, 600, 12, "7eeaabf02cfa16914a8e03e5325ec6adeea327fcaf9b77bccf93960667e7ebb1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := tc.pgd(t, tc.refs)
			g, err := Build(d, BuildOptions{})
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			rng := rand.New(rand.NewSource(5))
			for b := 0; b < tc.batches; b++ {
				if g, _, err = ApplyDelta(g, d, applyRandomDelta(t, rng, d)); err != nil {
					t.Fatalf("ApplyDelta: %v", err)
				}
			}
			if got := graphDigest(g); got != tc.want {
				t.Errorf("graphDigest = %s, want %s (%d entities, %d of %d components stored)",
					got, tc.want, g.NumNodes(), len(g.multi), g.NumComponents())
			}
		})
	}
}
