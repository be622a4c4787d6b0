package entity

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"

	"repro/internal/refgraph"
)

// DenseLinkagePGD lends the dense corpus to the external test package.
var DenseLinkagePGD = denseLinkagePGD

func saveBytes(t testing.TB, g *Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	return buf.Bytes()
}

// TestSaveBytesUnchanged pins the PEG1 snapshot: the hashes were recorded
// from the pointer-based Graph that preceded the columnar one (commit
// 22c7485), so the in-memory layout is free to change while the bytes on
// disk — and with them component numbering and adjacency order, after a
// Build and after a chain of deltas — are not.
func TestSaveBytesUnchanged(t *testing.T) {
	for _, tc := range []struct {
		name    string
		pgd     func(testing.TB, int) *refgraph.PGD
		refs    int
		batches int // ApplyDelta batches folded in before saving
		want    string
	}{
		{"default-linkage", defaultLinkagePGD, 2000, 0, "778becfda843563c79b5ea6ffce58c8e8a2dfdecf6a0808778f23f9970dac827"},
		{"dense-linkage-cpt", denseLinkagePGD, 600, 0, "826e11c675a0a6159b23b510a5a8072a37acfee40a1fe5b9ea8e0cdfabb3331a"},
		{"dense-linkage-cpt-delta", denseLinkagePGD, 600, 12, "ffaff6b74258ca14d5e0353c2162edabda20b13cb1074f6dbac3ffad45d5afa8"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := tc.pgd(t, tc.refs)
			g, err := Build(d, BuildOptions{})
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			rng := rand.New(rand.NewSource(5))
			for b := 0; b < tc.batches; b++ {
				if g, _, err = ApplyDelta(g, d, applyRandomDelta(t, rng, d), BuildOptions{}); err != nil {
					t.Fatalf("ApplyDelta: %v", err)
				}
			}
			first := saveBytes(t, g)
			sum := sha256.Sum256(first)
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Errorf("sha256(Save) = %s, want %s (%d bytes, %d entities, %d of %d components stored)",
					got, tc.want, len(first), g.NumNodes(), len(g.multi), g.NumComponents())
			}
			lg, err := Load(bytes.NewReader(first))
			if err != nil {
				t.Fatalf("Load: %v", err)
			}
			if !bytes.Equal(saveBytes(t, lg), first) {
				t.Error("Save∘Load∘Save differs from Save")
			}
			if tc.batches == 0 && lg.Bytes() != g.Bytes() {
				t.Errorf("the reloaded graph holds %d bytes, the built one %d", lg.Bytes(), g.Bytes())
			}
		})
	}
}
