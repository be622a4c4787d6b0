package refgraph_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/gen"
	"repro/internal/refgraph"
)

// TestSaveBytesUnchanged pins the PGD snapshot bytes on two corpora: a
// synthetic one with dense linkage (many reference sets, uncertain labels)
// and the DBLP stand-in, whose every edge carries a CPT. It also checks that
// Load∘Save is the identity on them.
func TestSaveBytesUnchanged(t *testing.T) {
	for _, tc := range []struct {
		name string
		pgd  func() (*refgraph.PGD, error)
		want string
	}{
		{"synthetic-dense-linkage", func() (*refgraph.PGD, error) {
			return gen.Synthetic(gen.SynthOptions{
				Refs: 800, Groups: 80, GroupSize: 4, PairsPerGroup: 6, UncertainFrac: 0.4, Seed: 21,
			})
		}, "dde3b0055fbcd193eab3ca7ecc0f27041f08fb8e934731ca3e5a739eddff7d11"},
		{"dblp", func() (*refgraph.PGD, error) {
			return gen.DBLP(gen.DBLPOptions{Authors: 600, Seed: 22})
		}, "6d1df8d7a6ca72a221007cfb47244739286e456386e8b53b409be102020ce00e"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, err := tc.pgd()
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := d.Save(&buf); err != nil {
				t.Fatalf("Save: %v", err)
			}
			first := buf.Bytes()
			sum := sha256.Sum256(first)
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Errorf("sha256(Save) = %s, want %s (%d bytes, %d refs, %d edges, %d sets)",
					got, tc.want, len(first), d.NumRefs(), d.NumEdges(), d.NumSets())
			}
			lg, err := refgraph.Load(bytes.NewReader(first))
			if err != nil {
				t.Fatalf("Load: %v", err)
			}
			var again bytes.Buffer
			if err := lg.Save(&again); err != nil {
				t.Fatalf("Save: %v", err)
			}
			if !bytes.Equal(again.Bytes(), first) {
				t.Error("Save∘Load∘Save differs from Save")
			}
		})
	}
}
