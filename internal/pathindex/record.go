// Package pathindex implements the context-aware path index of Section 5.1:
// a two-level disk index over all paths of the probabilistic entity graph
// with length at most L and probability at least β, keyed by
// ⟨label sequence, probability bucket⟩, together with the per-node context
// information (c, ppu, fpu) and the cardinality histograms used for query
// decomposition (Section 5.2.1).
//
// Both levels live in one packed.idx file (internal/storage/packedix): the
// first level is a sorted key table per path length, binary-searched on the
// canonical label sequence; the second is that sequence's postings grouped
// by probability bucket, so an α-threshold scan starts at bucket(α). The
// per-bucket posting counts stored with each key are the histograms.
package pathindex

import (
	"math"

	"repro/internal/entity"
	"repro/internal/prob"
)

// MaxSupportedLen is the largest supported path length L (edges per path).
// The paper evaluates L ∈ {1, 2, 3}; the fixed-size path scratch leaves
// headroom.
const MaxSupportedLen = 4

// maxNodes is the maximum number of nodes on an indexed path.
const maxNodes = MaxSupportedLen + 1

// PathMatch is one path retrieved from the index (or computed on demand):
// the node sequence and the two probability components stored with it.
type PathMatch struct {
	Nodes []entity.ID
	Prle  float64
	Prn   float64
}

// Pr returns the path's total probability Prle · Prn.
func (m PathMatch) Pr() float64 { return m.Prle * m.Prn }

// compareLabels orders label sequences lexicographically, shorter sequences
// first on ties.
func compareLabels(a, b []prob.LabelID) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

// orientation relates a label sequence X to its canonical (stored) form
// min(X, reverse(X)) — the symmetry optimization of Section 5.1 — without
// building the reverse: reversed when reverse(X) is the smaller, palindrome
// when the two are equal.
func orientation(labels []prob.LabelID) (reversed, palindrome bool) {
	for i, j := 0, len(labels)-1; i < j; i, j = i+1, j-1 {
		if labels[i] != labels[j] {
			return labels[j] < labels[i], false
		}
	}
	return false, true
}

// Bucketing: bucket i covers probabilities [β+iγ, β+(i+1)γ); probability 1
// lands in the last bucket.
func bucketOf(p, beta, gamma float64) uint16 {
	if p <= beta {
		return 0
	}
	b := int((p - beta) / gamma * (1 + 1e-12))
	max := numBuckets(beta, gamma) - 1
	if b > max {
		b = max
	}
	return uint16(b)
}

func numBuckets(beta, gamma float64) int {
	return int(math.Floor((1-beta)/gamma+1e-9)) + 1
}

// bucketFloor returns the grid probability at the low edge of bucket b.
func bucketFloor(b uint16, beta, gamma float64) float64 {
	return beta + float64(b)*gamma
}
