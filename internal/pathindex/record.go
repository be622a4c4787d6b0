// Package pathindex implements the context-aware path index of Section 5.1:
// a two-level disk index over all paths of the probabilistic entity graph
// with length at most L and probability at least β, keyed by
// ⟨label sequence, probability bucket⟩, together with the per-node context
// information (c, ppu, fpu) and the cardinality histograms used for query
// decomposition (Section 5.2.1).
//
// The first level interns canonical label sequences in a persistent hash
// dictionary; the second level is a B+ tree whose composite keys
// (seqID ‖ bucket ‖ recno) sort entries of one sequence by probability
// bucket, enabling the α-threshold range scans of the online phase.
package pathindex

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/entity"
	"repro/internal/prob"
)

// MaxSupportedLen is the largest supported path length L (edges per path).
// The paper evaluates L ∈ {1, 2, 3}; the fixed-size record layout leaves
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

// seqBytes encodes a label sequence as big-endian 16-bit labels, preserving
// lexicographic order.
func seqBytes(labels []prob.LabelID) []byte {
	b := make([]byte, 2*len(labels))
	for i, l := range labels {
		binary.BigEndian.PutUint16(b[2*i:], uint16(l))
	}
	return b
}

// reverseLabels returns the reversed copy of a label sequence.
func reverseLabels(labels []prob.LabelID) []prob.LabelID {
	out := make([]prob.LabelID, len(labels))
	for i, l := range labels {
		out[len(labels)-1-i] = l
	}
	return out
}

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

// canonicalSeq returns the canonical (stored) form of a label sequence:
// min(X, reverse(X)) — the symmetry optimization of Section 5.1 — along with
// whether the input had to be reversed and whether it is palindromic.
func canonicalSeq(labels []prob.LabelID) (canon []prob.LabelID, reversed, palindrome bool) {
	rev := reverseLabels(labels)
	switch compareLabels(labels, rev) {
	case 0:
		return labels, false, true
	case -1:
		return labels, false, false
	default:
		return rev, true, false
	}
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

// Key layout: seqID (8B BE) ‖ bucket (2B BE) ‖ recno (4B BE). Big-endian
// fields make byte order equal numeric order, so one range scan covers
// "all entries of X with bucket ≥ b".
const keyLen = 8 + 2 + 4

func encodeKey(seqID uint64, bucket uint16, recno uint32) []byte {
	k := make([]byte, keyLen)
	binary.BigEndian.PutUint64(k[0:], seqID)
	binary.BigEndian.PutUint16(k[8:], bucket)
	binary.BigEndian.PutUint32(k[10:], recno)
	return k
}

// Record layout: count (1B) ‖ nodes (4B each) ‖ Prle (8B) ‖ Prn (8B).
func encodeRecord(nodes []entity.ID, prle, prn float64) []byte {
	v := make([]byte, 1+4*len(nodes)+16)
	v[0] = byte(len(nodes))
	off := 1
	for _, n := range nodes {
		binary.LittleEndian.PutUint32(v[off:], uint32(n))
		off += 4
	}
	binary.LittleEndian.PutUint64(v[off:], math.Float64bits(prle))
	binary.LittleEndian.PutUint64(v[off+8:], math.Float64bits(prn))
	return v
}

// decodeRecord decodes a record into dst (at least maxNodes long); the
// returned nodes alias dst.
func decodeRecord(v []byte, dst []entity.ID) (nodes []entity.ID, prle, prn float64, err error) {
	if len(v) < 1 {
		return nil, 0, 0, fmt.Errorf("pathindex: empty record")
	}
	n := int(v[0])
	if n == 0 || n > maxNodes || len(v) != 1+4*n+16 {
		return nil, 0, 0, fmt.Errorf("pathindex: corrupt record (%d nodes, %d bytes)", n, len(v))
	}
	nodes = dst[:n]
	off := 1
	for i := range nodes {
		nodes[i] = entity.ID(binary.LittleEndian.Uint32(v[off:]))
		off += 4
	}
	prle = math.Float64frombits(binary.LittleEndian.Uint64(v[off:]))
	prn = math.Float64frombits(binary.LittleEndian.Uint64(v[off+8:]))
	return nodes, prle, prn, nil
}
