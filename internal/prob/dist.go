package prob

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Eps is the tolerance used when validating that distributions sum to one
// and when comparing probabilities for equality.
const Eps = 1e-9

// LabelProb is one (label, probability) entry of a sparse distribution.
type LabelProb struct {
	Label LabelID
	P     float64
}

// Dist is a sparse discrete probability distribution over labels, stored as
// entries sorted by LabelID with strictly positive probabilities. The zero
// value is an empty (invalid) distribution.
//
// Dist corresponds to pr(r.x) in Definition 1 and to the node label factors
// Pr(s.l) of Definition 2.
type Dist struct {
	entries []LabelProb
}

// NewDist builds a distribution from the given entries. Entries with zero
// probability are dropped; duplicates are rejected; the result must sum to
// one within Eps.
func NewDist(entries ...LabelProb) (Dist, error) {
	es := make([]LabelProb, 0, len(entries))
	for _, e := range entries {
		if !(e.P >= 0 && e.P <= 1+Eps) {
			return Dist{}, fmt.Errorf("prob: probability %v out of range for label %d", e.P, e.Label)
		}
		if e.P > 0 {
			es = append(es, e)
		}
	}
	sort.Slice(es, func(i, j int) bool { return es[i].Label < es[j].Label })
	sum := 0.0
	for i, e := range es {
		if i > 0 && es[i-1].Label == e.Label {
			return Dist{}, fmt.Errorf("prob: duplicate label %d in distribution", e.Label)
		}
		sum += e.P
	}
	if math.Abs(sum-1) > 1e-6 {
		return Dist{}, fmt.Errorf("prob: distribution sums to %v, want 1", sum)
	}
	return Dist{entries: es}, nil
}

// MustDist is NewDist for distributions known to be valid.
func MustDist(entries ...LabelProb) Dist {
	d, err := NewDist(entries...)
	if err != nil {
		panic(err)
	}
	return d
}

// Point returns the deterministic distribution that puts all mass on label.
func Point(label LabelID) Dist {
	return Dist{entries: []LabelProb{{Label: label, P: 1}}}
}

// IsZero reports whether d is the zero (unset) distribution.
func (d Dist) IsZero() bool { return len(d.entries) == 0 }

// P returns the probability of the given label (zero if absent): a linear
// scan of the sorted entries, of which there are at most |Σ| and typically
// two or three — fewer steps than a binary search's closure calls.
func (d Dist) P(label LabelID) float64 {
	for _, e := range d.entries {
		if e.Label >= label {
			if e.Label == label {
				return e.P
			}
			break
		}
	}
	return 0
}

// Support returns the labels with non-zero probability, in LabelID order.
// This is the set L(s) used to label nodes of the certain graph GU.
func (d Dist) Support() []LabelID {
	out := make([]LabelID, len(d.entries))
	for i, e := range d.entries {
		out[i] = e.Label
	}
	return out
}

// Entries returns a copy of the (label, probability) pairs in LabelID order.
func (d Dist) Entries() []LabelProb {
	out := make([]LabelProb, len(d.entries))
	copy(out, d.entries)
	return out
}

// MaxP returns the largest probability in the distribution (0 if empty).
func (d Dist) MaxP() float64 {
	m := 0.0
	for _, e := range d.entries {
		if e.P > m {
			m = e.P
		}
	}
	return m
}

// Equal reports whether two distributions are equal within Eps.
func (d Dist) Equal(o Dist) bool {
	if len(d.entries) != len(o.entries) {
		return false
	}
	for i := range d.entries {
		if d.entries[i].Label != o.entries[i].Label {
			return false
		}
		if math.Abs(d.entries[i].P-o.entries[i].P) > Eps {
			return false
		}
	}
	return true
}

// String renders the distribution using raw label ids, for debugging.
func (d Dist) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, e := range d.entries {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d:%.4g", e.Label, e.P)
	}
	b.WriteByte('}')
	return b.String()
}

// Format renders the distribution with label names from the alphabet.
func (d Dist) Format(a *Alphabet) string {
	var b strings.Builder
	b.WriteByte('{')
	for i, e := range d.entries {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s:%.4g", a.Name(e.Label), e.P)
	}
	b.WriteByte('}')
	return b.String()
}
