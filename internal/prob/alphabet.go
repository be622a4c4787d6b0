// Package prob provides the probability primitives shared by the whole
// system: label alphabets, discrete label distributions, Bernoulli edge
// probabilities, and the merge functions of Definition 1 of the paper
// (mΣ and m{T,F}) used to aggregate reference-level distributions into
// entity-level ones.
package prob

import "fmt"

// LabelID is the interned form of a node label. Labels are interned through
// an Alphabet so that hot paths can use dense integer indices instead of
// strings.
type LabelID int32

// NoLabel is returned by lookups that fail.
const NoLabel LabelID = -1

// Alphabet is an immutable-after-construction mapping between label strings
// and dense LabelIDs. The zero value is empty and unusable; use NewAlphabet.
type Alphabet struct {
	names []string
	ids   map[string]LabelID
}

// NewAlphabet interns the given labels in order. Duplicate labels are
// rejected so that IDs remain unambiguous.
func NewAlphabet(labels ...string) (*Alphabet, error) {
	a := &Alphabet{ids: make(map[string]LabelID, len(labels))}
	for _, l := range labels {
		if l == "" {
			return nil, fmt.Errorf("prob: empty label")
		}
		if _, dup := a.ids[l]; dup {
			return nil, fmt.Errorf("prob: duplicate label %q", l)
		}
		a.ids[l] = LabelID(len(a.names))
		a.names = append(a.names, l)
	}
	return a, nil
}

// MustAlphabet is NewAlphabet for static label sets known to be valid.
func MustAlphabet(labels ...string) *Alphabet {
	a, err := NewAlphabet(labels...)
	if err != nil {
		panic(err)
	}
	return a
}

// Len returns the number of labels in the alphabet.
func (a *Alphabet) Len() int { return len(a.names) }

// ID returns the LabelID for the given label, or NoLabel if absent.
func (a *Alphabet) ID(label string) LabelID {
	if id, ok := a.ids[label]; ok {
		return id
	}
	return NoLabel
}

// Name returns the label string for id. It panics on out-of-range ids, which
// indicate corrupted data rather than user error.
func (a *Alphabet) Name(id LabelID) string {
	return a.names[id]
}

// Names returns a copy of all labels in ID order.
func (a *Alphabet) Names() []string {
	out := make([]string, len(a.names))
	copy(out, a.names)
	return out
}
