package pathindex

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/entity"
	"repro/internal/gen"
	"repro/internal/prob"
)

// opath is the reference enumeration's path: a fixed-size node and label
// stack, copied at every edge.
type opath struct {
	n      uint8
	nodes  [maxNodes]entity.ID
	labels [maxNodes]prob.LabelID
}

func (p *opath) contains(v entity.ID) bool {
	for i := uint8(0); i < p.n; i++ {
		if p.nodes[i] == v {
			return true
		}
	}
	return false
}

// lookupBeforeScan is Index.Lookup as it stood before Scan existed, kept here
// only as the reference the streamed read path is held to: on-demand
// enumeration that copies the path at every edge and allocates every match,
// and the indexed arm that decodes into an upper-bound-sized arena.
func lookupBeforeScan(ix *Index, X []prob.LabelID, alpha float64) ([]PathMatch, error) {
	if len(X) == 0 || len(X) > maxNodes {
		return nil, fmt.Errorf("pathindex: label sequence length %d out of range", len(X))
	}
	if len(X)-1 > ix.opt.MaxLen {
		return nil, fmt.Errorf("pathindex: sequence of %d labels exceeds indexed length L=%d", len(X), ix.opt.MaxLen)
	}
	rev, palin := orientation(X)
	canon := X
	if rev {
		canon = reverseLabels(X)
	}
	var out []PathMatch
	orient := func(m PathMatch) {
		switch {
		case palin && len(m.Nodes) > 1:
			out = append(out, m, PathMatch{Nodes: reversedNodes(m.Nodes), Prle: m.Prle, Prn: m.Prn})
		case rev:
			m.Nodes = reversedNodes(m.Nodes)
			out = append(out, m)
		default:
			out = append(out, m)
		}
	}
	switch {
	case alpha < ix.opt.Beta:
		g := ix.g
		var extend func(p *opath, prle0, prn0 float64)
		extend = func(p *opath, prle0, prn0 float64) {
			if int(p.n) == len(X) {
				out = append(out, PathMatch{Nodes: append([]entity.ID(nil), p.nodes[:p.n]...), Prle: prle0, Prn: prn0})
				return
			}
			tail := p.nodes[p.n-1]
			next := X[p.n]
			for _, nb := range g.Neighbors(tail) {
				if p.contains(nb.To) {
					continue
				}
				lp := g.PrLabel(nb.To, next)
				if lp == 0 {
					continue
				}
				conflict := false
				for i := uint8(0); i < p.n; i++ {
					if u := p.nodes[i]; u != tail && g.RefsOverlap(u, nb.To) {
						conflict = true
						break
					}
				}
				if conflict {
					continue
				}
				prn := g.Prn(append(append([]entity.ID(nil), p.nodes[:p.n]...), nb.To))
				if prn == 0 {
					continue
				}
				prle := prle0 * g.PrEdge(nb, p.labels[p.n-1], next) * lp
				if !prob.MayClear(prle*prn, alpha, PathFactors(len(X))) {
					continue
				}
				np := *p
				np.nodes[np.n] = nb.To
				np.labels[np.n] = next
				np.n++
				extend(&np, prle, prn)
			}
		}
		for v := 0; v < g.NumNodes(); v++ {
			id := entity.ID(v)
			lp := g.PrLabel(id, X[0])
			if lp == 0 {
				continue
			}
			exist := g.Exist(id)
			if !prob.MayClear(lp*exist, alpha, PathFactors(len(X))) {
				continue
			}
			cur := opath{n: 1}
			cur.nodes[0] = id
			cur.labels[0] = X[0]
			extend(&cur, lp, exist)
		}
		return out, nil
	default:
		var lbl [maxNodes]uint16
		for i, l := range canon {
			lbl[i] = uint16(l)
		}
		s, ok := ix.packed.FindSeq(lbl[:len(canon)])
		if !ok {
			return nil, nil
		}
		err := s.Decode(int(bucketOf(prob.Floor(alpha, PathFactors(len(X))), ix.opt.Beta, ix.opt.Gamma)), func(_ int, nodes []uint32, prle, prn float64) bool {
			if !prob.MayClear(prle*prn, alpha, PathFactors(len(X))) {
				return true
			}
			m := PathMatch{Nodes: make([]entity.ID, len(nodes)), Prle: prle, Prn: prn}
			for i, n := range nodes {
				m.Nodes[i] = entity.ID(n)
			}
			orient(m)
			return true
		})
		return out, err
	}
}

// scanStream records a Scan's stream, copying each record inside the
// callback as the aliasing contract demands.
func scanStream(t *testing.T, r Reader, X []prob.LabelID, alpha float64) []PathMatch {
	t.Helper()
	var out []PathMatch
	err := r.Scan(X, alpha, func(nodes []entity.ID, prle, prn float64) bool {
		out = append(out, PathMatch{Nodes: append([]entity.ID(nil), nodes...), Prle: prle, Prn: prn})
		return true
	})
	if err != nil {
		t.Fatalf("Scan(%v, %v): %v", X, alpha, err)
	}
	return out
}

func sameStream(a, b []PathMatch) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d records, want %d", len(a), len(b))
	}
	for i := range a {
		if !reflect.DeepEqual(a[i].Nodes, b[i].Nodes) ||
			math.Float64bits(a[i].Prle) != math.Float64bits(b[i].Prle) ||
			math.Float64bits(a[i].Prn) != math.Float64bits(b[i].Prn) {
			return fmt.Errorf("record %d: %+v, want %+v", i, a[i], b[i])
		}
	}
	return nil
}

// TestScanEqualsLookupBeforeScan is the read-path half of the pre-join
// equivalence property: over seeded gen.Synthetic PGDs, every label
// sequence up to L+1 labels (both orientations and palindromes fall out of
// the enumeration) and α on both sides of β, Scan's record
// stream and Lookup's result equal the pre-change Lookup — same order, same
// nodes, same float bits. It also holds Scan to stopping when told to.
func TestScanEqualsLookupBeforeScan(t *testing.T) {
	const beta = 0.2
	for seed := int64(1); seed <= 3; seed++ {
		d, err := gen.Synthetic(gen.SynthOptions{
			Refs: 40, EdgeFactor: 2, Labels: 3, UncertainFrac: 0.5,
			Groups: 3, GroupSize: 3, PairsPerGroup: 2, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		g, err := entity.Build(d, entity.BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ix := buildIndex(t, g, Options{MaxLen: 2, Beta: beta, Gamma: 0.1})
		records := 0
		var probe func(X []prob.LabelID)
		probe = func(X []prob.LabelID) {
			if len(X) > 0 {
				for _, alpha := range []float64{0.03, beta - 1e-9, beta, 0.35, 0.8} {
					label := fmt.Sprintf("seed %d X=%v α=%v", seed, X, alpha)
					want, err := lookupBeforeScan(ix, X, alpha)
					if err != nil {
						t.Fatalf("%s: reference: %v", label, err)
					}
					if err := sameStream(scanStream(t, ix, X, alpha), want); err != nil {
						t.Fatalf("%s: Scan: %v", label, err)
					}
					got, err := ix.Lookup(X, alpha)
					if err != nil {
						t.Fatalf("%s: Lookup: %v", label, err)
					}
					if err := sameStream(got, want); err != nil {
						t.Fatalf("%s: Lookup: %v", label, err)
					}
					records += len(want)
					if len(want) > 1 {
						calls := 0
						if err := ix.Scan(X, alpha, func([]entity.ID, float64, float64) bool {
							calls++
							return false
						}); err != nil || calls != 1 {
							t.Fatalf("%s: stopped scan made %d calls, err %v", label, calls, err)
						}
					}
				}
			}
			if len(X) == 3 {
				return
			}
			for l := 0; l < g.NumLabels(); l++ {
				probe(append(X[:len(X):len(X)], prob.LabelID(l)))
			}
		}
		probe(nil)
		if records == 0 {
			t.Fatalf("seed %d: no probe returned a record", seed)
		}
	}
}

// TestScanRejectsBadSequences: Scan validates like Lookup did, before the
// first callback, and Lookup passes the error through.
func TestScanRejectsBadSequences(t *testing.T) {
	ix := buildIndex(t, motivating(t), Options{MaxLen: 1, Beta: 0.02, Gamma: 0.1})
	never := func([]entity.ID, float64, float64) bool { t.Fatal("callback on a rejected scan"); return false }
	for _, X := range [][]prob.LabelID{nil, {0, 0, 0}, make([]prob.LabelID, maxNodes+1)} {
		if err := ix.Scan(X, 0.5, never); err == nil {
			t.Errorf("Scan accepted a sequence of %d labels", len(X))
		}
		if _, err := ix.Lookup(X, 0.5); err == nil {
			t.Errorf("Lookup accepted a sequence of %d labels", len(X))
		}
	}
}
