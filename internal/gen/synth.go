// Package gen generates the paper's workloads: synthetic preferential-
// attachment reference networks with Zipf-skewed probability annotations
// (Section 6), the query shapes of the evaluation (random q(n,m) queries,
// cycles, and the Figure 8 patterns), and the DBLP-like and IMDB-like
// real-world stand-ins of Section 6.3.
package gen

import (
	"fmt"
	"math/rand"

	"repro/internal/prob"
	"repro/internal/refgraph"
)

// SynthOptions parameterizes the synthetic generator exactly as Section 6
// describes: structure from preferential attachment, relations = EdgeFactor
// × references, Zipf-skewed node label and edge probabilities, k reference
// groups of size s with r merged pairs each, and probability distributions
// on an UncertainFrac fraction of references, relations, and reference sets.
type SynthOptions struct {
	Refs          int     // number of references
	EdgeFactor    float64 // relations per reference (paper: 5)
	Labels        int     // |Σ| (0 → 6)
	UncertainFrac float64 // fraction with probability distributions (paper default: 0.2)
	Groups        int     // k (0 → Refs/1000, min 1)
	GroupSize     int     // s (0 → 4)
	PairsPerGroup int     // r (0 → 4)
	Seed          int64
}

func (o *SynthOptions) normalize() error {
	if o.Refs < 2 {
		return fmt.Errorf("gen: need at least 2 references, got %d", o.Refs)
	}
	if o.EdgeFactor <= 0 {
		o.EdgeFactor = 5
	}
	if o.Labels <= 0 {
		o.Labels = 6
	}
	if o.UncertainFrac < 0 || o.UncertainFrac > 1 {
		return fmt.Errorf("gen: UncertainFrac %v out of range", o.UncertainFrac)
	}
	if o.UncertainFrac == 0 {
		o.UncertainFrac = 0.2
	}
	if o.Groups <= 0 {
		o.Groups = o.Refs / 1000
		if o.Groups < 1 {
			o.Groups = 1
		}
	}
	if o.GroupSize <= 0 {
		o.GroupSize = 4
	}
	if o.PairsPerGroup <= 0 {
		o.PairsPerGroup = 4
	}
	// The group draw below looks for GroupSize distinct references and
	// would never finish with fewer.
	if o.Refs < o.GroupSize {
		return fmt.Errorf("gen: fewer references (%d) than GroupSize=%d", o.Refs, o.GroupSize)
	}
	return nil
}

// SynthAlphabet returns the synthetic label alphabet l0…l(n-1).
func SynthAlphabet(n int) *prob.Alphabet {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("l%d", i)
	}
	return prob.MustAlphabet(names...)
}

// Synthetic builds a synthetic PGD per Section 6.
func Synthetic(opt SynthOptions) (*refgraph.PGD, error) {
	if err := opt.normalize(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	alpha := SynthAlphabet(opt.Labels)
	d := refgraph.New(alpha)

	n := opt.Refs

	// Node labels: uncertain references get a Zipf-weighted random
	// distribution, the rest a deterministic random label.
	for i := 0; i < n; i++ {
		if rng.Float64() < opt.UncertainFrac {
			d.AddReference(prob.ZipfDist(rng, opt.Labels))
		} else {
			d.AddReference(prob.Point(prob.LabelID(rng.Intn(opt.Labels))))
		}
	}

	// Structure: preferential attachment with m = EdgeFactor edges per
	// new node (the Barabási–Albert model cited by the paper).
	m := int(opt.EdgeFactor + 0.5)
	if m < 1 {
		m = 1
	}
	addEdge := func(a, b int) {
		e := refgraph.EdgeDist{P: 1}
		if rng.Float64() < opt.UncertainFrac {
			e.P = zipfEdgeProb(rng)
		}
		// AddEdge overwrites duplicates, keeping edge counts approximate
		// like the paper's generator.
		_ = d.AddEdge(refgraph.RefID(a), refgraph.RefID(b), e)
	}
	// degreeTargets holds one entry per edge endpoint for degree-biased
	// sampling.
	targets := make([]int, 0, n*2*m)
	start := m
	if start >= n {
		start = 1
	}
	for i := 1; i <= start && i < n; i++ {
		addEdge(i-1, i)
		targets = append(targets, i-1, i)
	}
	for i := start + 1; i < n; i++ {
		v := i
		attached := make(map[int]bool, m)
		for e := 0; e < m; e++ {
			var to int
			for tries := 0; ; tries++ {
				to = targets[rng.Intn(len(targets))]
				if to != v && !attached[to] {
					break
				}
				if tries > 16 {
					to = rng.Intn(i)
					if to == v || attached[to] {
						to = (v + 1 + rng.Intn(i)) % i
					}
					break
				}
			}
			if to == v || attached[to] {
				continue
			}
			attached[to] = true
			addEdge(v, to)
			targets = append(targets, v, to)
		}
	}

	// Reference sets: k groups of size s, r random pairs per group.
	for gi := 0; gi < opt.Groups; gi++ {
		group := make([]refgraph.RefID, 0, opt.GroupSize)
		seen := make(map[refgraph.RefID]bool, opt.GroupSize)
		for len(group) < opt.GroupSize {
			r := refgraph.RefID(rng.Intn(n))
			if !seen[r] {
				seen[r] = true
				group = append(group, r)
			}
		}
		made := make(map[[2]refgraph.RefID]bool, opt.PairsPerGroup)
		for p := 0; p < opt.PairsPerGroup; p++ {
			a := group[rng.Intn(len(group))]
			b := group[rng.Intn(len(group))]
			if a == b {
				continue
			}
			key := refgraph.MakeEdgeKey(a, b)
			pk := [2]refgraph.RefID{key.A, key.B}
			if made[pk] {
				continue
			}
			made[pk] = true
			// Only the uncertain fraction of candidate pairs become
			// reference sets ("we associate probability distributions with
			// 20% of the … reference sets"); merge probabilities are random
			// and strictly below 1 — overlapping certain (p=1) sets would
			// contradict each other (the transitive-closure constraint the
			// paper leaves to future work).
			if rng.Float64() >= opt.UncertainFrac {
				continue
			}
			pr := 0.05 + 0.9*rng.Float64()
			if _, err := d.AddReferenceSet([]refgraph.RefID{a, b}, pr); err != nil {
				return nil, err
			}
		}
	}
	return d, nil
}

// zipfEdgeProb draws an edge probability with the paper's Zipf skew,
// clamped into (0, 1].
func zipfEdgeProb(rng *rand.Rand) float64 {
	p := prob.ZipfProb(rng, 8)
	if p > 1 {
		p = 1
	}
	return p
}
