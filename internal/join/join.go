// Package join implements Section 5.2.5, "Finding Full Query Matches": the
// join-order heuristic and the incremental extension of partial matches
// along the reduced candidate k-partite graph, with exact final probability
// and reference-disjointness checks.
//
// The enumeration is depth-first over a precomputed per-run plan with all
// mutable state in a reusable per-worker scratch (see scratch.go), so it
// allocates nothing per match: Enumerate (see enumerate.go) hands its sink a
// match whose mapping is the scratch's own assignment array, and whoever
// keeps a match copies it. The first partition's candidates are split into
// morsels consumed by one or more workers.
package join

import (
	"cmp"
	"slices"

	"repro/internal/decompose"
	"repro/internal/entity"
)

// Match is a full query match: the mapping ψ from query nodes to entities
// and the probability components of Eq. 11.
type Match struct {
	Mapping []entity.ID // indexed by query node id
	Prle    float64
	Prn     float64
}

// Pr returns Pr(M) = Prle · Prn.
func (m Match) Pr() float64 { return m.Prle * m.Prn }

// OrderMode selects the join-order heuristic.
type OrderMode int

const (
	// OrderHeuristic is the paper's three-tier rule: most node overlap with
	// the ordered prefix, then most join predicates, then smallest
	// cardinality.
	OrderHeuristic OrderMode = iota
	// OrderByCardinality sorts by estimated cardinality only — the ordering
	// used by the Random decomposition baseline.
	OrderByCardinality
)

// Order returns a join order over the decomposition's partitions, ranked by
// the histograms' estimated cardinalities.
func Order(dec *decompose.Decomposition, mode OrderMode) []int {
	return OrderWithCards(dec, mode, nil)
}

// OrderWithCards is Order with the per-partition cardinalities overridden:
// cards[i] replaces the estimate dec.Paths[i].Card (nil falls back to the
// estimates). The executor's adaptive join reorder feeds the observed
// candidate counts through it after candidate retrieval, so the order
// reflects what the index actually returned instead of what the offline
// histograms predicted. Ties break by partition id, making the order fully
// deterministic.
func OrderWithCards(dec *decompose.Decomposition, mode OrderMode, cards []float64) []int {
	k := len(dec.Paths)
	if k == 0 {
		return nil
	}
	card := func(p int) float64 {
		if cards != nil {
			return cards[p]
		}
		return dec.Paths[p].Card
	}
	if mode == OrderByCardinality {
		order := make([]int, k)
		for i := range order {
			order[i] = i
		}
		slices.SortFunc(order, func(a, b int) int {
			if c := cmp.Compare(card(a), card(b)); c != 0 {
				return c
			}
			return a - b
		})
		return order
	}

	n := 0 // query nodes: one past the largest on any path
	for p := range dec.Paths {
		for _, v := range dec.Paths[p].Nodes {
			n = max(n, int(v)+1)
		}
	}
	used := make([]bool, k+n)
	inOrder := used[k:]
	order := make([]int, 0, k)
	for len(order) < k {
		best, bestOverlap, bestPreds := -1, -1, -1
		bestCard := 0.0
		for p := 0; p < k; p++ {
			if used[p] {
				continue
			}
			overlap := 0
			for _, n := range dec.Paths[p].Nodes {
				if inOrder[n] {
					overlap++
				}
			}
			preds := 0
			for _, o := range order {
				preds += dec.NumPreds(p, o)
			}
			pcard := card(p)
			better := false
			switch {
			case overlap > bestOverlap:
				better = true
			case overlap == bestOverlap && preds > bestPreds:
				better = true
			case overlap == bestOverlap && preds == bestPreds && (best < 0 || pcard < bestCard):
				better = true
			}
			if better {
				best, bestOverlap, bestPreds, bestCard = p, overlap, preds, pcard
			}
		}
		used[best] = true
		order = append(order, best)
		for _, n := range dec.Paths[best].Nodes {
			inOrder[n] = true
		}
	}
	return order
}
