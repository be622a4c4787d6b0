package plan

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/entity"
	"repro/internal/join"
)

// sortMatchesBySlice is SortMatches as it was before it moved to
// slices.SortFunc: sort.Slice with the mapping-then-probability closure.
func sortMatchesBySlice(ms []join.Match) {
	sort.Slice(ms, func(i, j int) bool {
		a, b := ms[i], ms[j]
		for k := range a.Mapping {
			if a.Mapping[k] != b.Mapping[k] {
				return a.Mapping[k] < b.Mapping[k]
			}
		}
		return a.Pr() > b.Pr()
	})
}

// betterBySlice is the OrderByProb order as the match heap had it.
func betterBySlice(ms []join.Match) {
	sort.Slice(ms, func(i, j int) bool {
		pa, pb := ms[i].Pr(), ms[j].Pr()
		if pa != pb {
			return pa > pb
		}
		return slices.Compare(ms[i].Mapping, ms[j].Mapping) < 0
	})
}

// randomMatches draws n distinct matches of the given width over few ids
// (as few as leave room for 4n mappings) and few probability values, so
// both orders see plenty of ties on their first key; a quarter share a
// mapping with another match and differ only in probability.
func randomMatches(rng *rand.Rand, n, width int) []join.Match {
	ids := 6
	for math.Pow(float64(ids), float64(width)) < float64(4*n) {
		ids++
	}
	ms := make([]join.Match, 0, n)
	seen := map[string]bool{}
	for len(ms) < n {
		m := join.Match{Mapping: make([]entity.ID, width), Prle: float64(1+rng.Intn(8)) / 8, Prn: float64(1+rng.Intn(4)) / 4}
		if len(ms) > 0 && rng.Intn(4) == 0 {
			copy(m.Mapping, ms[rng.Intn(len(ms))].Mapping)
		} else {
			for k := range m.Mapping {
				m.Mapping[k] = entity.ID(rng.Intn(ids))
			}
		}
		// Distinct in (mapping, Pr): both orders are total, as they are over
		// a real answer, where a mapping occurs once.
		key := fmt.Sprint(m.Mapping, m.Pr())
		if !seen[key] {
			seen[key] = true
			ms = append(ms, m)
		}
	}
	return ms
}

func equalMatches(a, b []join.Match) bool {
	return slices.EqualFunc(a, b, func(x, y join.Match) bool {
		return slices.Equal(x.Mapping, y.Mapping) &&
			math.Float64bits(x.Prle) == math.Float64bits(y.Prle) && math.Float64bits(x.Prn) == math.Float64bits(y.Prn)
	})
}

// TestSortMatchesKeepsItsOrder: slices.SortFunc over compareMatches leaves any
// input exactly where sort.Slice with the old closure left it.
func TestSortMatchesKeepsItsOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 20; round++ {
		ms := randomMatches(rng, 1+rng.Intn(2000), 1+rng.Intn(5))
		want := slices.Clone(ms)
		sortMatchesBySlice(want)
		SortMatches(ms)
		if !equalMatches(want, ms) {
			t.Fatalf("round %d: SortMatches order differs from the sort.Slice form", round)
		}
	}
}

// TestStoresMergeToTheSortedAnswer: matches dealt at random to 1–8 stores —
// some left empty, some holding several chunks — and merged come out as the
// whole set in SortMatches' order (keep-all, OrderEmit), as the whole set in
// decreasing probability (keep-all, OrderByProb), and as its best `limit`
// (bounded stores: the heaps evict into reused rows and still hold every
// global top-limit match) — whatever the deal was. The rows are borrowed
// the way the join lends them: through one buffer overwritten per offer.
func TestStoresMergeToTheSortedAnswer(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for round := 0; round < 40; round++ {
		width := 1 + rng.Intn(5)
		ms := randomMatches(rng, 1+rng.Intn(3*storeChunkRows), width)
		byMap, byPr := slices.Clone(ms), slices.Clone(ms)
		sortMatchesBySlice(byMap)
		betterBySlice(byPr)
		for _, tc := range []struct {
			name  string
			order ResultOrder
			limit int
			want  []join.Match
		}{
			{"collect", OrderEmit, 0, byMap},
			{"prob all", OrderByProb, 0, byPr},
			{"top 1", OrderByProb, 1, byPr[:1]},
			{"top K", OrderByProb, 1 + rng.Intn(len(ms)), nil},
			{"top beyond", OrderByProb, len(ms) + 7, byPr},
		} {
			if tc.want == nil {
				tc.want = byPr[:tc.limit]
			}
			stores := make([]store, 1+rng.Intn(8))
			for i := range stores {
				stores[i].width, stores[i].limit = width, tc.limit
			}
			lent := make([]entity.ID, width)
			for _, m := range ms {
				copy(lent, m.Mapping)
				stores[rng.Intn(len(stores))].offer(join.Match{Mapping: lent, Prle: m.Prle, Prn: m.Prn})
			}
			offered := 0
			for i := range stores {
				offered += stores[i].offered
				if tc.limit > 0 && stores[i].n > tc.limit {
					t.Fatalf("round %d %s: a store bounded at %d holds %d rows", round, tc.name, tc.limit, stores[i].n)
				}
			}
			got := mergeStores(stores, tc.order, tc.limit)
			if offered != len(ms) || !equalMatches(tc.want, got) {
				t.Fatalf("round %d %s: %d stores, %d matches, limit %d: merged answer differs from the sorted one (%d vs %d matches)",
					round, tc.name, len(stores), len(ms), tc.limit, len(got), len(tc.want))
			}
		}
	}
}
