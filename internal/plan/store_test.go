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
	return randomMatchesIn(rng, n, width, 0, entity.ID(ids-1))
}

// randomMatchesIn is randomMatches over the ids lo..hi, however few or many
// those are: where they leave room for fewer than 4n mappings the
// probabilities are drawn finer instead, so n matches distinct in
// (mapping, Pr) still exist and most of them share a mapping.
func randomMatchesIn(rng *rand.Rand, n, width int, lo, hi entity.ID) []join.Match {
	span := int64(hi) - int64(lo) + 1
	prs := 8
	for room := math.Pow(float64(span), float64(width)); room*float64(prs) < float64(4*n); {
		prs *= 2
	}
	ms := make([]join.Match, 0, n)
	seen := map[string]bool{}
	for len(ms) < n {
		m := join.Match{Mapping: make([]entity.ID, width), Prle: float64(1+rng.Intn(prs)) / float64(prs), Prn: float64(1+rng.Intn(4)) / 4}
		if len(ms) > 0 && rng.Intn(4) == 0 {
			copy(m.Mapping, ms[rng.Intn(len(ms))].Mapping)
		} else {
			for k := range m.Mapping {
				m.Mapping[k] = entity.ID(int64(lo) + rng.Int63n(span))
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

// TestStoresMergeToTheSortedAnswer: matches offered to one store — holding
// none, one or several chunks — and walked in a result order come out as the
// whole set in SortMatches' order (keep-all, OrderEmit), as the whole set in
// decreasing probability (keep-all, OrderByProb), and as its best `limit`
// (a bounded store: the heap evicts into reused rows and still holds every
// top-limit match). The rows are borrowed the way the join lends them:
// through one buffer overwritten per offer.
//
// The mapping order is a radix sort held here to the comparison sort it
// replaced, bit for bit: over every row count around a chunk boundary and
// one large enough for wide digits, every width up to 8, and id ranges of
// one bit, exactly and just over one 12-bit digit, two digits, the top of
// the int32 range (the key is id − lo, not id) and one that includes −1
// (no sign case) — each with runs of equal mappings that only the
// probability tie-break orders.
func TestStoresMergeToTheSortedAnswer(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for round := 0; round < 40; round++ {
		width := 1 + rng.Intn(5)
		ms := randomMatches(rng, 1+rng.Intn(3*storeChunkRows), width)
		checkMerge(t, rng, fmt.Sprintf("round %d", round), ms, width)
	}
	width := 0
	for _, ids := range [][2]entity.ID{
		{0, 1}, {0, 4095}, {0, 4096}, {0, 70_000}, {math.MaxInt32 - 70_000, math.MaxInt32}, {-1, 300}, {math.MinInt32, math.MaxInt32},
	} {
		for _, n := range []int{0, 1, 2, 255, 256, 257, 769, 20_000} {
			width = width%8 + 1
			ms := randomMatchesIn(rng, n, width, ids[0], ids[1])
			checkMerge(t, rng, fmt.Sprintf("ids %d..%d, width %d", ids[0], ids[1], width), ms, width)
		}
	}
}

// checkMerge offers ms to a store and holds every kind of answer walked out
// of it to the comparison-sorted one.
func checkMerge(t *testing.T, rng *rand.Rand, label string, ms []join.Match, width int) {
	t.Helper()
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
		{"top 1", OrderByProb, 1, byPr[:min(1, len(ms))]},
		{"top K", OrderByProb, 1 + rng.Intn(len(ms)+1), nil},
		{"top beyond", OrderByProb, len(ms) + 7, byPr},
	} {
		if tc.want == nil {
			tc.want = byPr[:min(tc.limit, len(ms))]
		}
		var s store
		s.init(width, tc.limit)
		lent := make([]entity.ID, width)
		for _, m := range ms {
			copy(lent, m.Mapping)
			s.offer(join.Match{Mapping: lent, Prle: m.Prle, Prn: m.Prn})
		}
		if tc.limit > 0 && s.n > tc.limit {
			t.Fatalf("%s, %s: a store bounded at %d holds %d rows", label, tc.name, tc.limit, s.n)
		}
		got := s.matches(tc.order)
		if s.offered != len(ms) || !equalMatches(tc.want, got) {
			t.Fatalf("%s, %s: %d matches, limit %d: walked answer differs from the sorted one (%d vs %d matches)",
				label, tc.name, len(ms), tc.limit, len(got), len(tc.want))
		}
	}
}
