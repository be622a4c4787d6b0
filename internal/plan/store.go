package plan

import (
	"slices"
	"sync"

	"repro/internal/entity"
	"repro/internal/join"
)

// storeChunkRows is the row count of one store chunk. A chunk is never
// moved or grown once allocated, so rows can be aliased by the result; 256
// rows keeps what a small result over-allocates (and what a retained result
// pins beyond its own rows) to a few KiB per worker, and a 50 000-match
// collect to ~200 chunks.
const storeChunkRows = 256

// store is what one join worker retains of the matches it is lent: row r
// lives in chunk r/storeChunkRows as `width` entity ids (row-major) beside
// its Prle and Prn columns, copied out of the worker's scratch once and
// never again — the result's Mapping slices alias the id chunks. With
// limit == 0 every offer is kept; with limit > 0 the store is a bounded
// min-heap over its first `limit` rows in OrderByProb's order: an offer is
// copied only when it is admitted, into the evicted row's slot.
type store struct {
	width   int
	limit   int
	chunks  []storeChunk
	n       int     // rows in use
	heap    []int32 // limit > 0: row ids, worst retained match at the root
	offered int

	_ [64]byte // stores of one run sit in one slice; keep workers' counters off each other's cache lines
}

type storeChunk struct {
	ids       []entity.ID
	prle, prn []float64
}

// row locates row r: its chunk and its index there.
func (s *store) row(r int32) (*storeChunk, int) {
	return &s.chunks[r/storeChunkRows], int(r % storeChunkRows)
}

// ids returns row r's mapping, aliasing the chunk.
func (s *store) ids(r int32) []entity.ID {
	c, i := s.row(r)
	return c.ids[i*s.width : (i+1)*s.width : (i+1)*s.width]
}

// pr returns row r's Pr(M), the product Match.Pr computes.
func (s *store) pr(r int32) float64 {
	c, i := s.row(r)
	return c.prle[i] * c.prn[i]
}

// at returns row r as a match whose Mapping aliases the chunk.
func (s *store) at(r int32) join.Match {
	c, i := s.row(r)
	return join.Match{Mapping: s.ids(r), Prle: c.prle[i], Prn: c.prn[i]}
}

// compare is compareMatches(o, s.at(a), s.at(b)) without building either
// match and without reading a probability the order does not get to: it is
// the comparison a sort of 50 000 rows makes a million times.
func (s *store) compare(o ResultOrder, a, b int32) int {
	if o == OrderByProb {
		if c := comparePr(s.pr(a), s.pr(b)); c != 0 {
			return c
		}
		return slices.Compare(s.ids(a), s.ids(b))
	}
	if c := slices.Compare(s.ids(a), s.ids(b)); c != 0 {
		return c
	}
	return comparePr(s.pr(a), s.pr(b))
}

// put copies a borrowed match into row r, the next unused row or one in use.
func (s *store) put(r int32, m join.Match) {
	if int(r) == len(s.chunks)*storeChunkRows {
		rows := storeChunkRows
		if s.limit > 0 {
			rows = min(rows, s.limit-int(r))
		}
		s.chunks = append(s.chunks, storeChunk{
			ids: make([]entity.ID, rows*s.width), prle: make([]float64, rows), prn: make([]float64, rows),
		})
	}
	c, i := s.row(r)
	copy(s.ids(r), m.Mapping)
	c.prle[i], c.prn[i] = m.Prle, m.Prn
}

// offer considers one borrowed match for the retained set.
func (s *store) offer(m join.Match) {
	s.offered++
	switch {
	case s.limit == 0:
		s.put(int32(s.n), m)
		s.n++
	case s.n < s.limit:
		s.put(int32(s.n), m)
		s.heap = append(s.heap, int32(s.n))
		s.n++
		s.up(len(s.heap) - 1)
	case compareMatches(OrderByProb, m, s.at(s.heap[0])) < 0:
		s.put(s.heap[0], m)
		s.down(0)
	}
}

// worse reports whether heap entry i ranks after entry j.
func (s *store) worse(i, j int) bool { return s.compare(OrderByProb, s.heap[i], s.heap[j]) > 0 }

func (s *store) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !s.worse(i, parent) {
			return
		}
		s.heap[i], s.heap[parent] = s.heap[parent], s.heap[i]
		i = parent
	}
}

func (s *store) down(i int) {
	for {
		child := 2*i + 1
		if child >= len(s.heap) {
			return
		}
		if r := child + 1; r < len(s.heap) && s.worse(r, child) {
			child = r
		}
		if !s.worse(child, i) {
			return
		}
		s.heap[i], s.heap[child] = s.heap[child], s.heap[i]
		i = child
	}
}

// sorted returns the retained rows' ids in order o. Rows are not moved:
// the sort permutes 4-byte ids.
func (s *store) sorted(o ResultOrder) []int32 {
	perm := s.heap
	if s.limit == 0 {
		perm = make([]int32, s.n)
		for i := range perm {
			perm[i] = int32(i)
		}
	}
	slices.SortFunc(perm, func(a, b int32) int { return s.compare(o, a, b) })
	return perm
}

// mergeStores sorts every store's rows in order o, each on its own
// goroutine, and merges them into one exact-size slice of the first limit
// matches (limit 0: all of them). The order is total over distinct matches
// and no match is in two stores, so the result does not depend on which
// worker found what.
func mergeStores(stores []store, o ResultOrder, limit int) []join.Match {
	perms := make([][]int32, len(stores))
	var wg sync.WaitGroup
	for i := 1; i < len(stores); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			perms[i] = stores[i].sorted(o)
		}()
	}
	perms[0] = stores[0].sorted(o)
	wg.Wait()

	total := 0
	for _, p := range perms {
		total += len(p)
	}
	if limit > 0 {
		total = min(total, limit)
	}
	if total == 0 {
		return nil
	}
	out := make([]join.Match, total)
	heads := make([]join.Match, len(stores)) // each store's next row, while it has one
	for i, p := range perms {
		if len(p) > 0 {
			heads[i] = stores[i].at(p[0])
		}
	}
	for k := range out {
		best := -1
		for i, p := range perms {
			if len(p) > 0 && (best < 0 || compareMatches(o, heads[i], heads[best]) < 0) {
				best = i
			}
		}
		out[k] = heads[best]
		if perms[best] = perms[best][1:]; len(perms[best]) > 0 {
			heads[best] = stores[best].at(perms[best][0])
		}
	}
	return out
}

// compareMatches orders two matches of one answer. OrderEmit is the collect
// order: by mapping, with a final probability tie-break so even
// elementwise-equal mappings sort the same way across runs. OrderByProb is
// higher Pr first, equal probabilities broken by mapping so the ranking —
// and in particular the top-K cut — is fully deterministic.
func compareMatches(o ResultOrder, a, b join.Match) int {
	if o == OrderByProb {
		if c := comparePr(a.Pr(), b.Pr()); c != 0 {
			return c
		}
		return slices.Compare(a.Mapping, b.Mapping)
	}
	if c := slices.Compare(a.Mapping, b.Mapping); c != 0 {
		return c
	}
	return comparePr(a.Pr(), b.Pr())
}

// comparePr ranks the higher probability first.
func comparePr(a, b float64) int {
	switch {
	case a > b:
		return -1
	case a < b:
		return 1
	}
	return 0
}

// SortMatches orders matches by mapping for deterministic output — the
// order Collect returns an OrderEmit result in.
func SortMatches(ms []join.Match) {
	slices.SortFunc(ms, func(a, b join.Match) int { return compareMatches(OrderEmit, a, b) })
}
