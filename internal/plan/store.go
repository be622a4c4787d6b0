package plan

import (
	"math"
	"math/bits"
	"slices"

	"repro/internal/entity"
	"repro/internal/join"
)

// storeChunkRows is the row count of one store chunk. A chunk is never
// moved or grown once allocated, so rows can be aliased by the result; 256
// rows keeps what a small result over-allocates (and what a retained result
// pins beyond its own rows) to a few KiB, and a 50 000-match
// collect to ~200 chunks.
const storeChunkRows = 256

// store is what a retained run keeps of the matches the join lends it: row r
// lives in chunk r/storeChunkRows as `width` entity ids (row-major) beside
// its Prle and Prn columns, copied out of the join's scratch once and
// never again — the result's Mapping slices alias the id chunks. With
// limit == 0 every offer is kept; with limit > 0 the store is a bounded
// min-heap over its first `limit` rows in OrderByProb's order: an offer is
// copied only when it is admitted, into the evicted row's slot.
type store struct {
	width   int
	limit   int
	chunks  []storeChunk
	n       int       // rows in use
	lo, hi  entity.ID // least and greatest id copied in: the radix's key range
	heap    []int32   // limit > 0: row ids, worst retained match at the root
	offered int
}

type storeChunk struct {
	ids       []entity.ID
	prle, prn []float64
}

// init readies a zero store for rows of the given width.
func (s *store) init(width, limit int) {
	s.width, s.limit = width, limit
	s.lo, s.hi = math.MaxInt32, math.MinInt32
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

// compare is compareMatches(OrderByProb, s.at(a), s.at(b)) without building
// either match: what the bounded heap and the probability sort compare by.
func (s *store) compare(a, b int32) int {
	if c := comparePr(s.pr(a), s.pr(b)); c != 0 {
		return c
	}
	return slices.Compare(s.ids(a), s.ids(b))
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
	for k, v := range m.Mapping {
		c.ids[i*s.width+k] = v
		s.lo, s.hi = min(s.lo, v), max(s.hi, v)
	}
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
func (s *store) worse(i, j int) bool { return s.compare(s.heap[i], s.heap[j]) > 0 }

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

// byProb returns the retained rows' ids in OrderByProb's order. Rows are not
// moved: the sort permutes 4-byte ids — the heap's K of them, or every row's
// when a probability-ordered run asked for no limit.
func (s *store) byProb() []int32 {
	perm := s.heap
	if s.limit == 0 {
		perm = make([]int32, s.n)
		for i := range perm {
			perm[i] = int32(i)
		}
	}
	slices.SortFunc(perm, s.compare)
	return perm
}

// push appends row r to digit d's list in a radix pass. A list is circular
// — the row after its last is its first — so a bucket is one word, the last
// row's id plus one, and a zeroed table is a table of empty buckets.
func push(tails, next []int32, d uint32, r int32) {
	if t := tails[d]; t == 0 {
		next[r] = r
	} else {
		next[r], next[t-1] = next[t-1], r
	}
	tails[d] = r + 1
}

// byMapping orders a keep-all store's rows by mapping without comparing or
// moving them: it returns the first row of a linked list and the list,
// next[r] being the row after r and -1 ending it. The list is built by an
// LSD radix sort over the id columns, last column first, whose every pass
// walks the current list (the first pass the chunks, in row order), appends
// each row to its digit's bucket and chains the non-empty buckets back into
// one list — stable, so equal mappings stay in row order, with no histogram
// and nothing per row but next. A column's key is id − lo, so only the span
// of the ids the store actually holds is sorted on; it is cut into equal
// digits of at most log₂ n bits — a bucket table never longer than the rows
// it sorts, and as few passes as that allows — and at least 4.
func (s *store) byMapping() (first int32, next []int32) {
	if s.n == 0 {
		return -1, nil
	}
	lo := uint32(s.lo)
	spanBits := max(1, bits.Len32(uint32(s.hi)-lo))
	widest := max(4, bits.Len(uint(s.n))-1) // ⌊log₂ n⌋, but 4 for a handful of rows
	digits := (spanBits + widest - 1) / widest
	digitBits := (spanBits + digits - 1) / digits
	mask := uint32(1)<<digitBits - 1

	next = make([]int32, s.n)
	tails := make([]int32, 1<<digitBits)
	threaded := false
	for col := s.width - 1; col >= 0; col-- {
		for shift := 0; shift < spanBits; shift += digitBits {
			if !threaded {
				threaded = true
				for r := int32(0); int(r) < s.n; r++ {
					c, i := s.row(r)
					push(tails, next, (uint32(c.ids[i*s.width+col])-lo)>>shift&mask, r)
				}
			} else {
				for r := first; r >= 0; {
					c, i := s.row(r)
					after := next[r]
					push(tails, next, (uint32(c.ids[i*s.width+col])-lo)>>shift&mask, r)
					r = after
				}
			}
			last := int32(-1)
			for d, t := range tails {
				if t == 0 {
					continue
				}
				if head := next[t-1]; last < 0 {
					first = head
				} else {
					next[last] = head
				}
				last, tails[d] = t-1, 0
			}
			next[last] = -1
		}
	}
	return first, next
}

// matches returns the store's rows in order o as one exact-size slice whose
// Mapping slices alias the chunks: down the slice byProb sorted, or the list
// byMapping threaded. The radix leaves rows that map alike — no real answer
// has two, a mapping occurs once — in row order; each such run is put in
// decreasing probability, compareMatches' tie-break.
func (s *store) matches(o ResultOrder) []join.Match {
	if s.n == 0 {
		return nil
	}
	out := make([]join.Match, 0, s.n)
	if o == OrderByProb {
		for _, r := range s.byProb() {
			out = append(out, s.at(r))
		}
		return out
	}
	first, next := s.byMapping()
	run := 0 // out[run:] maps alike
	for r := first; r >= 0; r = next[r] {
		m := s.at(r)
		if len(out) > run && !slices.Equal(m.Mapping, out[run].Mapping) {
			settle(out[run:])
			run = len(out)
		}
		out = append(out, m)
	}
	settle(out[run:])
	return out
}

// settle puts a run of matches that map alike in decreasing probability,
// keeping row order among equal probabilities.
func settle(run []join.Match) {
	if len(run) > 1 {
		slices.SortStableFunc(run, func(a, b join.Match) int { return comparePr(a.Pr(), b.Pr()) })
	}
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
