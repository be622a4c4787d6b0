package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/join"
	"repro/internal/pathindex"
	"repro/internal/query"
)

// shape is one class of query a workload draws from.
type shape struct {
	name string
	make func(rng *rand.Rand) (*query.Query, error)
}

func randomShape(n, m int) shape {
	return shape{fmt.Sprintf("q(%d,%d)", n, m), func(rng *rand.Rand) (*query.Query, error) {
		return gen.RandomQuery(rng, numLabels, n, m)
	}}
}

func cycleShape(n int) shape {
	return shape{fmt.Sprintf("cycle%d", n), func(rng *rand.Rand) (*query.Query, error) {
		return gen.CycleQuery(rng, numLabels, n)
	}}
}

func patternShape(p gen.Pattern) shape {
	return shape{string(p), func(rng *rand.Rand) (*query.Query, error) {
		return gen.PatternQueryRandomLabels(p, rng, numLabels, false)
	}}
}

// shapes lists the query classes of a workload; the pool cycles through
// them, and the correctness gate checks every one against the oracle.
func (s *spec) shapes() []shape {
	switch s.mode {
	case modeCollect:
		// The star pattern (gen.ST) is not here: on a preferential-
		// attachment corpus every star has millions of matches, far
		// outside any band one run can afford.
		return []shape{randomShape(5, 4)}
	case modeFirst:
		return []shape{randomShape(5, 6), randomShape(6, 7), cycleShape(4), patternShape(gen.BF1), patternShape(gen.GR)}
	default:
		// 3-5 nodes, mixed: short paths and small trees, and cyclic shapes
		// up to five nodes. Five-node trees are left out: their match
		// counts make one cache miss cost more than the latency limit.
		return []shape{randomShape(3, 2), randomShape(3, 3), randomShape(4, 3), randomShape(4, 4), cycleShape(4), randomShape(4, 5), randomShape(5, 5), randomShape(5, 6)}
	}
}

// poolQuery is one admitted query with the exact integers it was admitted
// on and, once warm-up has run it, what every repeat must return.
type poolQuery struct {
	q       *query.Query
	text    string
	shape   string
	matches int // matches counted at admission (modeCollect; ≥1 for modeFirst)
	initial int // initial candidates summed over decomposition paths

	// Expectation, filled by the first checked execution.
	known bool
	count int
	hash  uint64              // resultHash of the full match set
	set   map[uint64]struct{} // matchHash of every match (modeFirst membership)
}

// expect records the query's full result.
func (p *poolQuery) expect(ms []join.Match) {
	p.known, p.count, p.hash = true, len(ms), resultHash(ms)
	p.set = make(map[uint64]struct{}, len(ms))
	for _, m := range ms {
		p.set[matchHash(m)] = struct{}{}
	}
}

type pool struct {
	queries []*poolQuery
	trials  int // candidates generated, admitted or not
}

// fingerprint covers the texts and admission integers in order: two runs
// with equal fingerprints measured the same queries.
func (p *pool) fingerprint() float64 {
	f := newFingerprint()
	for _, pq := range p.queries {
		f.str(pq.text)
		f.u64(uint64(pq.matches))
		f.u64(uint64(pq.initial))
	}
	return f.value()
}

// buildPool draws candidate queries from the pinned pool seed, cycling
// through the workload's shapes, and admits the first poolSize distinct
// ones that pass the workload's admission test. Candidates are evaluated
// nproc at a time but admitted in draw order, so the pool does not depend
// on scheduling.
func buildPool(ctx context.Context, s *spec, ix pathindex.Reader) (*pool, error) {
	rng := rand.New(rand.NewSource(s.poolSeed))
	shapes := s.shapes()
	alphabet := ix.Graph().Alphabet()
	seen := make(map[string]bool)
	p := &pool{}
	width := runtime.GOMAXPROCS(0)
	if !s.needsAdmissionRun() {
		width = 64
	}
	for len(p.queries) < s.poolSize {
		block := make([]*poolQuery, 0, width)
		for len(block) < width {
			if p.trials > 200*s.poolSize {
				return nil, fmt.Errorf("pool: only %d of %d queries admitted after %d candidates", len(p.queries), s.poolSize, p.trials)
			}
			sh := shapes[p.trials%len(shapes)]
			p.trials++
			q, err := sh.make(rng)
			if err != nil {
				return nil, err
			}
			text := q.Format(alphabet)
			if seen[text] {
				continue
			}
			seen[text] = true
			block = append(block, &poolQuery{q: q, text: text, shape: sh.name})
		}
		admitted := make([]bool, len(block))
		errs := make([]error, len(block))
		if s.needsAdmissionRun() {
			var wg sync.WaitGroup
			for i := range block {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					admitted[i], errs[i] = s.admit(ctx, ix, block[i])
				}(i)
			}
			wg.Wait()
		} else {
			for i := range admitted {
				admitted[i] = true
			}
		}
		for i, pq := range block {
			if errs[i] != nil {
				return nil, errs[i]
			}
			if admitted[i] && len(p.queries) < s.poolSize {
				p.queries = append(p.queries, pq)
			}
		}
	}
	return p, nil
}

// needsAdmissionRun reports whether admission executes the candidate. The
// 4096 texts of serve-zipf are admitted on validity alone: running each
// once would cost more than the measurement.
func (s *spec) needsAdmissionRun() bool { return s.mode != modeZipf }

// admit runs one candidate and applies the workload's integer test.
func (s *spec) admit(ctx context.Context, ix pathindex.Reader, pq *poolQuery) (bool, error) {
	opt := core.Options{Alpha: alpha}
	stop := s.maxMatches + 1
	if s.mode == modeFirst {
		opt.Limit = 1
		stop = 1
	}
	// The count stops one past the band's upper edge, so that a query with
	// millions of matches costs no more than the largest admitted one.
	st, err := core.MatchStream(ctx, ix, pq.q, opt, func(join.Match) bool {
		pq.matches++
		return pq.matches < stop
	})
	if err != nil {
		return false, err
	}
	for _, stage := range st.Stages {
		if stage.Name == "candidates" {
			pq.initial = int(stage.ObsRows)
		}
	}
	if s.mode == modeFirst {
		return pq.matches >= 1 && pq.initial >= s.minInitial, nil
	}
	if s.maxInitial > 0 && pq.initial > s.maxInitial {
		return false, nil
	}
	return pq.matches >= s.minMatches && pq.matches <= s.maxMatches, nil
}
