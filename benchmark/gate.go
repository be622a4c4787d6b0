package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"path/filepath"
	"sort"

	"repro/internal/core"
	"repro/internal/join"
	"repro/internal/naive"
	"repro/internal/query"
)

const (
	gateRefs     = 100 // small enough for the brute-force oracle, inside the issue's 80-120
	gatePerShape = 2
)

// sameMatches compares two match lists position by position: mappings and
// the exact bits of both probability components.
func sameMatches(got, want []join.Match) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d matches, want %d", len(got), len(want))
	}
	for i := range want {
		if matchHash(got[i]) != matchHash(want[i]) || !sameMatch(got[i], want[i]) {
			return fmt.Errorf("match %d is %v, want %v", i, got[i], want[i])
		}
	}
	return nil
}

func sameMatch(a, b join.Match) bool {
	if len(a.Mapping) != len(b.Mapping) ||
		math.Float64bits(a.Prle) != math.Float64bits(b.Prle) ||
		math.Float64bits(a.Prn) != math.Float64bits(b.Prn) {
		return false
	}
	for i := range a.Mapping {
		if a.Mapping[i] != b.Mapping[i] {
			return false
		}
	}
	return true
}

func member(m join.Match, set []join.Match) bool {
	for _, w := range set {
		if sameMatch(m, w) {
			return true
		}
	}
	return false
}

// topByProb orders a copy of ms as the server's order:"prob" does (higher
// probability first, ties by mapping) and cuts it at limit.
func topByProb(ms []join.Match, limit int) []join.Match {
	out := append([]join.Match(nil), ms...)
	sort.SliceStable(out, func(i, j int) bool {
		pi, pj := out[i].Pr(), out[j].Pr()
		if pi != pj {
			return pi > pj
		}
		a, b := out[i].Mapping, out[j].Mapping
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	if len(out) > limit {
		out = out[:limit]
	}
	return out
}

// checkFirst verifies a Limit-1 stream's answer against the full set: one
// match that belongs to it, or none when it is empty.
func checkFirst(got, full []join.Match) error {
	switch {
	case len(full) == 0 && len(got) == 0:
		return nil
	case len(got) != 1:
		return fmt.Errorf("stream with limit 1 returned %d matches (full set has %d)", len(got), len(full))
	case !member(got[0], full):
		return fmt.Errorf("streamed match %v is not in the full set", got[0])
	}
	return nil
}

// runGate builds a gateRefs-reference PGD with the workload's generator
// options, sets the workload's system up over it (index, or live database
// with mutations applied, and the HTTP server for serve workloads) and
// compares every shape class, through the same entry points the measured
// run uses, against the brute-force oracle: bit for bit. It returns how
// many comparisons it made.
func runGate(ctx context.Context, s *spec, workDir string) (int, error) {
	small := *s
	small.refs = gateRefs
	d, err := small.corpus()
	if err != nil {
		return 0, err
	}
	sy, err := setUp(ctx, &small, d, filepath.Join(workDir, "gate"))
	if err != nil {
		return 0, err
	}
	defer sy.close()

	var cl *client
	if s.serve() {
		cl = newClient(sy.url)
		defer cl.close()
	}
	if s.mode == modeIngest {
		mut := newMutator(s.poolSeed, d.NumRefs())
		for i := 0; i < 3; i++ {
			body, err := encodeBatch(mut.batch())
			if err != nil {
				return 0, err
			}
			if r := cl.post("/ingest", body); r.err != nil || r.status != http.StatusOK {
				return 0, fmt.Errorf("gate: ingest batch %d: status %d err %v: %s", i, r.status, r.err, r.body)
			}
		}
		sy.quiesce()
	}

	ix := sy.reader()
	g := ix.Graph()
	rng := rand.New(rand.NewSource(s.poolSeed))
	checked := 0
	for _, sh := range s.shapes() {
		for k := 0; k < gatePerShape; k++ {
			q, err := sh.make(rng)
			if err != nil {
				return checked, err
			}
			want, err := naive.Matches(ctx, g, q, alpha)
			if err != nil {
				return checked, err
			}
			if err := gateQuery(ctx, s, sy, cl, q, want); err != nil {
				return checked, fmt.Errorf("gate: shape %s on %d refs: %w\nquery:\n%s", sh.name, gateRefs, err, q.Format(g.Alphabet()))
			}
			checked++
		}
	}
	return checked, nil
}

// gateQuery checks one query's answers against the oracle's.
func gateQuery(ctx context.Context, s *spec, sy *system, cl *client, q *query.Query, want []join.Match) error {
	ix := sy.reader()
	res, err := core.Match(ctx, ix, q, core.Options{Alpha: alpha})
	if err != nil {
		return err
	}
	if err := sameMatches(res.Matches, want); err != nil {
		return fmt.Errorf("core.Match: %w", err)
	}
	if s.mode == modeFirst {
		var got []join.Match
		_, err := core.MatchStream(ctx, ix, q, core.Options{Alpha: alpha, Limit: 1}, func(m join.Match) bool {
			got = append(got, m)
			return true
		})
		if err != nil {
			return err
		}
		return checkFirst(got, want)
	}
	if !s.serve() {
		return nil
	}
	text := q.Format(ix.Graph().Alphabet())
	rb, err := encodeBodies(&pool{queries: []*poolQuery{{q: q, text: text}}})
	if err != nil {
		return err
	}
	r := rb.do(cl, request{kind: kindMatch})
	if r.err != nil || r.status != http.StatusOK {
		return fmt.Errorf("POST /match: status %d err %v", r.status, r.err)
	}
	_, got, err := decodeMatches(r.body)
	if err != nil {
		return err
	}
	if err := sameMatches(got, topByProb(want, matchLimit)); err != nil {
		return fmt.Errorf("POST /match: %w", err)
	}
	if s.mode != modeZipf {
		return nil
	}
	r = rb.do(cl, request{kind: kindStream})
	if r.err != nil || r.status != http.StatusOK {
		return fmt.Errorf("POST /match/stream: status %d err %v", r.status, r.err)
	}
	_, got, err = decodeStream(r.body)
	if err != nil {
		return err
	}
	if err := checkFirst(got, want); err != nil {
		return fmt.Errorf("POST /match/stream: %w", err)
	}
	return nil
}
