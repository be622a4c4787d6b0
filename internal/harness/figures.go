package harness

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/entity"
	"repro/internal/gen"
	"repro/internal/join"
	"repro/internal/pathindex"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/sqlbase"
)

// querySpec is q(n,m).
type querySpec struct{ n, m int }

func (s querySpec) String() string { return fmt.Sprintf("q(%d,%d)", s.n, s.m) }

// fig6cSizes follows the paper: a query of n nodes has 4n edges capped at
// the maximum.
var fig6cSizes = []querySpec{{3, 3}, {5, 10}, {7, 21}, {9, 36}, {11, 44}, {13, 52}, {15, 60}}

var fig6dSizes = []querySpec{{15, 20}, {15, 40}, {15, 60}, {15, 80}, {15, 100}}

// timeQuery measures one Match run under the query timeout, averaging over
// the configured number of random queries. A timeout or failure yields "*"
// like the paper's figures.
func (h *Harness) timeQuery(ix *pathindex.Index, makeQuery func(r *rand.Rand) (*query.Query, error), opt core.Options) (string, time.Duration, int) {
	var total time.Duration
	matches := 0
	runs := h.cfg.QueriesPerPoint
	if runs < 1 {
		runs = 1
	}
	for i := 0; i < runs; i++ {
		rng := rand.New(rand.NewSource(h.cfg.Seed + int64(i)*7919))
		q, err := makeQuery(rng)
		if err != nil {
			return "err", 0, 0
		}
		ctx, cancel := context.WithTimeout(context.Background(), h.cfg.QueryTimeout)
		start := time.Now()
		res, err := core.Match(ctx, ix, q, opt)
		cancel()
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) {
				return "*", 0, 0
			}
			return "err", 0, 0
		}
		total += time.Since(start)
		matches += len(res.Matches)
	}
	avg := total / time.Duration(runs)
	return fmtDur(avg), avg, matches / runs
}

func specQuery(spec querySpec, nLabels int) func(*rand.Rand) (*query.Query, error) {
	return func(rng *rand.Rand) (*query.Query, error) {
		return gen.RandomQuery(rng, nLabels, spec.n, spec.m)
	}
}

// RunFig6ab reproduces Figures 6(a) and 6(b): offline running time and index
// size over the (β, graph size, L) grid.
func (h *Harness) RunFig6ab(w io.Writer) error {
	fmt.Fprintln(w, "== Figure 6(a)+(b): offline phase time and index size ==")
	t := newTable(w, "beta", "refs", "L", "build-time", "index-bytes", "entries", "seqs")
	for _, size := range h.cfg.OfflineSizes {
		g, err := h.Graph(size, 0.2)
		if err != nil {
			return err
		}
		for _, beta := range h.cfg.Betas {
			for _, L := range h.cfg.Ls {
				st, err := h.BuildIndexUncached(g, L, beta, fmt.Sprintf("f6-%d-%v-%d", size, beta, L))
				if err != nil {
					return err
				}
				t.add(fmt.Sprint(beta), fmt.Sprint(size), fmt.Sprint(L),
					fmtDur(st.Duration), fmtBytes(st.Bytes),
					fmt.Sprint(st.Entries), fmt.Sprint(st.Sequences))
			}
		}
	}
	t.flush()
	return nil
}

// variant is one line series of Figures 6(c)/(d).
type variant struct {
	name     string
	L        int
	strategy core.Strategy
}

func onlineVariants(ls []int) []variant {
	var vs []variant
	for _, l := range ls {
		vs = append(vs, variant{fmt.Sprintf("Optimized L=%d", l), l, core.StrategyOptimized})
	}
	maxL := ls[len(ls)-1]
	vs = append(vs,
		variant{fmt.Sprintf("NoSSReduction L=%d", maxL), maxL, core.StrategyNoSSReduction},
		variant{fmt.Sprintf("RandomDecomp L=%d", maxL), maxL, core.StrategyRandomDecomp},
	)
	return vs
}

func (h *Harness) runOnlineGrid(w io.Writer, title string, specs []querySpec) error {
	fmt.Fprintln(w, title)
	g, err := h.Graph(h.cfg.MainSize, 0.2)
	if err != nil {
		return err
	}
	t := newTable(w, append([]string{"variant"}, specsHeader(specs)...)...)
	for _, v := range onlineVariants(h.cfg.Ls) {
		ix, err := h.Index(fmt.Sprintf("synth-%d-0.20", h.cfg.MainSize), g, v.L, 0.1)
		if err != nil {
			return err
		}
		row := []string{v.name}
		for _, spec := range specs {
			cell, _, _ := h.timeQuery(ix, specQuery(spec, g.NumLabels()), core.Options{
				Alpha: 0.7, Strategy: v.strategy, Seed: rand.New(rand.NewSource(h.cfg.Seed)).Int63(),
			})
			row = append(row, cell)
		}
		t.add(row...)
	}
	t.flush()
	return nil
}

func specsHeader(specs []querySpec) []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.String()
	}
	return out
}

// RunFig6c reproduces Figure 6(c): online time vs query size.
func (h *Harness) RunFig6c(w io.Writer) error {
	return h.runOnlineGrid(w, "== Figure 6(c): online time vs query size (α=0.7) ==", fig6cSizes)
}

// RunFig6d reproduces Figure 6(d): online time vs query density.
func (h *Harness) RunFig6d(w io.Writer) error {
	return h.runOnlineGrid(w, "== Figure 6(d): online time vs query density (α=0.7) ==", fig6dSizes)
}

// RunFig6ef reproduces Figures 6(e)/(f): online time vs degree of
// uncertainty for 5- and 10-node queries.
func (h *Harness) RunFig6ef(w io.Writer) error {
	fmt.Fprintln(w, "== Figures 6(e)/(f): online time vs degree of uncertainty (α=0.7) ==")
	specs := []querySpec{{5, 5}, {5, 9}, {10, 20}, {10, 40}}
	uncs := []float64{0.2, 0.4, 0.6, 0.8}
	t := newTable(w, append([]string{"series"}, uncHeader(uncs)...)...)
	for _, spec := range specs {
		for _, L := range h.cfg.Ls {
			row := []string{fmt.Sprintf("L=%d, %s", L, spec)}
			for _, unc := range uncs {
				g, err := h.Graph(h.cfg.MainSize, unc)
				if err != nil {
					return err
				}
				ix, err := h.Index(fmt.Sprintf("synth-%d-%.2f", h.cfg.MainSize, unc), g, L, 0.1)
				if err != nil {
					return err
				}
				cell, _, _ := h.timeQuery(ix, specQuery(spec, g.NumLabels()), core.Options{Alpha: 0.7})
				row = append(row, cell)
			}
			t.add(row...)
		}
	}
	t.flush()
	return nil
}

func uncHeader(uncs []float64) []string {
	out := make([]string, len(uncs))
	for i, u := range uncs {
		out[i] = fmt.Sprintf("%.0f%%", u*100)
	}
	return out
}

// RunFig7ab reproduces Figures 7(a)/(b): online time vs graph size.
func (h *Harness) RunFig7ab(w io.Writer) error {
	fmt.Fprintln(w, "== Figures 7(a)/(b): online time vs graph size (α=0.7) ==")
	specs := []querySpec{{5, 5}, {5, 9}, {10, 20}, {10, 40}}
	t := newTable(w, append([]string{"series"}, sizesHeader(h.cfg.Sizes)...)...)
	for _, spec := range specs {
		for _, L := range h.cfg.Ls {
			row := []string{fmt.Sprintf("L=%d, %s", L, spec)}
			for _, size := range h.cfg.Sizes {
				g, err := h.Graph(size, 0.2)
				if err != nil {
					return err
				}
				ix, err := h.Index(fmt.Sprintf("synth-%d-0.20", size), g, L, 0.1)
				if err != nil {
					return err
				}
				cell, _, _ := h.timeQuery(ix, specQuery(spec, g.NumLabels()), core.Options{Alpha: 0.7})
				row = append(row, cell)
			}
			t.add(row...)
		}
	}
	t.flush()
	return nil
}

func sizesHeader(sizes []int) []string {
	out := make([]string, len(sizes))
	for i, s := range sizes {
		out[i] = fmt.Sprint(s)
	}
	return out
}

// RunFig7cd reproduces Figures 7(c)/(d): online time vs query threshold.
func (h *Harness) RunFig7cd(w io.Writer) error {
	fmt.Fprintln(w, "== Figures 7(c)/(d): online time vs query threshold ==")
	specs := []querySpec{{5, 5}, {5, 9}, {10, 20}, {10, 40}}
	alphas := []float64{0.3, 0.5, 0.7, 0.9}
	g, err := h.Graph(h.cfg.MainSize, 0.2)
	if err != nil {
		return err
	}
	hdr := make([]string, len(alphas))
	for i, a := range alphas {
		hdr[i] = fmt.Sprintf("α=%.1f", a)
	}
	t := newTable(w, append([]string{"series"}, hdr...)...)
	for _, spec := range specs {
		for _, L := range h.cfg.Ls {
			row := []string{fmt.Sprintf("L=%d, %s", L, spec)}
			for _, a := range alphas {
				ix, err := h.Index(fmt.Sprintf("synth-%d-0.20", h.cfg.MainSize), g, L, 0.1)
				if err != nil {
					return err
				}
				cell, _, _ := h.timeQuery(ix, specQuery(spec, g.NumLabels()), core.Options{Alpha: a})
				row = append(row, cell)
			}
			t.add(row...)
		}
	}
	t.flush()
	return nil
}

// FindQuerySeed retries random-query seeds until one yields a non-empty
// initial search space at the given threshold (so progression figures show
// actual pruning work rather than an instantly-empty query), falling back
// to the base seed. Exported for reuse by the root benchmarks.
func FindQuerySeed(ix *pathindex.Index, nLabels, n, m int, alpha float64, base int64, tries int) int64 {
	for i := 0; i < tries; i++ {
		seed := base + int64(i)*104729
		rng := rand.New(rand.NewSource(seed))
		q, err := gen.RandomQuery(rng, nLabels, n, m)
		if err != nil {
			return base
		}
		res, err := core.Match(context.Background(), ix, q, core.Options{Alpha: alpha})
		if err != nil {
			continue
		}
		if len(res.Matches) > 0 {
			return seed
		}
		if i == tries-1 && res.Stats.SSPath > 0 {
			return seed
		}
	}
	return base
}

// FindRichQuery scans tries random q(n, m) seeds (spaced like
// FindQuerySeed) and returns the query with the largest match set at the
// given threshold, together with that match count — the workload selector
// for the stream-vs-collect benchmarks, where the gap only shows on
// match-rich queries. Returns (nil, 0) when no scanned query matches at
// all. Exported for reuse by the root benchmarks.
func FindRichQuery(ix *pathindex.Index, n, m int, alpha float64, base int64, tries int) (*query.Query, int) {
	var best *query.Query
	bestN := 0
	for i := 0; i < tries; i++ {
		rng := rand.New(rand.NewSource(base + int64(i)*104729))
		q, err := gen.RandomQuery(rng, ix.Graph().NumLabels(), n, m)
		if err != nil {
			continue
		}
		res, err := core.Match(context.Background(), ix, q, core.Options{Alpha: alpha})
		if err != nil {
			continue
		}
		if len(res.Matches) > bestN {
			bestN, best = len(res.Matches), q
		}
	}
	return best, bestN
}

// RunFig7e reproduces Figure 7(e): search-space progression through the
// pruning steps, for L ∈ Ls and 20%/80% uncertainty (log10 scale).
func (h *Harness) RunFig7e(w io.Writer) error {
	fmt.Fprintln(w, "== Figure 7(e): search space progression, q(5,7), α=0.7 (log10) ==")
	t := newTable(w, "series", "Path", "Path+Context", "Final")
	for _, unc := range []float64{0.2, 0.8} {
		g, err := h.Graph(h.cfg.MainSize, unc)
		if err != nil {
			return err
		}
		for _, L := range h.cfg.Ls {
			ix, err := h.Index(fmt.Sprintf("synth-%d-%.2f", h.cfg.MainSize, unc), g, L, 0.1)
			if err != nil {
				return err
			}
			seed := FindQuerySeed(ix, g.NumLabels(), 5, 7, 0.7, h.cfg.Seed, 30)
			q, err := gen.RandomQuery(rand.New(rand.NewSource(seed)), g.NumLabels(), 5, 7)
			if err != nil {
				return err
			}
			res, err := core.Match(context.Background(), ix, q, core.Options{Alpha: 0.7})
			if err != nil {
				return err
			}
			t.add(fmt.Sprintf("L=%d,%.0f%%", L, unc*100),
				fmtLog10(res.Stats.SSPath), fmtLog10(res.Stats.SSContext), fmtLog10(res.Stats.SSFinal))
		}
	}
	t.flush()
	return nil
}

func fmtLog10(v float64) string {
	if v <= 0 {
		return "-inf"
	}
	return fmt.Sprintf("%.2f", math.Log10(v))
}

// RunFig7f reproduces Figure 7(f): search-space reduction by structure (ST)
// and by upperbounds (UP) on a 5-cycle query at α=0.1, across uncertainty
// (log10 of the reduction ratio; more negative = stronger reduction).
func (h *Harness) RunFig7f(w io.Writer) error {
	fmt.Fprintln(w, "== Figure 7(f): reduction by structure (ST) vs upperbounds (UP), 5-cycle, α=0.1 (log10 ratio) ==")
	uncs := []float64{0.2, 0.4, 0.6, 0.8}
	t := newTable(w, append([]string{"series"}, uncHeader(uncs)...)...)
	for _, L := range h.cfg.Ls {
		rowST := []string{fmt.Sprintf("ST,L=%d", L)}
		rowUP := []string{fmt.Sprintf("UP,L=%d", L)}
		for _, unc := range uncs {
			g, err := h.Graph(h.cfg.MainSize, unc)
			if err != nil {
				return err
			}
			ix, err := h.Index(fmt.Sprintf("synth-%d-%.2f", h.cfg.MainSize, unc), g, L, 0.1)
			if err != nil {
				return err
			}
			rng := rand.New(rand.NewSource(h.cfg.Seed))
			q, err := gen.CycleQuery(rng, g.NumLabels(), 5)
			if err != nil {
				return err
			}
			// The paper's default pipeline (the zero plan.Space) up to the
			// reduction; the join stops at its first match.
			ctx := context.Background()
			pl, err := plan.NewPlanner(ix, nil).Plan(ctx, q, plan.Options{Alpha: 0.1})
			if err != nil {
				return err
			}
			st, err := plan.NewExecutor(ix).Run(ctx, pl, plan.Exec{}, func(join.Match) bool { return false })
			if err != nil {
				return err
			}
			rowST = append(rowST, fmtRatio(st.SSAfterStructure, st.SSContext))
			rowUP = append(rowUP, fmtRatio(st.SSFinal, st.SSContext))
		}
		t.add(rowST...)
		t.add(rowUP...)
	}
	t.flush()
	return nil
}

func fmtRatio(after, before float64) string {
	if before <= 0 {
		return "n/a"
	}
	if after <= 0 {
		return "-inf"
	}
	return fmt.Sprintf("%.2f", math.Log10(after/before))
}

// RunFig7g reproduces Figure 7(g): the DBLP collaboration patterns with
// correlated edge probabilities, α=0.1.
func (h *Harness) RunFig7g(w io.Writer) error {
	return h.runPatterns(w, "== Figure 7(g): DBLP patterns (correlated edges, α=0.1) ==", "dblp",
		func() (*entity.Graph, error) {
			d, err := gen.DBLP(gen.DBLPOptions{Authors: h.cfg.MainSize, Seed: h.cfg.Seed})
			if err != nil {
				return nil, err
			}
			return entity.Build(d, entity.BuildOptions{})
		}, false)
}

// RunFig7h reproduces Figure 7(h): the IMDB co-starring patterns with
// independent edge probabilities and uniform pattern labels, α=0.1.
func (h *Harness) RunFig7h(w io.Writer) error {
	return h.runPatterns(w, "== Figure 7(h): IMDB patterns (independent edges, α=0.1) ==", "imdb",
		func() (*entity.Graph, error) {
			d, err := gen.IMDB(gen.IMDBOptions{Actors: h.cfg.MainSize, Seed: h.cfg.Seed})
			if err != nil {
				return nil, err
			}
			return entity.Build(d, entity.BuildOptions{})
		}, true)
}

func (h *Harness) runPatterns(w io.Writer, title, gkey string, build func() (*entity.Graph, error), uniform bool) error {
	fmt.Fprintln(w, title)
	g, err := h.NamedGraph(gkey, build)
	if err != nil {
		return err
	}
	pats := gen.Patterns()
	hdr := make([]string, len(pats))
	for i, p := range pats {
		hdr[i] = string(p)
	}
	t := newTable(w, append([]string{"series"}, hdr...)...)
	for _, L := range h.cfg.Ls {
		ix, err := h.Index(gkey, g, L, 0.1)
		if err != nil {
			return err
		}
		row := []string{fmt.Sprintf("L=%d", L)}
		for _, p := range pats {
			pat := p
			cell, _, _ := h.timeQuery(ix, func(rng *rand.Rand) (*query.Query, error) {
				return gen.PatternQueryRandomLabels(pat, rng, g.NumLabels(), uniform)
			}, core.Options{Alpha: 0.1})
			row = append(row, cell)
		}
		t.add(row...)
	}
	t.flush()
	return nil
}

// RunSQL reproduces the Section 6.2.1 SQL comparison: q(5,7) at α=0.7 on the
// main graph, our approach vs the relational baseline under a timeout.
func (h *Harness) RunSQL(w io.Writer) error {
	fmt.Fprintf(w, "== SQL baseline comparison: q(5,7), α=0.7, %d refs ==\n", h.cfg.MainSize)
	g, err := h.Graph(h.cfg.MainSize, 0.2)
	if err != nil {
		return err
	}
	maxL := h.cfg.Ls[len(h.cfg.Ls)-1]
	ix, err := h.Index(fmt.Sprintf("synth-%d-0.20", h.cfg.MainSize), g, maxL, 0.1)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(h.cfg.Seed))
	q, err := gen.RandomQuery(rng, g.NumLabels(), 5, 7)
	if err != nil {
		return err
	}

	start := time.Now()
	res, err := core.Match(context.Background(), ix, q, core.Options{Alpha: 0.7})
	if err != nil {
		return err
	}
	ours := time.Since(start)

	db := sqlbase.NewDB(g)
	ctx, cancel := context.WithTimeout(context.Background(), h.cfg.SQLTimeout)
	defer cancel()
	start = time.Now()
	sqlMatches, sqlErr := db.Query(ctx, q, 0.7)
	sqlTime := time.Since(start)

	t := newTable(w, "engine", "time", "matches")
	t.add("peg (optimized, L="+fmt.Sprint(maxL)+")", fmtDur(ours), fmt.Sprint(len(res.Matches)))
	switch {
	case errors.Is(sqlErr, context.DeadlineExceeded):
		t.add("sqlbase (relational)", fmt.Sprintf("> %s (timeout)", fmtDur(h.cfg.SQLTimeout)), "-")
	case sqlErr != nil:
		t.add("sqlbase (relational)", "err: "+sqlErr.Error(), "-")
	default:
		t.add("sqlbase (relational)", fmtDur(sqlTime), fmt.Sprint(len(sqlMatches)))
	}
	t.flush()
	return nil
}

// Figure is one table of the paper's evaluation.
type Figure struct {
	Name string
	Run  func(*Harness, io.Writer) error
}

// Figures lists every figure in paper order; cmd/pegbench runs them all or
// the ones its -only flag names.
var Figures = []Figure{
	{"fig6ab", (*Harness).RunFig6ab},
	{"fig6c", (*Harness).RunFig6c},
	{"fig6d", (*Harness).RunFig6d},
	{"fig6ef", (*Harness).RunFig6ef},
	{"fig7ab", (*Harness).RunFig7ab},
	{"fig7cd", (*Harness).RunFig7cd},
	{"fig7e", (*Harness).RunFig7e},
	{"fig7f", (*Harness).RunFig7f},
	{"fig7g", (*Harness).RunFig7g},
	{"fig7h", (*Harness).RunFig7h},
	{"sql", (*Harness).RunSQL},
}
