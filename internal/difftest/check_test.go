package difftest

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/candidates"
	"repro/internal/core"
	"repro/internal/entity"
	"repro/internal/join"
	"repro/internal/kpartite"
	"repro/internal/naive"
	"repro/internal/pathindex"
	"repro/internal/plan"
	"repro/internal/prob"
	"repro/internal/query"
	"repro/internal/sqlbase"
)

var strategies = []core.Strategy{core.StrategyOptimized, core.StrategyRandomDecomp, core.StrategyNoSSReduction}

// A Case is one query at one α over one reader of a corpus, with the
// oracle's answer over that reader's own graph.
type Case struct {
	label string
	co    *corpus
	kind  string
	r     pathindex.Reader
	qi    int
	q     *query.Query
	alpha float64
	want  []join.Match // naive.Matches, by mapping
	n     int          // the case's number in its test, which rotates the entry points
}

// forEach runs check on every case of a — seeds × readers × queries × α —
// and sums what the checks counted.
func forEach(t *testing.T, a *arm, check func(*testing.T, *Case) tally) tally {
	var sum tally
	for _, seed := range a.seeds {
		co := corpusOf(t, a, seed)
		for _, kind := range a.readers {
			for qi := range co.queries {
				for _, alpha := range a.alphas {
					sum.add(check(t, co.newCase(t, kind, qi, alpha, sum.cases)))
				}
			}
		}
	}
	return sum
}

func (co *corpus) newCase(t *testing.T, kind string, qi int, alpha float64, n int) *Case {
	t.Helper()
	c := &Case{
		label: fmt.Sprintf("%s seed %d %s q%d α=%v", co.arm.name, co.seed, kind, qi, alpha),
		co:    co, kind: kind, r: co.readers[kind], qi: qi, q: co.queries[qi], alpha: alpha, n: n,
	}
	c.want = co.oracle(t, kind, qi, alpha)
	return c
}

// oracle returns naive.Matches of query qi at α over the reader kind's
// graph, computed once per corpus: every test of a case reads the same
// answer.
func (co *corpus) oracle(t *testing.T, kind string, qi int, alpha float64) []join.Match {
	t.Helper()
	key := fmt.Sprintf("%s/%d/%x", kind, qi, math.Float64bits(alpha))
	if ms, ok := co.answers.Load(key); ok {
		return ms.([]join.Match)
	}
	ms, err := naive.Matches(context.Background(), co.readers[kind].Graph(), co.queries[qi], alpha)
	if err != nil {
		t.Fatalf("%s seed %d %s q%d α=%v: naive: %v", co.arm.name, co.seed, kind, qi, alpha, err)
	}
	co.answers.Store(key, ms)
	return ms
}

// opt is the case's options at strategy s; the seed fixes RandomDecomp's
// cover.
func (c *Case) opt(s core.Strategy) core.Options {
	return core.Options{Alpha: c.alpha, Strategy: s, Seed: c.co.seed ^ int64(c.qi)}
}

func (c *Case) prepare(t *testing.T, r pathindex.Reader, opt core.Options) *plan.Plan {
	t.Helper()
	pl, err := core.Prepare(context.Background(), r, c.q, opt)
	if err != nil {
		t.Fatalf("%s: Prepare: %v", c.label, err)
	}
	return pl
}

// tally counts what a check saw, so a test can fail a comparison that was
// vacuous.
type tally struct {
	cases, matched, shared int // cases; oracle matches; of those, mapping two entities of one component
	multi, keyWalks        int // declared-limit runs that emitted more than one match; key walks they ran
	kept, links, prefixes  int // candidates kept and links built at Workers 1; declared limits compared
	plans                  int // plans of plan.FullSpace run
}

// tally counts the case and its oracle matches.
func (c *Case) tally() tally {
	n := tally{cases: 1, matched: len(c.want)}
	for _, m := range c.want {
		if sharesComponent(c.r.Graph(), m.Mapping) {
			n.shared++
		}
	}
	return n
}

func (s *tally) add(o tally) {
	s.cases += o.cases
	s.matched += o.matched
	s.shared += o.shared
	s.multi += o.multi
	s.keyWalks += o.keyWalks
	s.kept += o.kept
	s.links += o.links
	s.prefixes += o.prefixes
	s.plans += o.plans
}

// entries are core's four ways to run a query.
var entries = []string{"Match", "MatchStream", "MatchPlan", "MatchStreamPlan"}

// run answers the case through entry e (pl is the plan Prepare returns for
// opt, which the Plan entries execute) and returns the matches in delivery
// order with the run's stats.
func (c *Case) run(t *testing.T, r pathindex.Reader, e int, pl *plan.Plan, opt core.Options) ([]join.Match, plan.Stats) {
	t.Helper()
	ctx := context.Background()
	var got []join.Match
	yield := func(m join.Match) bool { got = append(got, m); return true }
	var (
		res *core.Result
		st  plan.Stats
		err error
	)
	switch entries[e] {
	case "Match":
		res, err = core.Match(ctx, r, c.q, opt)
	case "MatchStream":
		st, err = core.MatchStream(ctx, r, c.q, opt, yield)
	case "MatchPlan":
		res, err = core.MatchPlan(ctx, r, pl, opt)
	case "MatchStreamPlan":
		st, err = core.MatchStreamPlan(ctx, r, pl, opt, yield)
	}
	if err != nil {
		t.Fatalf("%s %s %v limit %d order %v: %v", c.label, entries[e], opt.Strategy, opt.Limit, opt.Order, err)
	}
	if res != nil {
		got, st = res.Matches, res.Stats
	}
	return got, st
}

// checkAnswers is the check every case gets. For every strategy × Limit
// {0, 1, K} × both orders, through one of the four entry points in turn,
// the run is bitwise (mapping, Float64bits of Prle and Prn, order) the
// oracle's: the whole answer by mapping, or the best Limit by probability;
// an emit-order Limit declares a key-walked run, which must emit the first
// Limit matches of the eager-link reference (expectKeyed). Stats.Matched
// and Stats.Truncated agree with the answer. sqlbase agrees with the
// oracle, and a zero reader's oracle with the packed index's.
func checkAnswers(t *testing.T, c *Case) tally {
	t.Helper()
	ctx := context.Background()
	g := c.r.Graph()
	if c.q.NumNodes() <= 4 { // a nested-loop join of five nodes costs more than every run of the case
		sql, err := sqlbase.NewDB(g).Query(ctx, c.q, c.alpha)
		if err != nil {
			t.Fatal(err)
		}
		identical(t, c.label+" sqlbase", c.want, sql)
	}
	if c.kind == zero {
		identical(t, c.label+" vs the packed index's oracle", c.co.oracle(t, packed, c.qi, c.alpha), c.want)
	}
	byProb := byProbability(c.want)
	n := c.tally()
	for si, s := range strategies {
		opt := c.opt(s)
		pl := c.prepare(t, c.r, opt)
		var ref *reference
		for li, limit := range []int{0, 1, c.co.arm.k} {
			for oi, order := range []core.ResultOrder{core.OrderEmit, core.OrderByProb} {
				// Three consecutive entry points per limit and order, one per
				// strategy: a collect and a stream in every case, and every
				// entry point at every strategy over four cases.
				e := (c.n + si + 2*li + oi) % len(entries)
				opt.Limit, opt.Order = limit, order
				at := fmt.Sprintf("%s %s %v limit %d order %v", c.label, entries[e], s, limit, order)
				got, st := c.run(t, c.r, e, pl, opt)
				collected := entries[e] == "Match" || entries[e] == "MatchPlan"
				if st.Matched != len(got) {
					t.Fatalf("%s: Matched %d, %d matches", at, st.Matched, len(got))
				}
				switch {
				case order == core.OrderByProb:
					identical(t, at, byProb[:prefix(limit, len(byProb))], got)
					if trunc := limit > 0 && len(c.want) > limit; st.Truncated != trunc {
						t.Fatalf("%s: Truncated %v, want %v", at, st.Truncated, trunc)
					}
				case limit == 0:
					if !collected {
						got = slices.Clone(got)
						plan.SortMatches(got)
					}
					identical(t, at, c.want, got)
					if st.Truncated {
						t.Fatalf("%s: an unlimited run flagged Truncated", at)
					}
				default:
					if ref == nil {
						ref = c.reference(t, c.r, pl)
					}
					n.add(expectKeyed(t, at, ref, limit, collected, got, st))
					if trunc := len(c.want) >= limit; st.Truncated != trunc {
						t.Fatalf("%s: Truncated %v, want %v", at, st.Truncated, trunc)
					}
				}
			}
		}
	}
	// The collect order is plan.SortMatches', whatever order it starts from.
	shuffled := slices.Clone(c.want)
	rand.New(rand.NewSource(int64(c.n))).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	plan.SortMatches(shuffled)
	identical(t, c.label+" SortMatches", c.want, shuffled)
	return n
}

func prefix(limit, n int) int {
	if limit == 0 {
		return n
	}
	return min(limit, n)
}

// reference is what a run of a plan that declares an emit-order limit must
// begin with, built without key walks: Find's candidate sets, every one
// sorted by its rows' entity ids, position by position — the order the root
// walks hand the first partition's rows over in, and a key walk a key's —
// linked by kpartite.Build, unreduced, and enumerated by join.Enumerate in
// the order the declared run takes from the paths' |PIndex(X, α)|.
type reference struct {
	matches []join.Match
	order   []int
	initial int     // Σ |PIndex(X, α)| over the plan's paths, by exhaustion
	ssPath  float64 // Π of the same
}

// reference builds pl's reference over r and holds it, as a set, to the
// oracle's answer.
func (c *Case) reference(t *testing.T, r pathindex.Reader, pl *plan.Plan) *reference {
	t.Helper()
	ctx := context.Background()
	sets, st, err := candidates.Find(ctx, r, pl.Query, pl.Dec, pl.Alpha, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	cards := make([]float64, len(sets))
	for p := range cards {
		cards[p] = float64(st.Initial[p])
	}
	ref := &reference{order: join.OrderWithCards(pl.Dec, pl.OrderMode, cards), ssPath: 1}
	for p := range sets {
		sortRows(sets[p].Nodes, len(sets[p].Path.Nodes))
	}
	kg, err := kpartite.Build(ctx, r.Graph(), pl.Query, pl.Dec, sets, pl.Alpha, 1)
	if err != nil {
		t.Fatal(err)
	}
	err = join.Enumerate(ctx, r.Graph(), pl.Query, pl.Dec, kg, ref.order, pl.Alpha, 1, func(_ int, m join.Match) bool {
		ref.matches = append(ref.matches, m.Clone())
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pl.Dec.Paths {
		n := bruteCount(r.Graph(), p.Labels, pl.Alpha)
		ref.initial, ref.ssPath = ref.initial+n, ref.ssPath*float64(n)
	}
	sorted := slices.Clone(ref.matches)
	plan.SortMatches(sorted)
	identical(t, c.label+" reference vs naive", c.want, sorted)
	return ref
}

// expectKeyed holds a run that declared emit-order Limit limit to ref: a
// stream emits ref's first limit matches, a collect returns them sorted.
// The run built no links ("keyed"), scanned no path whole, observed
// Σ |PIndex(X, α)| rows and their product as SSPath, and joined in ref's
// order.
func expectKeyed(t *testing.T, at string, ref *reference, limit int, collected bool, got []join.Match, st plan.Stats) tally {
	t.Helper()
	want := ref.matches[:min(limit, len(ref.matches))]
	if collected {
		want = slices.Clone(want)
		plan.SortMatches(want)
	}
	identical(t, at+" vs the reference's prefix", want, got)
	n := tally{prefixes: 1}
	if len(got) > 1 {
		n.multi++
	}
	for _, sg := range st.Stages {
		switch sg.Name {
		case "build":
			if sg.Links != "keyed" || sg.ObsRows != 0 {
				t.Fatalf("%s: build row %+v", at, sg)
			}
		case "candidates":
			if sg.Pruned != 0 || len(got) > 0 && sg.KeyRows == 0 {
				t.Fatalf("%s: candidates row %+v", at, sg)
			}
			if sg.ObsRows != float64(ref.initial) {
				t.Fatalf("%s: candidates row %+v, exhaustion counts %d", at, sg, ref.initial)
			}
			n.keyWalks += sg.KeyWalks
		}
	}
	if st.SSPath != ref.ssPath {
		t.Fatalf("%s: SSPath %v, exhaustion %v", at, st.SSPath, ref.ssPath)
	}
	if !slices.Equal(st.ExecOrder, ref.order) {
		t.Fatalf("%s: join order %v, the reference's %v", at, st.ExecOrder, ref.order)
	}
	return n
}

// checkWorkers holds the pre-join stages to one answer whatever their width:
// for every strategy, candidates.Find at Workers 1, 2 and 4 returns the same
// rows, Initial, Kept, SSPath and SSContext; kpartite.Build over them the
// same Links(p, i, j) at every width; and core.Match the oracle's answer.
func checkWorkers(t *testing.T, c *Case) tally {
	t.Helper()
	ctx := context.Background()
	g := c.r.Graph()
	n := c.tally()
	for _, s := range strategies {
		pl := c.prepare(t, c.r, c.opt(s))
		sets1, st1, err := candidates.Find(ctx, c.r, c.q, pl.Dec, c.alpha, 1, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
		kg1, err := kpartite.Build(ctx, g, c.q, pl.Dec, sets1, c.alpha, 1)
		if err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
		n.links += kg1.NumLinks()
		for _, k := range st1.Kept {
			n.kept += k
		}
		for _, w := range []int{1, 2, 4} {
			at := fmt.Sprintf("%s %v Workers %d", c.label, s, w)
			sets, st, err := candidates.Find(ctx, c.r, c.q, pl.Dec, c.alpha, w, nil)
			if err != nil {
				t.Fatalf("%s: %v", at, err)
			}
			for i := range sets1 {
				x, y := &sets1[i], &sets[i]
				if x.Initial != y.Initial || !slices.Equal(x.Nodes, y.Nodes) {
					t.Fatalf("%s: path %d: initial %d kept %d, want initial %d kept %d (or rows differ)", at, i, y.Initial, y.Len(), x.Initial, x.Len())
				}
			}
			if !slices.Equal(st.Initial, st1.Initial) || !slices.Equal(st.Kept, st1.Kept) ||
				!sameBits(st.SSPath, st1.SSPath) || !sameBits(st.SSContext, st1.SSContext) {
				t.Fatalf("%s: stats %+v, want %+v", at, st, st1)
			}
			kg, err := kpartite.Build(ctx, g, c.q, pl.Dec, sets, c.alpha, w)
			if err != nil {
				t.Fatalf("%s: %v", at, err)
			}
			sameLinks(t, at, kg1, kg)
			opt := c.opt(s)
			opt.Workers = w
			res, err := core.Match(ctx, c.r, c.q, opt)
			if err != nil {
				t.Fatalf("%s: %v", at, err)
			}
			identical(t, at+" vs naive", c.want, res.Matches)
		}
	}
	return n
}

// declaredLimits are the limits checkDeclared compares: every one from 1
// to one past the answer of a short answer; of a long one the first 16,
// one in n/16 after them, and the last two and one past.
func declaredLimits(n int) []int {
	var ks []int
	for k := 1; k <= n+1; k++ {
		if stride := n / 16; k <= 16 || k >= n-1 || stride <= 1 || k%stride == 0 {
			ks = append(ks, k)
		}
	}
	return ks
}

// checkDeclared holds every declared emit-order limit K of a case to the
// reference (expectKeyed), streamed and collected, for every strategy.
func checkDeclared(t *testing.T, c *Case) tally {
	t.Helper()
	return declaredOn(t, c, c.r)
}

// checkEveryReader holds a reader whose answers are the packed index's
// (clean, zero) to the packed index's plan and stream: for every strategy
// core.Prepare on it returns the packed index's plan tree, and running the
// packed index's plan, it must emit the packed index's reference at every
// declared limit. A declared-limit run walks every partition in ascending
// order of its rows' ids, so its stream does not depend on how a reader
// lays its candidates out.
func checkEveryReader(t *testing.T, c *Case) tally {
	t.Helper()
	if c.kind != clean && c.kind != zero {
		return c.tally()
	}
	p := c.co.readers[packed]
	for _, s := range strategies {
		got, want := c.prepare(t, c.r, c.opt(s)).Tree, c.prepare(t, p, c.opt(s)).Tree
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s %v: plan of %d paths costing %v, the packed index's %d paths costing %v", c.label, s, len(got.Paths), got.Cost.Total, len(want.Paths), want.Cost.Total)
		}
	}
	return declaredOn(t, c, p)
}

// declaredOn runs the case's reader, for every strategy, with the plan
// prepared on r at every declared limit, and holds each run to r's
// reference.
func declaredOn(t *testing.T, c *Case, r pathindex.Reader) tally {
	t.Helper()
	n := c.tally()
	for _, s := range strategies {
		opt := c.opt(s)
		pl := c.prepare(t, r, opt)
		ref := c.reference(t, r, pl)
		for i, k := range declaredLimits(len(ref.matches)) {
			opt.Limit = k
			e := 2 + i%2 // MatchPlan and MatchStreamPlan in turn
			at := fmt.Sprintf("%s %s %v declared limit %d of %d", c.label, entries[e], s, k, len(ref.matches))
			if r != c.r {
				at += " (the packed index's plan)"
			}
			got, st := c.run(t, c.r, e, pl, opt)
			n.add(expectKeyed(t, at, ref, k, e == 2, got, st))
		}
	}
	return n
}

// checkPlans holds every plan of plan.FullSpace — decomposition mode ×
// reduction on or off × join-order heuristic — to the oracle: plans differ
// in cost, never in the answer, which is what makes the planner's choice
// a cost decision and a cached plan safe to reuse.
func checkPlans(t *testing.T, c *Case) tally {
	t.Helper()
	ctx := context.Background()
	plans, err := plan.NewPlanner(c.r, nil).Enumerate(ctx, c.q, plan.Options{
		Alpha: c.alpha, Strategy: "optimized", Space: plan.FullSpace(), Seed: c.co.seed + int64(c.qi),
	})
	if err != nil {
		t.Fatalf("%s: Enumerate: %v", c.label, err)
	}
	if len(plans) < 4 {
		t.Fatalf("%s: only %d candidate plans", c.label, len(plans))
	}
	for i, pl := range plans {
		res, err := core.MatchPlan(ctx, c.r, pl, core.Options{Alpha: c.alpha})
		if err != nil {
			t.Fatalf("%s plan %d: %v", c.label, i, err)
		}
		identical(t, fmt.Sprintf("%s plan %d (%s/%s/reduce=%v)", c.label, i, pl.Tree.DecomposeMode, pl.Tree.JoinOrderMode, pl.Reduce), c.want, res.Matches)
	}
	n := c.tally()
	n.plans = len(plans)
	return n
}

// identical demands exact equality — mapping, Prle, Prn (bitwise), and
// order — between two result sets: every match's probability is multiplied
// in one fixed order whichever join order found it.
func identical(t *testing.T, label string, want, got []join.Match) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d matches, want %d", label, len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if !slices.Equal(w.Mapping, g.Mapping) {
			t.Fatalf("%s: match %d mapping %v, want %v", label, i, g.Mapping, w.Mapping)
		}
		if !sameBits(w.Prle, g.Prle) || !sameBits(w.Prn, g.Prn) {
			t.Fatalf("%s: match %d probabilities (%v, %v), want (%v, %v)", label, i, g.Prle, g.Prn, w.Prle, w.Prn)
		}
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// byProbability orders the oracle's matches (sorted by mapping) the way
// OrderByProb must: decreasing Pr, ties by mapping — a stable sort on Pr
// alone, independent of the executor's comparator.
func byProbability(ms []join.Match) []join.Match {
	out := slices.Clone(ms)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Pr() > out[j].Pr() })
	return out
}

func sameLinks(t *testing.T, at string, a, b *kpartite.Graph) {
	t.Helper()
	for p := 0; p < a.NumPartitions(); p++ {
		if a.NumCandidates(p) != b.NumCandidates(p) {
			t.Fatalf("%s: partition %d: %d vertices, want %d", at, p, b.NumCandidates(p), a.NumCandidates(p))
		}
		for i := 0; i < a.NumCandidates(p); i++ {
			for j := 0; j < a.NumPartitions(); j++ {
				if !slices.Equal(a.Links(p, i, j), b.Links(p, i, j)) {
					t.Fatalf("%s: Links(%d,%d,%d) = %v, want %v", at, p, i, j, b.Links(p, i, j), a.Links(p, i, j))
				}
			}
		}
	}
}

// sortRows sorts the rows of w ids each in nodes, in place, by their ids.
func sortRows(nodes []entity.ID, w int) {
	rows := make([][]entity.ID, len(nodes)/w)
	for i := range rows {
		rows[i] = slices.Clone(nodes[i*w : (i+1)*w])
	}
	slices.SortFunc(rows, slices.Compare)
	for i, r := range rows {
		copy(nodes[i*w:], r)
	}
}

// bruteCount is |PIndex(X, α)| over g by exhaustion: every simple path whose
// nodes carry X, scored only at full length — the label and edge factors in
// path order times Graph.Prn of its nodes — with no prefix pruning.
func bruteCount(g *entity.Graph, X []prob.LabelID, alpha float64) int {
	count := 0
	nodes := make([]entity.ID, 0, len(X))
	var grow func(prle float64)
	grow = func(prle float64) {
		n := len(nodes)
		if n == len(X) {
			if prob.MayClear(prle*g.Prn(nodes), alpha, pathindex.PathFactors(len(X))) {
				count++
			}
			return
		}
		for _, nb := range g.Neighbors(nodes[n-1]) {
			lp := g.PrLabel(nb.To, X[n])
			if lp == 0 || slices.Contains(nodes, nb.To) {
				continue
			}
			nodes = append(nodes, nb.To)
			grow(prle * g.PrEdge(nb, X[n-1], X[n]) * lp)
			nodes = nodes[:n]
		}
	}
	for v := range g.NumNodes() {
		if lp := g.PrLabel(entity.ID(v), X[0]); lp != 0 {
			nodes = append(nodes[:0], entity.ID(v))
			grow(lp)
		}
	}
	return count
}

func sharesComponent(g *entity.Graph, mapping []entity.ID) bool {
	for i, v := range mapping {
		for _, u := range mapping[:i] {
			if g.Comp(u) == g.Comp(v) {
				return true
			}
		}
	}
	return false
}
