package main

import (
	"context"
	"math"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/candidates"
	"repro/internal/core"
	"repro/internal/entity"
	"repro/internal/join"
	"repro/internal/kpartite"
	"repro/internal/pathindex"
	"repro/internal/plan"
	"repro/internal/prob"
	"repro/internal/query"
)

// The replay runs one query the way plan.Executor.Run does, stage by stage
// through the layers' public calls, with a span around each: what the
// library does in one call, priced per layer, from outside. It must return
// bitwise the matches core.Match returns (replay_test.go holds it to that
// and to the executor's stage list), or the ledger prices something the
// library does not do.

// replayStages names the executor stage (plan.StageStats.Name) each replay
// span stands for, in execution order.
var replayStages = []struct{ stage, span string }{
	{"plan", "plan.plan"},
	{"candidates", "candidates.find"},
	{"build", "kpartite.build"},
	{"reduce", "kpartite.reduce"},
	{"join", "join.enumerate"},
}

// tracedReader times the index calls the planner and the candidate stage
// make, as child spans of whichever stage is running. Everything else goes
// straight to the reader underneath.
type tracedReader struct {
	pathindex.Reader
	rec    *recorder
	query  int
	parent int          // span the calls belong to; set between stages, never during
	rows   atomic.Int64 // posting rows returned by Lookup
}

func (t *tracedReader) Lookup(X []prob.LabelID, a float64) ([]pathindex.PathMatch, error) {
	id := t.rec.begin("pathindex.lookup", t.query, t.parent)
	ms, err := t.Reader.Lookup(X, a)
	t.rec.end(id)
	t.rows.Add(int64(len(ms)))
	return ms, err
}

func (t *tracedReader) Cardinality(X []prob.LabelID, a float64) float64 {
	id := t.rec.begin("pathindex.cardinality", t.query, t.parent)
	c := t.Reader.Cardinality(X, a)
	t.rec.end(id)
	return c
}

// Mutations forwards the live view's dirty count, which candidates.Find
// consults through an optional interface the embedded Reader would hide.
func (t *tracedReader) Mutations() uint64 {
	if m, ok := t.Reader.(interface{ Mutations() uint64 }); ok {
		return m.Mutations()
	}
	return 0
}

// stageObs is what one replayed query contributed to the ledger: times in
// microseconds, counts as the stages reported them.
type stageObs struct {
	total      float64 // root span
	firstYield float64 // query start to first match
	parse      float64
	plan       float64
	paths      int
	qerr       float64 // worst per-path max(est/obs, obs/est)
	reordered  bool
	find       float64
	initial    int
	kept       int
	lookupRows int
	build      float64
	links      int
	reduce     float64
	rounds     int
	aliveIn    int
	aliveOut   int
	order      float64
	enumerate  float64
	matches    int
	sort       float64
	// byName sums span durations by name, self sums self time by layer.
	byName map[string]int64
	self   map[string]int64
}

// replay runs q against ix in stages. limit mirrors the two library
// workloads: 0 collects and sorts the full set like core.Match; 1 stops at
// the first emitted match like core.MatchStream{Limit: 1}. workers is the
// stage and join width: 0 means GOMAXPROCS, what zero-value core.Options
// get; the server's zero-value Options run each request on 1.
func replay(ctx context.Context, rec *recorder, qid int, ix pathindex.Reader, q *query.Query, limit, workers int) ([]join.Match, stageObs, error) {
	var obs stageObs
	first := rec.len()
	alphabet := ix.Graph().Alphabet()

	// Parsing is what a server does before the library is called; it is
	// timed beside the query, not inside it.
	text := q.Format(alphabet)
	id := rec.begin("query.parse", qid, -1)
	if _, err := query.ParseString(text, alphabet); err != nil {
		return nil, obs, err
	}
	obs.parse = rec.end(id)

	run := newStagedRun(rec, qid, ix)
	id = rec.begin("plan.plan", qid, run.root)
	run.reader.parent = id
	pl, err := plan.NewPlanner(run.reader, nil).Plan(ctx, q, plan.Options{
		Alpha:    alpha,
		Strategy: core.StrategyOptimized.Name(),
		Space:    plan.FullSpace(),
	})
	if err != nil {
		return nil, obs, err
	}
	obs.plan = rec.end(id)
	out, err := run.execute(ctx, pl, limit, workers, &obs)
	if err != nil {
		return nil, obs, err
	}
	obs.attribute(rec.since(first))
	return out, obs, nil
}

// replayPlan is replay for a plan compiled elsewhere: the stages after
// planning. The fidelity test runs every plan the planner can emit
// through it.
func replayPlan(ctx context.Context, rec *recorder, qid int, ix pathindex.Reader, pl *plan.Plan, limit, workers int) ([]join.Match, stageObs, error) {
	var obs stageObs
	first := rec.len()
	out, err := newStagedRun(rec, qid, ix).execute(ctx, pl, limit, workers, &obs)
	if err != nil {
		return nil, obs, err
	}
	obs.attribute(rec.since(first))
	return out, obs, nil
}

// attribute sums the query's spans by name and their self time by layer.
func (o *stageObs) attribute(spans []span) {
	o.self = layerSelf(spans)
	o.byName = make(map[string]int64)
	for _, s := range spans {
		o.byName[s.Name] += s.dur()
	}
}

// stagedRun is one query's root span and the traced reader its stages
// share.
type stagedRun struct {
	rec    *recorder
	qid    int
	root   int
	start  time.Time
	ix     pathindex.Reader
	reader *tracedReader
}

func newStagedRun(rec *recorder, qid int, ix pathindex.Reader) *stagedRun {
	root := rec.begin("query", qid, -1)
	return &stagedRun{rec: rec, qid: qid, root: root, start: time.Now(), ix: ix,
		reader: &tracedReader{Reader: ix, rec: rec, query: qid, parent: root}}
}

// execute is plan.Executor.Run from the outside: candidates, k-partite
// build, reduction when the plan has it, adaptive join order, emit-order
// join, and for a collect the sort core.Match adds. It closes the root span.
func (r *stagedRun) execute(ctx context.Context, pl *plan.Plan, limit, workers int, obs *stageObs) ([]join.Match, error) {
	rec, qid, root, q := r.rec, r.qid, r.root, pl.Query
	g := r.ix.Graph()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	obs.paths = len(pl.Dec.Paths)

	id := rec.begin("candidates.find", qid, root)
	r.reader.parent = id
	sets, cst, err := candidates.Find(ctx, r.reader, q, pl.Dec, pl.Alpha, workers, nil)
	if err != nil {
		return nil, err
	}
	obs.find = rec.end(id)
	obs.lookupRows = int(r.reader.rows.Load())
	obs.qerr = 1
	for i := range pl.Dec.Paths {
		obs.initial += cst.Initial[i]
		obs.kept += cst.Kept[i]
		est, seen := math.Max(pl.Dec.Paths[i].Card, 1), math.Max(float64(cst.Initial[i]), 1)
		obs.qerr = math.Max(obs.qerr, math.Max(est/seen, seen/est))
	}

	id = rec.begin("kpartite.build", qid, root)
	kg, err := kpartite.Build(ctx, g, q, pl.Dec, sets, pl.Alpha, workers)
	if err != nil {
		return nil, err
	}
	obs.build = rec.end(id)
	obs.links = kg.NumLinks()

	id = rec.begin("kpartite.reduce", qid, root)
	obs.aliveIn = aliveTotal(kg)
	if pl.Reduce {
		rst, err := kg.Reduce(ctx, workers)
		if err != nil {
			return nil, err
		}
		obs.rounds = rst.Rounds
	}
	obs.aliveOut = aliveTotal(kg)
	obs.reduce = rec.end(id)

	id = rec.begin("join.order", qid, root)
	cards := make([]float64, kg.NumPartitions())
	for p := range cards {
		cards[p] = float64(kg.AliveCount(p))
	}
	order := join.OrderWithCards(pl.Dec, pl.OrderMode, cards)
	obs.order = rec.end(id)
	obs.reordered = !equalInts(order, pl.Order)

	id = rec.begin("join.enumerate", qid, root)
	var col collector
	yield := func(m join.Match) bool {
		if col.total == 0 {
			obs.firstYield = float64(time.Since(r.start).Nanoseconds()) / 1e3
		}
		col.add(m)
		return limit == 0 || col.total < limit
	}
	if err := enumerate(ctx, g, pl, kg, order, workers, yield); err != nil {
		return nil, err
	}
	obs.enumerate = rec.end(id)
	obs.matches = col.total

	id = rec.begin("core.sort", qid, root)
	out := col.splice()
	if limit == 0 {
		plan.SortMatches(out)
	}
	obs.sort = rec.end(id)
	obs.total = rec.end(root)
	return out, nil
}

// collector gathers streamed matches the way core.Match's own collector
// does, in doubling chunks spliced once at the end, so that the replay
// pays the allocation pattern the library pays.
type collector struct {
	chunks [][]join.Match
	cur    []join.Match
	total  int
}

func (c *collector) add(m join.Match) {
	if len(c.cur) == cap(c.cur) {
		if len(c.cur) > 0 {
			c.chunks = append(c.chunks, c.cur)
		}
		c.cur = make([]join.Match, 0, max(512, 2*cap(c.cur)))
	}
	c.cur = append(c.cur, m)
	c.total++
}

func (c *collector) splice() []join.Match {
	out := make([]join.Match, 0, c.total)
	for _, chunk := range c.chunks {
		out = append(out, chunk...)
	}
	return append(out, c.cur...)
}

// enumerate is the executor's emit-order join: sequential on one core,
// else morsel workers fanned into one channel so yield stays serial.
func enumerate(ctx context.Context, g *entity.Graph, pl *plan.Plan, kg *kpartite.Graph, order []int, par int, yield func(join.Match) bool) error {
	if par <= 1 {
		return join.FindMatchesFunc(ctx, g, pl.Query, pl.Dec, kg, order, pl.Alpha, yield)
	}
	ch := make(chan join.Match, 4*par) // the executor's fan-in buffer
	stop := make(chan struct{})
	done := make(chan struct{})
	var jerr error
	go func() {
		defer close(done)
		jerr = join.FindMatchesParallel(ctx, g, pl.Query, pl.Dec, kg, order, pl.Alpha, par, func(_ int, m join.Match) bool {
			select {
			case ch <- m:
				return true
			case <-stop:
				return false
			}
		})
		close(ch)
	}()
	for m := range ch {
		if !yield(m) {
			close(stop)
			break
		}
	}
	<-done
	return jerr
}

func aliveTotal(kg *kpartite.Graph) int {
	n := 0
	for p := 0; p < kg.NumPartitions(); p++ {
		n += kg.AliveCount(p)
	}
	return n
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
