// Package peg is a library for subgraph pattern matching over uncertain
// graphs with identity linkage uncertainty, reproducing Moustafa, Kimmig,
// Deshpande & Getoor, "Subgraph Pattern Matching over Uncertain Graphs with
// Identity Linkage Uncertainty" (ICDE 2014).
//
// The model combines three kinds of uncertainty over graph data:
//
//   - node attribute (label) uncertainty — a probability distribution over
//     labels per node,
//   - edge existence uncertainty — per-edge existence probabilities,
//     optionally conditioned on the endpoint labels, and
//   - identity uncertainty — observed references may denote the same
//     real-world entity, with a merge probability per candidate set.
//
// # Workflow
//
// Build a reference-level description (PGD), transform it into a
// probabilistic entity graph, build the disk-based context-aware path index
// offline, and answer threshold queries online:
//
//	alpha, _ := peg.NewAlphabet("a", "r", "i")
//	d := peg.NewPGD(alpha)
//	r1 := d.AddReference(peg.MustDist(
//		peg.LabelProb{Label: alpha.ID("r"), P: 0.25},
//		peg.LabelProb{Label: alpha.ID("i"), P: 0.75}))
//	...
//	g, err := peg.BuildGraph(d)
//	ix, err := peg.BuildIndex(ctx, g, peg.IndexOptions{MaxLen: 3, Beta: 0.1, Gamma: 0.1, Dir: dir})
//	q := peg.NewQuery()
//	...
//	res, err := peg.Match(ctx, ix, q, peg.MatchOptions{Alpha: 0.25})
//
// # Streaming
//
// Match buffers the full result set. When the caller wants the first page —
// or the top-K by probability — stream instead: matches flow out of the join
// enumeration as they are found, and Limit or breaking the loop aborts the
// remaining search immediately:
//
//	for m, err := range peg.MatchSeq(ctx, ix, q, peg.MatchOptions{Alpha: 0.25, Limit: 10}) {
//		if err != nil { ... }
//		use(m)
//	}
//
// Every run enumerates its join on the calling goroutine, so what it emits,
// and which matches a Limit keeps, are deterministic; MatchOptions.Workers
// spreads only the stages before the join.
//
// # Live ingest
//
// The offline artifacts above are immutable; a LiveDB makes the system
// writable while queries keep serving. Mutations (AddRef / AddEdge /
// SetLinkage evidence) are WAL-logged, folded into the entity graph
// incrementally, and merged into query results by walking the paths
// through the entities they dirtied; a background compactor folds
// everything into fresh on-disk generations:
//
//	db, err := peg.CreateLive(ctx, dir, d, peg.LiveOptions{Index: peg.IndexOptions{MaxLen: 3, Beta: 0.1, Gamma: 0.1}})
//	res, err := db.Apply([]peg.Mutation{{Op: peg.OpSetLinkage, Members: []peg.RefID{r3, r4}, P: 0.5}})
//	matches, err := peg.Match(ctx, db.View(), q, peg.MatchOptions{Alpha: 0.25})
//
// See examples/ for complete programs and DESIGN.md for the system map
// (including the "Live updates" layer map).
package peg

import (
	"context"
	"iter"
	"net/http"

	"repro/internal/core"
	"repro/internal/entity"
	"repro/internal/join"
	"repro/internal/live"
	"repro/internal/pathindex"
	"repro/internal/plan"
	"repro/internal/prob"
	"repro/internal/query"
	"repro/internal/refgraph"
	"repro/internal/server"
)

// Core model types, re-exported from the implementation packages. The
// aliases are the public API; the internal packages are not importable by
// downstream modules.
type (
	// Alphabet interns label strings to dense ids.
	Alphabet = prob.Alphabet
	// LabelID is an interned label.
	LabelID = prob.LabelID
	// LabelProb is one entry of a label distribution.
	LabelProb = prob.LabelProb
	// Dist is a discrete probability distribution over labels.
	Dist = prob.Dist
	// MergeFuncs bundles the label and edge merge functions mΣ and m{T,F}.
	MergeFuncs = prob.MergeFuncs

	// PGD is the reference-level probabilistic graph description.
	PGD = refgraph.PGD
	// RefID identifies a reference in a PGD.
	RefID = refgraph.RefID
	// EdgeDist is a reference edge's existence distribution (optionally a
	// label-conditioned CPT).
	EdgeDist = refgraph.EdgeDist

	// Graph is the probabilistic entity graph (PEG).
	Graph = entity.Graph
	// EntityID identifies an entity node.
	EntityID = entity.ID
	// BuildOptions configures PEG construction.
	BuildOptions = entity.BuildOptions
	// Semantics selects the identity component scoring.
	Semantics = entity.Semantics

	// Index is the context-aware path index (offline phase artifact).
	Index = pathindex.Index
	// IndexReader is the query-time index surface: *Index implements it, and
	// so does a live database view (base index ⊕ paths walked from its
	// dirty entities).
	// Match, MatchStream, MatchSeq, and NewServer accept any IndexReader.
	IndexReader = pathindex.Reader
	// IndexOptions configures index construction.
	IndexOptions = pathindex.Options
	// IndexStats reports offline phase metrics.
	IndexStats = pathindex.BuildStats

	// LiveDB is the writable database: a PGD plus serving state accepting
	// mutations at query time, backed by a CRC-protected mutation log, an
	// incremental entity-graph delta, a dirty set whose paths reads walk on
	// demand, and a background compactor publishing fresh on-disk generations.
	LiveDB = live.DB
	// LiveOptions configures a live database (index parameters per
	// generation, compaction thresholds, publisher).
	LiveOptions = live.Options
	// LiveView is one immutable snapshot of a live database; it implements
	// IndexReader.
	LiveView = live.View
	// LiveStatus summarizes a live database's generation and dirty-set state.
	LiveStatus = live.Status
	// Mutation is one write against a live database: add-ref, add-edge, or
	// set-linkage (merge-probability evidence).
	Mutation = live.Mutation
	// MutationLabel is one label entry of an add-ref mutation.
	MutationLabel = live.LabelP
	// ApplyResult summarizes one accepted mutation batch.
	ApplyResult = live.ApplyResult

	// Query is a labeled query graph.
	Query = query.Query
	// QueryNodeID identifies a query node.
	QueryNodeID = query.NodeID

	// MatchRecord is a full query match with its probability components
	// (mapping ψ plus Prle and Prn).
	MatchRecord = join.Match
	// MatchOptions configures a match run: threshold, strategy, Workers
	// (the stages before the join; the join runs on the calling goroutine)
	// and the streaming knobs Limit and Order.
	MatchOptions = core.Options
	// MatchResult bundles matches with per-stage statistics.
	MatchResult = core.Result
	// MatchStats reports per-stage search-space and timing data, including
	// the Matched count and the Truncated flag of limited runs.
	MatchStats = core.Stats
	// Strategy selects the matching variant (optimized or a baseline).
	Strategy = core.Strategy
	// ResultOrder selects how streamed matches are ordered (OrderEmit or
	// OrderByProb).
	ResultOrder = core.ResultOrder

	// PreparedPlan is a compiled query plan: the decomposition and resolved
	// execution knobs chosen by the cost-based planner. Immutable; one plan
	// may be executed any number of times, concurrently (see PreparePlan
	// and MatchPlan).
	PreparedPlan = plan.Plan
	// QueryPlan is the JSON-serializable plan tree EXPLAIN surfaces —
	// returned by Explain, by the server's POST /explain, and reported in
	// MatchStats.Plan after execution.
	QueryPlan = plan.Tree
	// PlanStage is one executed stage's record in MatchStats.Stages:
	// timing, estimated vs. observed cardinality, prune count.
	PlanStage = plan.StageStats
	// MatchOptionsError is the typed validation error Match* return for
	// out-of-range options (NaN α, negative limit, unknown strategy...);
	// the server maps it to HTTP 400.
	MatchOptionsError = core.OptionsError

	// Server is the concurrent HTTP/JSON query-serving front end.
	Server = server.Server
	// ServerOptions configures the server (worker pool, result and plan
	// caches, request timeout, admission cost cap).
	ServerOptions = server.Options
	// MatchRequest is the JSON body of the server's /match and
	// /match/stream endpoints.
	MatchRequest = server.MatchRequest
	// MatchResponse is the JSON body answering a match request.
	MatchResponse = server.MatchResponse
	// StreamEvent is one NDJSON line of the server's /match/stream
	// response: a match, the terminal done summary, or an error.
	StreamEvent = server.StreamEvent
	// StreamDone is the terminal summary line of a /match/stream response.
	StreamDone = server.StreamDone
	// ServedMatch is one probabilistic match in a server response.
	ServedMatch = server.MatchEntry
)

// Identity semantics (see DESIGN.md "Semantics note").
const (
	// SemanticsExample reproduces the paper's worked example: a reference
	// set with probability p merges with probability p. Default.
	SemanticsExample = entity.SemanticsExample
	// SemanticsFactor is the literal Definition 2 factor product.
	SemanticsFactor = entity.SemanticsFactor
)

// Mutation op names for live ingest.
const (
	OpAddRef     = live.OpAddRef
	OpAddEdge    = live.OpAddEdge
	OpSetLinkage = live.OpSetLinkage
)

// Matching strategies (Section 6.2.1).
const (
	StrategyOptimized     = core.StrategyOptimized
	StrategyRandomDecomp  = core.StrategyRandomDecomp
	StrategyNoSSReduction = core.StrategyNoSSReduction
)

// Result orders for streamed matches.
const (
	// OrderEmit emits matches in the order the join enumeration discovers
	// them — lowest latency to the first match; Limit stops the search
	// early. Default.
	OrderEmit = core.OrderEmit
	// OrderByProb emits matches in decreasing probability; with Limit it is
	// top-K retrieval backed by a bounded min-heap.
	OrderByProb = core.OrderByProb
)

// NewAlphabet interns the given labels.
func NewAlphabet(labels ...string) (*Alphabet, error) { return prob.NewAlphabet(labels...) }

// MustAlphabet is NewAlphabet for static label sets known to be valid.
func MustAlphabet(labels ...string) *Alphabet { return prob.MustAlphabet(labels...) }

// NewDist builds a label distribution from entries; it must sum to 1.
func NewDist(entries ...LabelProb) (Dist, error) { return prob.NewDist(entries...) }

// MustDist is NewDist for distributions known to be valid.
func MustDist(entries ...LabelProb) Dist { return prob.MustDist(entries...) }

// Point returns the deterministic distribution on one label.
func Point(l LabelID) Dist { return prob.Point(l) }

// Merge functions of Definition 1. AverageLabels/AverageEdges are the
// paper's experimental defaults; DisjunctEdges is the noisy-or alternative
// named in Section 3.
var (
	AverageLabels = prob.AverageLabels
	AverageEdges  = prob.AverageEdges
	DisjunctEdges = prob.DisjunctEdges
	MaxEdges      = prob.MaxEdges
)

// NewPGD creates an empty reference-level description over the alphabet,
// with average merge functions.
func NewPGD(a *Alphabet) *PGD { return refgraph.New(a) }

// LoadPGD reads a PGD binary snapshot (see PGD.Save).
var LoadPGD = refgraph.Load

// BuildGraph constructs the probabilistic entity graph from a PGD: entities
// are merged per reference set, label/edge distributions are combined with
// the PGD's merge functions, and the identity components are precomputed.
func BuildGraph(d *PGD, opts ...BuildOptions) (*Graph, error) {
	var o BuildOptions
	if len(opts) > 0 {
		o = opts[0]
	}
	return entity.Build(d, o)
}

// BuildIndex runs the offline phase: context information and the
// context-aware path index over all paths of length ≤ MaxLen with
// probability ≥ Beta, written to one packed.idx file under Dir.
func BuildIndex(ctx context.Context, g *Graph, opt IndexOptions) (*Index, error) {
	return pathindex.Build(ctx, g, opt)
}

// OpenIndex attaches to a previously built index directory: its packed.idx
// is mapped read-only and checked against g.
func OpenIndex(dir string, g *Graph) (*Index, error) { return pathindex.Open(dir, g) }

// NewQuery creates an empty query graph.
func NewQuery() *Query { return query.New() }

// ParseQuery reads the text query DSL ("node NAME LABEL" / "edge A B").
func ParseQuery(src string, a *Alphabet) (*Query, error) { return query.ParseString(src, a) }

// CreateLive initializes a live (writable) database directory from a PGD:
// generation 1 is built on disk and an empty mutation log is created. See
// LiveDB for the write path.
func CreateLive(ctx context.Context, dir string, d *PGD, opt LiveOptions) (*LiveDB, error) {
	return live.Create(ctx, dir, d, opt)
}

// OpenLive attaches to an existing live database directory, replaying the
// mutation log over the current generation.
func OpenLive(dir string, opt LiveOptions) (*LiveDB, error) {
	return live.Open(dir, opt)
}

// Match answers a probabilistic subgraph pattern matching query
// (Definition 5): all matches M of q with Pr(M) ≥ opt.Alpha, with exact
// probabilities and per-stage statistics. It buffers the whole result set;
// use MatchStream or MatchSeq to consume matches as they are found.
func Match(ctx context.Context, ix IndexReader, q *Query, opt MatchOptions) (*MatchResult, error) {
	return core.Match(ctx, ix, q, opt)
}

// MatchStream answers the same query as Match but invokes yield once per
// match as the join enumeration finds it, so the first result arrives
// without waiting for — or allocating — the full match set. Returning false
// from yield, reaching opt.Limit, or cancelling ctx stops the remaining
// search immediately; the returned MatchStats carry the per-stage numbers
// and the Truncated flag.
func MatchStream(ctx context.Context, ix IndexReader, q *Query, opt MatchOptions, yield func(MatchRecord) bool) (MatchStats, error) {
	return core.MatchStream(ctx, ix, q, opt, yield)
}

// MatchSeq is the iterator form of MatchStream, for direct use in a
// range-over-func loop:
//
//	for m, err := range peg.MatchSeq(ctx, ix, q, opt) {
//		if err != nil {
//			return err
//		}
//		use(m)
//	}
//
// Breaking out of the loop aborts the enumeration. A failed run yields one
// final (zero MatchRecord, err) pair.
func MatchSeq(ctx context.Context, ix IndexReader, q *Query, opt MatchOptions) iter.Seq2[MatchRecord, error] {
	return core.MatchSeq(ctx, ix, q, opt)
}

// Explain returns the plan tree the query would execute under — the
// cost-based planner's choice of decomposition mode, probe reduction, and
// join order, with estimated cardinalities, the cost breakdown, and the
// rejected alternatives — without executing anything. The same tree is
// reported in MatchStats.Plan after a real run.
func Explain(ctx context.Context, ix IndexReader, q *Query, opt MatchOptions) (*QueryPlan, error) {
	return core.Explain(ctx, ix, q, opt)
}

// PreparePlan compiles the query's execution plan without running it. The
// returned plan is immutable and reusable: MatchPlan executes it any number
// of times, skipping decomposition and planning — the library-level
// equivalent of the server's plan cache.
func PreparePlan(ctx context.Context, ix IndexReader, q *Query, opt MatchOptions) (*PreparedPlan, error) {
	return core.Prepare(ctx, ix, q, opt)
}

// MatchPlan answers a query by executing a previously prepared plan —
// exactly Match's results, minus the planning work.
func MatchPlan(ctx context.Context, ix IndexReader, pl *PreparedPlan, opt MatchOptions) (*MatchResult, error) {
	return core.MatchPlan(ctx, ix, pl, opt)
}

// NewServer wraps an opened index (or a live database view) in the
// concurrent HTTP/JSON query server; mount NewServer(ix, opt).Handler() on
// an http.Server (see cmd/pegserve). To enable the write path, pair it with
// a LiveDB: srv.SetLive(db); db.SetPublisher(srv).
func NewServer(ix IndexReader, opt ServerOptions) *Server { return server.New(ix, opt) }

// PprofHandler exposes the net/http/pprof endpoints for an opt-in,
// separately-listening profile server (pegserve -pprof-addr).
func PprofHandler() http.Handler { return server.PprofHandler() }
