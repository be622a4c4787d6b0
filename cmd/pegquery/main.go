// Command pegquery runs the online phase: it loads a PGD and a prebuilt
// index, parses a query in the text DSL, and streams probabilistic matches
// with probability ≥ α as the join enumeration finds them, together with the
// per-stage statistics. -limit stops the search after N matches (-order prob
// turns it into top-N by probability instead), so a hot query pays only for
// the page it prints.
//
// -explain prints the cost-based planner's chosen plan (decomposition,
// probe-reduction decision, join order, estimated cardinalities, rejected
// alternatives) as JSON without executing the query.
//
// Usage:
//
//	pegquery -pgd graph.pgd -dir ./index -query q.txt -alpha 0.25
//	pegquery -pgd graph.pgd -dir ./index -query q.txt -limit 10 -order prob
//	pegquery -pgd graph.pgd -dir ./index -query q.txt -explain
//	echo 'node A l0
//	node B l1
//	edge A B' | pegquery -pgd graph.pgd -dir ./index -alpha 0.5
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"os/signal"
	"strings"

	peg "repro"
	"repro/internal/query"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pegquery: ")
	var (
		pgdPath   = flag.String("pgd", "", "input PGD file (required)")
		dir       = flag.String("dir", "", "index directory (required)")
		queryPath = flag.String("query", "", "query file in the DSL (default: stdin)")
		alpha     = flag.Float64("alpha", 0.25, "probability threshold α")
		strategy  = flag.String("strategy", "optimized", "optimized, random-decomp, or no-ss-reduction")
		limit     = flag.Int("limit", 20, "stop after N matches (0 = enumerate all)")
		order     = flag.String("order", "emit", "emit (as found, lowest latency) or prob (top-N by probability)")
		stats     = flag.Bool("stats", false, "print per-stage statistics")
		explain   = flag.Bool("explain", false, "print the query plan as JSON and exit without executing")
		seed      = flag.Int64("seed", 0, "random-decomposition seed (0 = deterministic default; the plan records the seed used)")
		traceTree = flag.String("trace-tree", "", "render the cross-process span waterfall of this trace id and exit (needs -trace-from and/or -trace-file, not -pgd/-dir)")
		traceFrom = flag.String("trace-from", "", "comma-separated base URLs of pegserve processes whose GET /debug/trace/{id} to gather")
		traceFile = flag.String("trace-file", "", "comma-separated NDJSON trace files holding {\"span\":...} lines")
	)
	flag.Parse()
	if *traceTree != "" {
		if *traceFrom == "" && *traceFile == "" {
			log.Fatal("-trace-tree needs span sources: -trace-from endpoints and/or -trace-file files")
		}
		if err := runTraceTree(*traceTree, *traceFrom, *traceFile); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *pgdPath == "" || *dir == "" {
		flag.Usage()
		os.Exit(2)
	}

	var strat peg.Strategy
	switch *strategy {
	case "optimized":
		strat = peg.StrategyOptimized
	case "random-decomp":
		strat = peg.StrategyRandomDecomp
	case "no-ss-reduction":
		strat = peg.StrategyNoSSReduction
	default:
		log.Fatalf("unknown strategy %q", *strategy)
	}
	var ord peg.ResultOrder
	switch *order {
	case "emit":
		ord = peg.OrderEmit
	case "prob":
		ord = peg.OrderByProb
	default:
		log.Fatalf("unknown order %q", *order)
	}

	f, err := os.Open(*pgdPath)
	if err != nil {
		log.Fatal(err)
	}
	d, err := peg.LoadPGD(f)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}
	g, err := peg.BuildGraph(d)
	if err != nil {
		log.Fatal(err)
	}
	ix, err := peg.OpenIndex(*dir, g)
	if err != nil {
		log.Fatal(err)
	}
	defer ix.Close()

	var src io.Reader = os.Stdin
	if *queryPath != "" {
		qf, err := os.Open(*queryPath)
		if err != nil {
			log.Fatal(err)
		}
		defer qf.Close()
		src = qf
	}
	q, err := query.Parse(src, g.Alphabet())
	if err != nil {
		log.Fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *explain {
		// Plan only: the printed tree is exactly what a subsequent run
		// executes (and what the server's POST /explain returns).
		tree, err := peg.Explain(ctx, ix, q, peg.MatchOptions{
			Alpha: *alpha, Strategy: strat, Seed: *seed,
		})
		if err != nil {
			log.Fatal(err)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(tree); err != nil {
			log.Fatal(err)
		}
		return
	}

	// Stream matches as the join finds them: with -limit the enumeration
	// stops at the Nth match instead of computing the full set and slicing.
	fmt.Printf("matches with Pr ≥ %v (query: %d nodes, %d edges):\n",
		*alpha, q.NumNodes(), q.NumEdges())
	st, err := peg.MatchStream(ctx, ix, q, peg.MatchOptions{
		Alpha: *alpha, Strategy: strat, Limit: *limit, Order: ord, Seed: *seed,
	}, func(m peg.MatchRecord) bool {
		parts := make([]string, len(m.Mapping))
		for j, v := range m.Mapping {
			parts[j] = fmt.Sprintf("n%d→e%d", j, v)
		}
		fmt.Printf("  %s  Pr=%.6f (Prle=%.6f, Prn=%.6f)\n",
			strings.Join(parts, " "), m.Pr(), m.Prle, m.Prn)
		return true
	})
	if err != nil {
		log.Fatal(err)
	}
	if st.Truncated {
		fmt.Printf("%d matches shown (limit %d reached; more may exist above α)\n", st.Matched, *limit)
	} else {
		fmt.Printf("%d matches\n", st.Matched)
	}
	if *stats {
		fmt.Printf("\nstats:\n")
		fmt.Printf("  decomposition paths: %d\n", st.NumPaths)
		fmt.Printf("  search space (log10): path=%.2f context=%.2f structure=%.2f final=%.2f\n",
			log10(st.SSPath), log10(st.SSContext), log10(st.SSAfterStructure), log10(st.SSFinal))
		fmt.Printf("  times: plan=%v decompose=%v candidates=%v build=%v reduce=%v join=%v total=%v\n",
			st.PlanTime, st.DecomposeTime, st.CandidateTime, st.BuildTime, st.ReduceTime, st.JoinTime, st.Total)
		fmt.Printf("  join order: planned=%v executed=%v (adaptive reorder on observed counts)\n",
			st.PlannedOrder, st.ExecOrder)
		for _, sg := range st.Stages {
			fmt.Printf("  stage %-10s %10.1fµs est=%.0f obs=%.0f pruned=%d\n",
				sg.Name, sg.Micros, sg.EstRows, sg.ObsRows, sg.Pruned)
		}
	}
}

func log10(v float64) float64 {
	if v <= 0 {
		return math.Inf(-1)
	}
	return math.Log10(v)
}
