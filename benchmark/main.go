// Command benchmark is the repository's benchmark: four named workloads
// over the PEG matcher, seven end-to-end metrics each, and a per-layer
// ledger from a traced run. See README.md beside this file.
//
//	bash benchmark/run.sh -workload lib-tree-collect -seed 1 -seconds 20 -trace 0
//	bash benchmark/run.sh -smoke
//	bash benchmark/run.sh -compare benchmark/out/a/runs.ndjson benchmark/out/b/runs.ndjson
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
)

// defaultSeconds is the measured window BENCHMARK.json asks for.
const defaultSeconds = 20

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: "+workloadNames())
		seed     = flag.Int64("seed", 1, "orders the queries of a closed loop's passes and the reads of an open loop; corpus, pool, reads and writes are pinned by the workload")
		seconds  = flag.Float64("seconds", defaultSeconds, "length of the measured window")
		trace    = flag.Int("trace", 0, "1 runs half the window untraced and half traced and reports the per-layer metrics")
		outDir   = flag.String("out", "benchmark/out", "directory for runs.ndjson and trace files")
		workDir  = flag.String("work", "benchmark/.build/work", "directory for index files, emptied after the run")
		smoke    = flag.Bool("smoke", false, "run all four workloads at 500 references for about a second each")
		compare  = flag.Bool("compare", false, "compare two runs.ndjson files given as arguments: parent first, change second")
	)
	flag.Parse()
	ctx := context.Background()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal("-compare takes two files: parent runs, change runs")
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal("%v", err)
		}
		if !ok {
			os.Exit(1)
		}
	case *smoke:
		correct := true
		for _, s := range specs {
			cfg := &runConfig{spec: s.smoke(500), seed: *seed, seconds: 1, trace: true, setups: 2, outDir: *outDir, workDir: *workDir}
			correct = runAndEmit(ctx, cfg) && correct
		}
		if !correct {
			os.Exit(1)
		}
	default:
		s := specByName(*workload)
		if s == nil {
			fatal("unknown workload %q; have %s", *workload, workloadNames())
		}
		if *seconds <= 0 || (*trace != 0 && *trace != 1) {
			fatal("-seconds must be positive and -trace 0 or 1")
		}
		cfg := &runConfig{spec: s, seed: *seed, seconds: *seconds, trace: *trace == 1, setups: setupRepeats, outDir: *outDir, workDir: *workDir}
		if !runAndEmit(ctx, cfg) {
			os.Exit(1)
		}
	}
}

// runAndEmit runs one workload, prints it, and reports whether every
// checked answer was right.
func runAndEmit(ctx context.Context, cfg *runConfig) bool {
	rec, err := run(ctx, cfg)
	if err != nil {
		fatal("%s: %v", cfg.spec.name, err)
	}
	if err := emit(os.Stdout, rec, cfg.outDir); err != nil {
		fatal("%s: %v", cfg.spec.name, err)
	}
	return rec.Correct
}

func workloadNames() string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return strings.Join(names, ", ")
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}
