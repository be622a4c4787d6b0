// Command pegbuild runs the offline phase of Section 5.1: it loads a PGD
// file, constructs the probabilistic entity graph (component probabilities
// included), and builds the context-aware path index on disk.
//
// Usage:
//
//	pegbuild -pgd graph.pgd -dir ./index -L 3 -beta 0.1 -gamma 0.1
//
// The index is one packed.idx file under -dir, opened mmap'd by pegquery
// and pegserve.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"

	peg "repro"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pegbuild: ")
	var (
		pgdPath = flag.String("pgd", "", "input PGD file (required)")
		dir     = flag.String("dir", "", "output index directory (required)")
		maxLen  = flag.Int("L", 3, "maximum indexed path length")
		beta    = flag.Float64("beta", 0.1, "index construction threshold β")
		gamma   = flag.Float64("gamma", 0.1, "index resolution γ")
		workers = flag.Int("workers", 0, "goroutines computing the context tables (0 = GOMAXPROCS); the path walk is sequential")
	)
	flag.Parse()
	if *pgdPath == "" || *dir == "" {
		flag.Usage()
		os.Exit(2)
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

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	g, err := peg.BuildGraph(d)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("entity graph: %d nodes, %d edges, %d identity components, %d bytes resident\n",
		g.NumNodes(), g.NumEdges(), g.NumComponents(), g.Bytes())

	ix, err := peg.BuildIndex(ctx, g, peg.IndexOptions{
		MaxLen: *maxLen, Beta: *beta, Gamma: *gamma, Dir: *dir, Workers: *workers,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer ix.Close()
	st := ix.Stats()
	fmt.Printf("index: %d entries over %d label sequences, %d bytes on disk, built in %v\n",
		st.Entries, st.Sequences, st.Bytes, st.Duration)
	for l, n := range st.EntriesPerLen {
		fmt.Printf("  length %d: %d entries\n", l, n)
	}
}
