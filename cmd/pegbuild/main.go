// Command pegbuild runs the offline phase of Section 5.1: it loads a PGD
// file, constructs the probabilistic entity graph (component probabilities
// included), and builds the context-aware path index on disk.
//
// Usage:
//
//	pegbuild -pgd graph.pgd -dir ./index -L 3 -beta 0.1 -gamma 0.1
//
// -format selects the index layout: v2 (default) is the packed single-file
// mmap format, v1 the B+-tree directory layout kept for rolling upgrades.
//
// With -shards N it instead runs the cluster-tier build: the PGD is split
// into N linkage-closure shards, each shard's PGD snapshot and path index
// are written under -out, and a manifest catalog is published last —
// the input for N pegserve processes fronted by pegrouter.
//
//	pegbuild -pgd graph.pgd -shards 2 -out ./cluster -L 3 -beta 0.1 -gamma 0.1
//
// With -repack it migrates an existing v1 index directory to the packed v2
// format in place (losslessly; the v1 files are kept for rollback):
//
//	pegbuild -pgd graph.pgd -dir ./index -repack
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"

	peg "repro"
	"repro/internal/pathindex"
	"repro/internal/shard"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pegbuild: ")
	var (
		pgdPath = flag.String("pgd", "", "input PGD file (required)")
		dir     = flag.String("dir", "", "output index directory (single-index mode)")
		shards  = flag.Int("shards", 0, "partition into this many shards (cluster mode; requires -out)")
		out     = flag.String("out", "", "output cluster directory (cluster mode)")
		maxLen  = flag.Int("L", 3, "maximum indexed path length")
		beta    = flag.Float64("beta", 0.1, "index construction threshold β")
		gamma   = flag.Float64("gamma", 0.1, "index resolution γ")
		workers = flag.Int("workers", 0, "build parallelism (0 = GOMAXPROCS)")
		format  = flag.String("format", "v2", "index layout: v2 (packed, mmap) or v1 (B+ tree)")
		repack  = flag.Bool("repack", false, "migrate the v1 index in -dir to the packed v2 format, then exit")
	)
	flag.Parse()
	cluster := *shards > 0
	if *pgdPath == "" || (cluster && *out == "") || (!cluster && *dir == "") {
		flag.Usage()
		os.Exit(2)
	}
	ixFormat, err := pathindex.ParseFormat(*format)
	if err != nil {
		log.Fatal(err)
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

	if *repack {
		if cluster {
			log.Fatal("-repack works on one index directory; run it per shard generation")
		}
		g, err := peg.BuildGraph(d)
		if err != nil {
			log.Fatal(err)
		}
		st, err := pathindex.Repack(*dir, g)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("repacked %s: %d entries over %d sequences into %d bytes in %v\n",
			*dir, st.Entries, st.Sequences, st.Bytes, st.Duration)
		fmt.Println("v1 artifacts left in place for rollback; delete them once validated")
		return
	}

	if cluster {
		m, err := shard.Build(ctx, d, *out, shard.Options{
			Shards: *shards,
			Index:  pathindex.Options{MaxLen: *maxLen, Beta: *beta, Gamma: *gamma, Workers: *workers, Format: ixFormat},
			Logf:   func(format string, args ...any) { fmt.Printf(format+"\n", args...) },
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("published %s/%s: %d shards over %d refs, %d sets (index format %s)\n",
			*out, shard.ManifestName, m.Shards, m.TotalRefs, m.TotalSets, ixFormat)
		return
	}

	g, err := peg.BuildGraph(d)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("entity graph: %d nodes, %d edges, %d identity components, %d bytes resident\n",
		g.NumNodes(), g.NumEdges(), g.NumComponents(), g.Bytes())

	ix, err := peg.BuildIndex(ctx, g, peg.IndexOptions{
		MaxLen: *maxLen, Beta: *beta, Gamma: *gamma, Dir: *dir, Workers: *workers, Format: ixFormat,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer ix.Close()
	st := ix.Stats()
	fmt.Printf("index (format %s): %d entries over %d label sequences, %d bytes on disk, built in %v\n",
		ixFormat, st.Entries, st.Sequences, st.Bytes, st.Duration)
	for l, n := range st.EntriesPerLen {
		fmt.Printf("  length %d: %d entries\n", l, n)
	}
}
