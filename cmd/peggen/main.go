// Command peggen generates reference-level uncertain graphs (PGD files) for
// the offline phase: the paper's synthetic preferential-attachment workload
// or the DBLP-like / IMDB-like real-world stand-ins.
//
// Usage:
//
//	peggen -kind synth -refs 10000 -uncertain 0.2 -out graph.pgd
//	peggen -kind dblp  -refs 2000  -out dblp.pgd
//	peggen -kind imdb  -refs 2000  -out imdb.pgd
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/gen"
	"repro/internal/refgraph"
	"repro/internal/storage"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("peggen: ")
	var (
		kind      = flag.String("kind", "synth", "graph kind: synth, dblp, or imdb")
		refs      = flag.Int("refs", 1000, "number of references (authors/actors)")
		edgeFac   = flag.Float64("edges", 5, "relations per reference (synth)")
		labels    = flag.Int("labels", 6, "alphabet size (synth)")
		uncertain = flag.Float64("uncertain", 0.2, "uncertain fraction (synth)")
		groups    = flag.Int("groups", 0, "reference groups k (synth; 0 = refs/1000)")
		seed      = flag.Int64("seed", 1, "random seed")
		out       = flag.String("out", "", "output PGD file (required)")
	)
	flag.Parse()
	if *out == "" {
		flag.Usage()
		os.Exit(2)
	}

	var (
		d   *refgraph.PGD
		err error
	)
	switch *kind {
	case "synth":
		d, err = gen.Synthetic(gen.SynthOptions{
			Refs:          *refs,
			EdgeFactor:    *edgeFac,
			Labels:        *labels,
			UncertainFrac: *uncertain,
			Groups:        *groups,
			Seed:          *seed,
		})
	case "dblp":
		d, err = gen.DBLP(gen.DBLPOptions{Authors: *refs, Seed: *seed})
	case "imdb":
		d, err = gen.IMDB(gen.IMDBOptions{Actors: *refs, Seed: *seed})
	default:
		log.Fatalf("unknown kind %q (want synth, dblp, or imdb)", *kind)
	}
	if err != nil {
		log.Fatal(err)
	}

	if err := storage.WriteFile(storage.OS, *out, d.Save); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s: %d references, %d edges, %d reference sets, labels %v\n",
		*out, d.NumRefs(), d.NumEdges(), d.NumSets(), d.Alphabet().Names())
}
