// Command pegserve serves the online phase over HTTP: it loads a PGD
// snapshot, opens (or builds) the path index, and answers /match and
// /match/stream queries concurrently with a bounded worker pool and
// per-generation result and plan caches (-cache, -plan-cache). A request
// that omits alpha is answered at α = 0.25.
// -workers is the server's one CPU budget: that many requests evaluate at
// once, each on one core (library callers size a run with
// core.Options.Workers instead). /match accepts limit and order fields for
// top-K retrieval; /match/stream emits NDJSON match lines incrementally as
// the join enumeration finds them.
//
// With -live the server runs read-write: -dir holds a live database
// (generation directories plus a CRC-protected mutation log) and POST
// /ingest accepts add-ref / add-edge / set-linkage mutations — single JSON
// objects or NDJSON batches — which become visible to queries immediately
// through the live view and are folded into a fresh on-disk generation
// by the background compactor.
//
// Usage:
//
//	pegserve -pgd graph.pgd -dir ./index -addr :8080
//	pegserve -live -pgd graph.pgd -dir ./livedb -addr :8080
//	curl -s localhost:8080/match -d '{"query":"node A r\nnode B a\nedge A B","alpha":0.2,"limit":10,"order":"prob"}'
//	curl -sN localhost:8080/match/stream -d '{"query":"node A r\nnode B a\nedge A B","alpha":0.2}'
//	curl -s localhost:8080/ingest -d '{"op":"set-linkage","members":[2,3],"p":0.5}'
//	curl -s localhost:8080/stats
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	peg "repro"
	ptrace "repro/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pegserve: ")
	var (
		pgdPath  = flag.String("pgd", "", "input PGD file (required unless -live resumes an existing database)")
		dir      = flag.String("dir", "", "index directory — or live database directory with -live (required)")
		addr     = flag.String("addr", ":8080", "listen address")
		workers  = flag.Int("workers", 0, "concurrent match evaluations, each on one core: the server's one CPU budget (0 = GOMAXPROCS)")
		queue    = flag.Int("queue", 0, "request queue depth before 503 (0 = 4×workers)")
		cache    = flag.Int("cache", 0, "result cache entries (0 = 2048, negative disables)")
		plans    = flag.Int("plan-cache", 0, "plan cache entries (0 = 256, negative disables); repeat queries skip decomposition and planning")
		timeout  = flag.Duration("timeout", 30*time.Second, "per-request timeout")
		maxCost  = flag.Float64("max-cost", 0, "cost-based admission: reject queries whose plan-cost estimate exceeds this with 429 (0 disables)")
		trace    = flag.String("trace", "", "span export file (\"-\" = stderr), one {\"span\":...} NDJSON line per sampled span; enables tracing, so a request sent with a sampled traceparent is traced")
		traceSmp = flag.Float64("trace-sample", 0, "span tracing: fraction of new root traces to sample (0 = only those a sampled traceparent asks for, 1 = all); spans land in the -trace file and in GET /debug/trace/{id}")
		pprofOn  = flag.String("pprof-addr", "", "serve net/http/pprof on this separate listen address (empty disables)")
		build    = flag.Bool("build", false, "build the index first if dir has none")
		maxLen   = flag.Int("L", 3, "index path length when building")
		beta     = flag.Float64("beta", 0.1, "index construction threshold β when building")
		gamma    = flag.Float64("gamma", 0.1, "index resolution γ when building")

		liveMode     = flag.Bool("live", false, "serve read-write: enable POST /ingest backed by a live database in -dir")
		compactEvery = flag.Int("compact-every", 512, "live: background-compact after this many mutations (negative disables)")
		compactDirty = flag.Float64("compact-dirty", 0.25, "live: background-compact once this fraction of entities is dirty (negative disables)")
	)
	flag.Parse()
	if *dir == "" {
		flag.Usage()
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opt := peg.ServerOptions{
		Workers:          *workers,
		QueueDepth:       *queue,
		CacheEntries:     *cache,
		PlanCacheEntries: *plans,
		RequestTimeout:   *timeout,
		MaxPlanCost:      *maxCost,
	}
	var export io.Writer // nil keeps spans ring-only
	if *trace == "-" {
		export = os.Stderr
	} else if *trace != "" {
		tf, err := os.OpenFile(*trace, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatal(err)
		}
		defer tf.Close()
		export = tf
	}
	if export != nil || *traceSmp > 0 {
		opt.Tracer = ptrace.New(ptrace.Config{Service: "pegserve", Sample: *traceSmp, Export: export})
	}
	if *pprofOn != "" {
		go func() {
			log.Printf("pprof listening on %s", *pprofOn)
			log.Printf("pprof: %v", http.ListenAndServe(*pprofOn, peg.PprofHandler()))
		}()
	}

	// Start serving before the index is loaded or built: the server begins
	// unready (GET /healthz answers 503 ready:false, /healthz/live 200), so
	// orchestrators and load balancers can health-check the process
	// through the whole first build instead of getting connection refused.
	srv := peg.NewServer(nil, opt)
	hs := &http.Server{
		Addr:    *addr,
		Handler: srv.Handler(),
		// Connection-level bounds: a client cannot hold a handler open by
		// trickling its body (read) or draining slowly (write) beyond the
		// match budget, so Shutdown's grace window really is an upper bound.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      *timeout + 30*time.Second,
		IdleTimeout:       120 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	log.Printf("listening on %s (not ready: index loading)", *addr)

	var db *peg.LiveDB
	if *liveMode {
		liveOpt := peg.LiveOptions{
			Index:            peg.IndexOptions{MaxLen: *maxLen, Beta: *beta, Gamma: *gamma},
			CompactEvery:     *compactEvery,
			CompactDirtyFrac: *compactDirty,
			Logf:             log.Printf,
		}
		var err error
		db, err = peg.OpenLive(*dir, liveOpt)
		if err != nil {
			// Only "no database here yet" falls through to Create; a
			// corrupt or unloadable existing database must surface its own
			// diagnostic, not a misleading "already holds a database".
			if !errors.Is(err, fs.ErrNotExist) {
				log.Fatal(err)
			}
			if *pgdPath == "" {
				log.Fatalf("%v (and no -pgd to create one)", err)
			}
			d := loadPGD(*pgdPath)
			log.Printf("creating live database in %s (L=%d β=%v γ=%v)", *dir, *maxLen, *beta, *gamma)
			db, err = peg.CreateLive(ctx, *dir, d, liveOpt)
			if err != nil {
				log.Fatal(err)
			}
		}
		st := db.Status()
		log.Printf("live database: generation %d, %d entities, %d pending mutations",
			st.Generation, st.Entities, st.Mutations)
		srv.SetIndex(db.View())
		srv.SetLive(db)
		db.SetPublisher(srv)
	} else {
		if *pgdPath == "" {
			flag.Usage()
			os.Exit(2)
		}
		d := loadPGD(*pgdPath)
		g, err := peg.BuildGraph(d)
		if err != nil {
			log.Fatal(err)
		}
		ix, err := peg.OpenIndex(*dir, g)
		if err != nil && *build {
			log.Printf("no index in %s, building (L=%d β=%v γ=%v)", *dir, *maxLen, *beta, *gamma)
			ix, err = peg.BuildIndex(ctx, g, peg.IndexOptions{
				MaxLen: *maxLen, Beta: *beta, Gamma: *gamma, Dir: *dir,
			})
		}
		if err != nil {
			log.Fatal(err)
		}
		defer ix.Close()
		st := ix.Stats()
		log.Printf("index: %d entries over %d sequences (%d nodes, %d edges)",
			st.Entries, st.Sequences, g.NumNodes(), g.NumEdges())
		srv.SetIndex(ix)
	}
	log.Printf("ready on %s", *addr)

	select {
	case <-ctx.Done():
		// Graceful shutdown on SIGINT/SIGTERM: Shutdown stops admitting
		// requests and drains the worker pool and in-flight NDJSON streams
		// (match and ingest alike) within the grace window; only then is the
		// live database closed, which flushes the mutation log and waits for
		// a running background compaction, so every acknowledged write is on
		// disk before exit.
		log.Print("shutting down: draining in-flight requests")
		shCtx, cancel := context.WithTimeout(context.Background(), *timeout+35*time.Second)
		defer cancel()
		if err := hs.Shutdown(shCtx); err != nil {
			log.Printf("shutdown: %v", err)
		}
		if db != nil {
			if err := db.Close(); err != nil {
				log.Printf("closing live database: %v", err)
			} else {
				log.Print("mutation log flushed")
			}
		}
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(fmt.Errorf("serve: %w", err))
		}
	}
}

func loadPGD(path string) *peg.PGD {
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	d, err := peg.LoadPGD(f)
	if err != nil {
		log.Fatal(err)
	}
	return d
}
