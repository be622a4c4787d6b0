// Command pegrouter is the stateless scatter-gather front end of the
// cluster tier: it loads the manifest catalog a sharded pegbuild published,
// fans /match, /match/stream, and /explain out to one replica of every
// shard, and merges the per-shard answers into single-node-identical
// results (see internal/router).
//
// Usage:
//
//	pegbuild -pgd graph.pgd -shards 2 -out ./cluster
//	pegserve -pgd cluster/shard-00/gen-000001/pgd.snap -dir cluster/shard-00/gen-000001/index -addr :8081 &
//	pegserve -pgd cluster/shard-01/gen-000001/pgd.snap -dir cluster/shard-01/gen-000001/index -addr :8082 &
//	pegrouter -manifest ./cluster -addr :8090 \
//	    -shard 0=http://localhost:8081 -shard 1=http://localhost:8082
//	curl -s localhost:8090/match -d '{"query":"node A l0\nnode B l1\nedge A B","alpha":0.2,"limit":10,"order":"prob"}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pegrouter: ")
	var (
		manifestDir = flag.String("manifest", "", "cluster directory holding MANIFEST.json (required)")
		addr        = flag.String("addr", ":8090", "listen address")
		timeout     = flag.Duration("timeout", 30*time.Second, "per-shard call timeout (streams included)")
		hedgeAfter  = flag.Duration("hedge-after", 0, "fixed hedge delay for buffered shard calls (0 = adaptive p99, negative disables)")
		requireAll  = flag.Bool("require-all", false, "fail requests with 502 when any shard fails instead of answering partial:true")
		healthEvery = flag.Duration("health-every", 2*time.Second, "replica health-poll interval (negative disables)")
		traceFile   = flag.String("trace", "", "span export file (\"-\" = stderr), one {\"span\":...} NDJSON line per sampled span; enables tracing, so a request sent with a sampled traceparent is traced")
		traceSmp    = flag.Float64("trace-sample", 0, "span tracing: fraction of new root traces to sample (0 = only those a sampled traceparent asks for, 1 = all); spans land in the -trace file and in GET /debug/trace/{id}")
		pprofOn     = flag.String("pprof-addr", "", "serve net/http/pprof on this separate listen address (empty disables)")
	)
	shards := map[int][]string{}
	flag.Func("shard", "shard replicas as N=url1,url2 (repeatable; every shard in the manifest needs one)", func(v string) error {
		idx, urls, ok := strings.Cut(v, "=")
		if !ok {
			return fmt.Errorf("want N=url1,url2, got %q", v)
		}
		n, err := strconv.Atoi(idx)
		if err != nil {
			return fmt.Errorf("bad shard index %q: %v", idx, err)
		}
		for _, u := range strings.Split(urls, ",") {
			u = strings.TrimSuffix(strings.TrimSpace(u), "/")
			if u == "" {
				continue
			}
			shards[n] = append(shards[n], u)
		}
		return nil
	})
	flag.Parse()
	if *manifestDir == "" {
		flag.Usage()
		os.Exit(2)
	}

	m, err := shard.LoadManifest(*manifestDir)
	if err != nil {
		log.Fatal(err)
	}
	replicas := make([][]string, m.Shards)
	for s := range replicas {
		replicas[s] = shards[s]
		if len(replicas[s]) == 0 {
			log.Fatalf("manifest lists %d shards but -shard %d=... is missing", m.Shards, s)
		}
	}
	for s := range shards {
		if s < 0 || s >= m.Shards {
			log.Fatalf("-shard %d=... does not exist in the manifest (%d shards)", s, m.Shards)
		}
	}

	ropt := router.Options{
		Replicas:     replicas,
		ShardTimeout: *timeout,
		HedgeAfter:   *hedgeAfter,
		RequireAll:   *requireAll,
		HealthEvery:  *healthEvery,
	}
	var export io.Writer // nil keeps spans ring-only
	if *traceFile == "-" {
		export = os.Stderr
	} else if *traceFile != "" {
		tf, err := os.OpenFile(*traceFile, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatal(err)
		}
		defer tf.Close()
		export = tf
	}
	if export != nil || *traceSmp > 0 {
		ropt.Tracer = trace.New(trace.Config{Service: "pegrouter", Sample: *traceSmp, Export: export})
	}
	if *pprofOn != "" {
		go func() {
			log.Printf("pprof listening on %s", *pprofOn)
			log.Printf("pprof: %v", http.ListenAndServe(*pprofOn, server.PprofHandler()))
		}()
	}
	rt, err := router.New(m, ropt)
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Close()
	log.Printf("routing %d shards (%d refs, %d sets)", m.Shards, m.TotalRefs, m.TotalSets)

	hs := &http.Server{
		Addr:              *addr,
		Handler:           rt.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      *timeout + 30*time.Second,
		IdleTimeout:       120 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	log.Printf("serving on %s", *addr)

	select {
	case <-ctx.Done():
		log.Print("shutting down: draining in-flight requests")
		shCtx, cancel := context.WithTimeout(context.Background(), *timeout+35*time.Second)
		defer cancel()
		if err := hs.Shutdown(shCtx); err != nil {
			log.Printf("shutdown: %v", err)
		}
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(fmt.Errorf("serve: %w", err))
		}
	}
}
