package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/entity"
	"repro/internal/gen"
	"repro/internal/live"
	"repro/internal/pathindex"
	"repro/internal/refgraph"
	"repro/internal/server"
)

// Every workload queries at the same threshold and over the same index
// parameters, so a number moves because the code moved, not a setting.
const (
	alpha     = 0.3
	numLabels = 6 // gen.SynthOptions' default alphabet l0..l5
)

var indexOptions = pathindex.Options{MaxLen: 2, Beta: 0.5, Gamma: 0.1}

type mode int

const (
	modeCollect mode = iota // library, closed loop, core.Match
	modeFirst               // library, closed loop, first streamed match
	modeZipf                // HTTP, open loop, Zipf-skewed reads
	modeIngest              // HTTP, open loop, reads beside writes
)

// spec is one workload's recipe. The corpus, the query pool, the reads an
// open loop issues and the write traffic are pinned by the recipe
// (corpusSeed, poolSeed), not by the run's -seed: the seed orders the queries
// of a closed loop's passes and the reads of an open loop. A seed-dependent corpus moved index_mb and setup_s by more
// than their bounds between seeds, and a seed-dependent pool moved the
// per-query means the same way, which would make every later comparison
// "unresolved".
type spec struct {
	name string
	why  string
	mode mode

	refs       int
	corpusSeed int64
	poolSeed   int64
	poolSize   int

	// Pool admission, exact integers only (never timings), so that two
	// commits returning the same answers draw the same pool.
	minMatches int // modeCollect, modeIngest: matches at alpha, inclusive band
	maxMatches int
	minInitial int // modeFirst: initial candidates summed over paths, at least
	maxInitial int // modeIngest: at most (a read must stay far inside the limit)

	// Open loop (serve workloads). Rates are constants chosen once so that
	// the process uses about half of the machine; they are never adapted at
	// run time, or a slower commit would be offered less load.
	rate       float64 // read requests per second
	limitMs    float64 // latency limit a response must meet to count as good
	writeRate  float64 // ingest batches per second (modeIngest)
	warmupReqs int     // closed-loop requests that fill the caches first
}

func (s *spec) serve() bool { return s.mode == modeZipf || s.mode == modeIngest }

// conns is the number of read connections: all cores for a read-only
// server, one fewer when a writer connection runs beside them, so the
// client never has more connections in flight than the machine has cores.
func (s *spec) conns(nproc int) int {
	if s.mode == modeIngest {
		return max(1, nproc-1)
	}
	return max(1, nproc)
}

// ingestBatch is the number of mutations per /ingest request (what
// mutator.batch returns). At 10 batches/s the default 512-mutation compaction
// threshold is reached every 6.4 s, so a 20 s window holds three compactions.
const ingestBatch = 8

var specs = []*spec{
	{
		name: "lib-tree-collect",
		why:  "acyclic 5-node queries with 25k-60k matches, core.Match collect+sort: join enumeration dominates, candidates do little",
		mode: modeCollect, refs: 4000, corpusSeed: 1, poolSeed: 101, poolSize: 25,
		minMatches: 25000, maxMatches: 60000,
	},
	{
		name: "lib-cyclic-first",
		why:  "cyclic/dense 5-6 node queries, MatchStream Limit 1: all cost is posting decode, context prune and k-partite build, join is idle",
		mode: modeFirst, refs: 8000, corpusSeed: 1, poolSeed: 202, poolSize: 49,
		minInitial: 1000,
	},
	{
		name: "serve-zipf",
		why:  "HTTP open loop at 600 req/s, 4096 texts drawn Zipf(1.1), 80% /match 20% /match/stream: median is a cache hit, misses pay the CPU",
		mode: modeZipf, refs: 2000, corpusSeed: 2, poolSeed: 303, poolSize: 4096,
		rate: 600, limitMs: 50, warmupReqs: 3000,
	},
	{
		name: "serve-ingest",
		why:  "HTTP open loop reads at 100 req/s beside 10 /ingest batches/s of 8 mutations on a live DB: overlay reads, WAL, compaction, cache swaps",
		mode: modeIngest, refs: 2000, corpusSeed: 3, poolSeed: 404, poolSize: 64,
		minMatches: 1, maxMatches: 2000, maxInitial: 2000,
		rate: 100, limitMs: 100, writeRate: 10,
	},
}

func specByName(name string) *spec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	return nil
}

// smoke shrinks a workload to a corpus of refs references so that CI can
// run all four in seconds; admission bands shrink with the corpus.
func (s *spec) smoke(refs int) *spec {
	c := *s
	scale := float64(refs) / float64(s.refs)
	c.refs = refs
	c.poolSize = max(5, min(s.poolSize, 33)) | 1
	c.minMatches = int(float64(s.minMatches) * scale * scale)
	c.maxMatches = max(20*c.minMatches, 1000)
	c.minInitial = int(float64(s.minInitial) * scale)
	c.maxInitial = 0
	c.rate = min(s.rate, 100)
	c.warmupReqs = min(s.warmupReqs, 100)
	return &c
}

func (s *spec) corpus() (*refgraph.PGD, error) {
	return gen.Synthetic(gen.SynthOptions{Refs: s.refs, Seed: s.corpusSeed})
}

// system is one set-up instance of a workload: the index made queryable
// and, for serve workloads, a server listening on loopback.
type system struct {
	spec *spec
	dir  string
	refs int // references in the corpus the system was built from

	ix  *pathindex.Index // static workloads
	db  *live.DB         // modeIngest
	srv *server.Server
	hs  *http.Server
	url string

	// Set-up timings in seconds; totalS is setup_s for this instance.
	entityS, indexS, createS, startS, totalS float64
}

// reader is what queries run against: the static index, or the live
// database's current view.
func (sy *system) reader() pathindex.Reader {
	if sy.db != nil {
		return sy.db.View()
	}
	return sy.ix
}

// setUp takes the PGD in memory to a queryable system under dir, timing
// what a user waits for: entity graph, index build, reopen, and for serve
// workloads the listener answering. Nothing is tuned: zero-value Workers,
// zero-value server.Options, default compaction thresholds.
func setUp(ctx context.Context, s *spec, d *refgraph.PGD, dir string) (sy *system, err error) {
	sy = &system{spec: s, dir: dir, refs: d.NumRefs()}
	defer func() {
		if err != nil {
			sy.close()
		}
	}()
	start := time.Now()
	if s.mode == modeIngest {
		sy.db, err = live.Create(ctx, filepath.Join(dir, "db"), d, live.Options{Index: indexOptions})
		if err != nil {
			return sy, err
		}
		sy.createS = time.Since(start).Seconds()
	} else {
		g, err := entity.Build(d, entity.BuildOptions{})
		if err != nil {
			return sy, err
		}
		sy.entityS = time.Since(start).Seconds()
		t0 := time.Now()
		opt := indexOptions
		opt.Dir = filepath.Join(dir, "ix")
		built, err := pathindex.Build(ctx, g, opt)
		if err != nil {
			return sy, err
		}
		if err := built.Close(); err != nil {
			return sy, err
		}
		if sy.ix, err = pathindex.Open(opt.Dir, g); err != nil {
			return sy, err
		}
		sy.indexS = time.Since(t0).Seconds()
	}
	if s.serve() {
		t0 := time.Now()
		if err := sy.listen(); err != nil {
			return sy, err
		}
		sy.startS = time.Since(t0).Seconds()
	}
	sy.totalS = time.Since(start).Seconds()
	return sy, nil
}

// listen starts the server on a loopback port and returns once /healthz
// answers ready.
func (sy *system) listen() error {
	sy.srv = server.New(sy.reader(), server.Options{})
	if sy.db != nil {
		sy.srv.SetLive(sy.db)
		sy.db.SetPublisher(sy.srv)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	sy.hs = &http.Server{Handler: sy.srv.Handler()}
	sy.url = "http://" + ln.Addr().String()
	go func() {
		// Serve returns ErrServerClosed after Shutdown; any other error
		// shows up as failed requests in the run.
		_ = sy.hs.Serve(ln)
	}()
	resp, err := http.Get(sy.url + "/healthz")
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz answered %d", resp.StatusCode)
	}
	return nil
}

// quiesce waits for a background compaction of the live database to finish
// and clean up (its last act is removing the generation it replaced). Until
// then the heap and the directory are in flux, and reading db.View() from
// this process is not safe: the compactor closes the old base index as soon
// as the server's own requests have let go of it, and it does not know
// about ours.
func (sy *system) quiesce() {
	if sy.db == nil {
		return
	}
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); {
		gens, _ := filepath.Glob(filepath.Join(sy.dir, "db", "gen-*"))
		if !sy.db.Status().Compacting && len(gens) == 1 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// indexMiB is the size on disk of the index generation served right now
// (for a live database: the current generation's directory, snapshot
// included, without the log or a half-built successor).
func (sy *system) indexMiB() float64 {
	if sy.db != nil {
		gen := sy.db.Status().Generation
		return dirMiB(filepath.Join(sy.dir, "db", fmt.Sprintf("gen-%06d", gen)))
	}
	return dirMiB(filepath.Join(sy.dir, "ix"))
}

// close stops the listener (waiting for in-flight requests), closes the
// database and index, and removes the system's directory.
func (sy *system) close() error {
	var errs []error
	if sy.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, sy.hs.Shutdown(ctx))
		cancel()
	}
	if sy.db != nil {
		errs = append(errs, sy.db.Close())
	}
	if sy.ix != nil {
		errs = append(errs, sy.ix.Close())
	}
	errs = append(errs, os.RemoveAll(sy.dir))
	return errors.Join(errs...)
}
