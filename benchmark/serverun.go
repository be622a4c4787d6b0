package main

import (
	"bytes"
	"context"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/join"
	"repro/internal/live"
	"repro/internal/server"
)

// serveRun is the state of one serve workload's measurement.
type serveRun struct {
	cfg     *runConfig
	sy      *system
	pool    *pool
	m       *measurement
	clients []*client
	bodies  readBodies
	full    map[int][]join.Match // in-process answers on the static index, by pool index
}

// expected returns the full sorted match set of pool query i on the index
// as it is now, computed in-process; cached for the static workload.
func (r *serveRun) expected(ctx context.Context, i int) ([]join.Match, error) {
	if ms, ok := r.full[i]; ok {
		return ms, nil
	}
	pq := r.pool.queries[i]
	res, err := core.Match(ctx, r.sy.reader(), pq.q, core.Options{Alpha: alpha})
	if err != nil {
		return nil, err
	}
	if r.sy.db == nil {
		r.full[i] = res.Matches
	}
	if !pq.known {
		// The first answer seen feeds driver.result_fingerprint: for the
		// live workload that is the answer on generation 1.
		pq.expect(res.Matches)
	}
	return res.Matches, nil
}

// check compares one kept HTTP answer with the in-process answer.
func (r *serveRun) check(ctx context.Context, o *outcome) error {
	want, err := r.expected(ctx, o.req.query)
	if err != nil {
		return err
	}
	if o.req.kind == kindStream {
		_, got, err := decodeStream(o.reply.body)
		if err != nil {
			return err
		}
		return checkFirst(got, want)
	}
	_, got, err := decodeMatches(o.reply.body)
	if err != nil {
		return err
	}
	return sameMatches(got, topByProb(want, matchLimit))
}

// checkAll asks every pool query once over HTTP while nothing is writing
// and compares with the in-process answer on the same view.
func (r *serveRun) checkAll(ctx context.Context, when string) {
	for i := range r.pool.queries {
		o := outcome{req: request{query: i, kind: kindMatch}}
		o.reply = r.bodies.do(r.clients[0], o.req)
		r.m.attempted++
		if o.failed() {
			r.m.fail("%s check: query %d: status %d err %v", when, i, o.reply.status, o.reply.err)
			continue
		}
		if err := r.check(ctx, &o); err != nil {
			r.m.fail("%s check: query %d: %v", when, i, err)
		}
	}
}

// livePoll is one 10 Hz sample of the live database.
type livePoll struct {
	at       time.Duration
	status   live.Status
	walBytes int64
}

func walBytes(dir string) int64 {
	var total int64
	logs, _ := filepath.Glob(filepath.Join(dir, "db", "wal-*.log"))
	for _, f := range logs {
		if fi, err := os.Stat(f); err == nil {
			total += fi.Size()
		}
	}
	return total
}

func measureServe(ctx context.Context, cfg *runConfig, sy *system, p *pool, m *measurement) error {
	s := cfg.spec
	r := &serveRun{cfg: cfg, sy: sy, pool: p, m: m, full: make(map[int][]join.Match)}
	for c := 0; c < s.conns(runtime.NumCPU()); c++ {
		r.clients = append(r.clients, newClient(sy.url))
	}
	defer func() {
		for _, cl := range r.clients {
			cl.close()
		}
	}()
	var err error
	if r.bodies, err = encodeBodies(p); err != nil {
		return err
	}
	read := func(conn int, rq request) reply { return r.bodies.do(r.clients[conn], rq) }

	// Warm-up, closed loop: every request due at once, so each connection
	// sends its next as soon as the previous answer is in.
	if s.mode == modeIngest {
		r.checkAll(ctx, "before-writes")
	} else {
		warm := readSchedule(s, s.poolSeed^0x5eed, cfg.seed, s.warmupReqs, len(p.queries))
		for i := range warm {
			warm[i].due = 0
		}
		for _, o := range openLoop(time.Now(), warm, len(r.clients), read, func(int) bool { return false }) {
			m.attempted++
			if o.failed() {
				m.fail("warm-up: status %d err %v", o.reply.status, o.reply.err)
			}
		}
	}

	// One schedule covers the window. In a traced run every other request
	// of it is traced (its answer kept and decoded afterwards), so that both
	// sides of the overhead ratio see the same drift, the same cache states
	// and the same phases of the compaction cycle: with alternate seconds
	// instead, the ratio read 1.2 or 0.8 depending on which parity held two
	// of the three compactions.
	sched := readSchedule(s, s.poolSeed, cfg.seed, int(s.rate*cfg.seconds), len(p.queries))
	tracedSlot := func(i int) bool { return cfg.trace && i%2 == 1 }
	keep := func(i int) bool { return tracedSlot(i) || i%sampleEvery == 0 }

	// The writer has its own connection and its own schedule; its CPU is
	// inside cpu_ms_per_query on purpose.
	var (
		writes   []outcome
		polls    []livePoll
		wg       sync.WaitGroup
		stopPoll = make(chan struct{})
		status0  live.Status
		wsched   []request
		wbodies  [][]byte
		wcl      = newClient(sy.url)
	)
	defer wcl.close()
	if s.mode == modeIngest {
		status0 = sy.db.Status()
		// The mutations are pinned like the corpus: which references a
		// batch touches decides how large the overlay grows (one hub going
		// dirty adds thousands of paths), and with seeded payloads the live
		// heap at window end moved 24 to 36 MiB between seeds.
		inWindow := int(s.writeRate * cfg.seconds)
		if wsched, wbodies, err = writeSchedule(s, s.poolSeed, inWindow+len(r.clients)+2, sy.refs); err != nil {
			return err
		}
		// The batches past the window are for settle.
		wsched = wsched[:inWindow]
	}
	stats0, err := r.clients[0].stats()
	if err != nil {
		return err
	}
	before := readUsage()
	start := before.wall
	if s.mode == modeIngest {
		wg.Add(1)
		go func() {
			defer wg.Done()
			writes = openLoop(start, wsched, 1, func(_ int, rq request) reply {
				return wcl.post("/ingest", wbodies[rq.query])
			}, func(int) bool { return false })
		}()
		if cfg.trace {
			wg.Add(1)
			go func() {
				defer wg.Done()
				tick := time.NewTicker(100 * time.Millisecond)
				defer tick.Stop()
				for {
					polls = append(polls, livePoll{time.Since(start), sy.db.Status(), walBytes(sy.dir)})
					select {
					case <-tick.C:
					case <-stopPoll:
						return
					}
				}
			}()
		}
	}
	out := openLoop(start, sched, len(r.clients), read, keep)
	end := readUsage()
	close(stopPoll)
	wg.Wait()
	m.win = between(before, end)
	stats1, err := r.clients[0].stats()
	if err != nil {
		return err
	}
	var status1 live.Status
	if s.mode == modeIngest {
		status1 = sy.db.Status() // what the window did, before it is tidied up
		if err := r.settle(ctx, wcl, wbodies[len(wsched):]); err != nil {
			return err
		}
	}
	m.sizeUp(sy)

	// Everything below is off the clock.
	limit := time.Duration(s.limitMs * float64(time.Millisecond))
	m.offered = len(sched)
	var traced []*outcome
	for i := range out {
		o := &out[i]
		m.attempted++
		if !o.issued {
			m.fail("request %d was never issued", i)
			continue
		}
		m.issued++
		m.completed++
		m.win.completed++
		if tracedSlot(i) {
			traced = append(traced, o)
		} else {
			m.latMs = append(m.latMs, float64(o.latency().Nanoseconds())/1e6)
			m.sendLagMs = append(m.sendLagMs, float64((o.sent-o.req.due).Nanoseconds())/1e6)
		}
		if o.failed() {
			m.fail("request %d: status %d err %v", i, o.reply.status, o.reply.err)
			continue
		}
		if o.reply.body != nil && i%sampleEvery == 0 {
			if err := r.sampleCheck(ctx, o); err != nil {
				m.fail("request %d (query %d): %v", i, o.req.query, err)
				continue
			}
		}
		if o.latency() <= limit {
			m.win.good++
		}
	}
	for i := range writes {
		m.attempted++
		if writes[i].failed() {
			m.fail("ingest batch %d: status %d err %v", i, writes[i].reply.status, writes[i].reply.err)
		}
	}
	if s.mode == modeIngest {
		r.checkAll(ctx, "after-writes")
	}
	m.notef("measure: %d reads offered at %.0f/s on %d connection(s), %d good within %.0f ms, window %.2fs",
		len(sched), s.rate, len(r.clients), m.win.good, s.limitMs, m.win.wallS)
	if !cfg.trace {
		return nil
	}
	return r.traced(ctx, out, traced, writes, polls, status0, status1, stats0, stats1)
}

// settle brings the live database and the server to the same state on
// every run before the heap and the index are measured. When background
// compactions start and end depends on timing, so the overlay left at window
// end differed between runs: everything is folded into a fresh generation
// first. And the server keeps the views it has swapped out in a list it
// prunes by re-slicing, so a view once stored in a slot past the list's
// current length stays reachable until that slot is written again, which
// takes as many views pinned at one publish as the slot's index: in three
// runs of ten a read that spanned two publishes during a compaction had
// left a full overlay (3 to 9 MiB) there. So one stream per read connection
// is held open in-process, each across one more batch, which makes the list
// as long as the window can have made it and fills every slot with a small
// post-compaction view. The live heap is therefore caches + base + overlays
// of a few batches; overlay growth shows in live.dirty_entities_max and in
// the read path's cost instead.
func (r *serveRun) settle(ctx context.Context, wcl *client, batches [][]byte) error {
	ingest := func() {
		r.m.attempted++
		if rp := wcl.post("/ingest", batches[0]); rp.err != nil || rp.status != http.StatusOK {
			r.m.fail("settling ingest batch: status %d err %v", rp.status, rp.err)
		}
		batches = batches[1:]
	}
	r.sy.quiesce()
	if err := r.sy.db.Compact(ctx); err != nil {
		return err
	}
	release := make(chan struct{})
	var wg sync.WaitGroup
	for range r.clients {
		w := &heldWriter{header: make(http.Header), reached: make(chan struct{}), release: release}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, "/match/stream", bytes.NewReader(r.bodies.stream[0]))
		if err != nil {
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.sy.srv.Handler().ServeHTTP(w, req)
			w.reach() // an answer without a body never wrote
		}()
		<-w.reached
		ingest()
	}
	ingest()
	close(release)
	wg.Wait()
	ingest() // with no read in flight: the list is pruned to one view
	r.sy.quiesce()
	return nil
}

// heldWriter is a response writer whose first write blocks until released:
// the handler behind it keeps its view of the index pinned meanwhile.
type heldWriter struct {
	header  http.Header
	once    sync.Once
	reached chan struct{}
	release <-chan struct{}
}

func (w *heldWriter) Header() http.Header { return w.header }
func (w *heldWriter) WriteHeader(int)     {}
func (w *heldWriter) reach()              { w.once.Do(func() { close(w.reached) }) }
func (w *heldWriter) Write(b []byte) (int, error) {
	w.reach()
	<-w.release
	return len(b), nil
}

// sampleCheck verifies a kept answer from inside a window. Against a
// static index that is a full comparison; against a live database the view
// the answer was computed on is gone, so only the answer's own consistency
// is checked here and checkAll compares answers before and after the
// writes.
func (r *serveRun) sampleCheck(ctx context.Context, o *outcome) error {
	if r.sy.db == nil {
		return r.check(ctx, o)
	}
	_, _, err := decodeMatches(o.reply.body)
	return err
}

// traced derives the per-layer metrics of a serve workload from the traced
// window: client-side spans, the stats block of each answer, /stats
// counter deltas, the writer's and the poller's records, and an in-process
// staged replay of a sample of the queries that were computed or late.
func (r *serveRun) traced(ctx context.Context, all []outcome, traced []*outcome, writes []outcome, polls []livePoll, status0, status1 live.Status, st0, st1 server.StatsResponse) error {
	s, m := r.cfg.spec, r.m
	L := make(map[string]float64)
	m.layer = L
	m.rec = newRecorder()
	limit := time.Duration(s.limitMs * float64(time.Millisecond))

	var lat2, roundtrip, reported, overhead, firstLine []float64
	var bytes, shed, costRejected int
	var replayQ []request
	late, computed := 0, 0
	for i, o := range traced {
		root := m.rec.add("query", i, -1, o.req.due, o.done)
		m.rec.add("driver.schedule_wait", i, root, o.req.due, o.sent)
		m.rec.add("server.roundtrip", i, root, o.sent, o.done)
		lat2 = append(lat2, float64(o.latency().Nanoseconds())/1e6)
		rt := float64((o.done - o.sent).Nanoseconds()) / 1e3
		roundtrip = append(roundtrip, rt)
		bytes += o.bytes
		switch o.reply.status {
		case http.StatusServiceUnavailable:
			shed++
		case http.StatusTooManyRequests:
			costRejected++
		}
		if o.failed() {
			continue // already counted by the caller
		}
		var stats *server.MatchStats
		cached := false
		if o.req.kind == kindStream {
			done, ms, err := decodeStream(o.reply.body)
			if err != nil {
				m.fail("traced request %d: %v", i, err)
				continue
			}
			stats = done.Stats
			m.matches += len(ms)
			firstLine = append(firstLine, float64(o.reply.firstLine.Nanoseconds())/1e3)
		} else {
			res, ms, err := decodeMatches(o.reply.body)
			if err != nil {
				m.fail("traced request %d: %v", i, err)
				continue
			}
			stats, cached = res.Stats, res.Cached
			m.matches += len(ms)
		}
		m.matchSamples++
		o.reply.body = nil
		if !cached && stats != nil {
			reported = append(reported, stats.TotalMicros)
			overhead = append(overhead, rt-stats.TotalMicros)
			if computed++; computed%sampleEvery == 0 {
				replayQ = append(replayQ, o.req)
			}
		}
		if o.latency() > limit {
			if late++; late%sampleEvery == 0 {
				replayQ = append(replayQ, o.req)
			}
		}
	}

	n := float64(len(traced))
	L["driver.trace_overhead_ratio"] = ratio(median(lat2), median(m.latMs))
	L["server.start_s"] = r.sy.startS
	L["server.roundtrip_p50_us"] = median(roundtrip)
	L["server.reported_total_p50_us"] = median(reported)
	L["server.overhead_p50_us"] = median(overhead)
	L["server.stream_first_line_p50_us"] = median(firstLine)
	L["server.response_kb_per_query"] = ratio(float64(bytes)/1024, n)
	L["server.shed_share"] = ratio(float64(shed), n)
	L["server.cost_rejected_share"] = ratio(float64(costRejected), n)
	d := func(a, b uint64) float64 { return float64(b - a) }
	L["server.result_cache_hit_ratio"] = ratio(d(st0.CacheHits, st1.CacheHits), d(st0.CacheHits, st1.CacheHits)+d(st0.CacheMisses, st1.CacheMisses))
	L["server.plan_cache_hit_ratio"] = ratio(d(st0.PlanCacheHits, st1.PlanCacheHits), d(st0.PlanCacheHits, st1.PlanCacheHits)+d(st0.PlanCacheMisses, st1.PlanCacheMisses))
	candHits, candMisses, candBypass := d(st0.CandCacheHits, st1.CandCacheHits), d(st0.CandCacheMisses, st1.CandCacheMisses), d(st0.CandCacheBypassed, st1.CandCacheBypassed)
	L["server.cand_cache_hit_ratio"] = ratio(candHits, candHits+candMisses)
	L["server.cand_cache_bypass_share"] = ratio(candBypass, candHits+candMisses+candBypass)
	L["candidates.cache_hit_ratio"] = L["server.cand_cache_hit_ratio"]

	// Attribution: replay a sample of the computed and the late queries
	// in-process through the staged path, on one worker like the server.
	if len(replayQ) > 64 {
		replayQ = replayQ[:64]
	}
	var obs []stageObs
	for k, rq := range replayQ {
		lim := 0
		if rq.kind == kindStream {
			lim = 1
		}
		_, o, err := replay(ctx, m.rec, len(traced)+k, r.sy.reader(), r.pool.queries[rq.query].q, lim, 1)
		if err != nil {
			return err
		}
		obs = append(obs, o)
	}
	for name, v := range ledger(obs, 0) {
		if _, set := L[name]; !set {
			L[name] = v
		}
	}
	L["core.facade_residual_us"] = 0
	m.notef("traced: %d reads, %d computed, %d late, %d replayed in-process", len(traced), computed, late, len(obs))

	if s.mode != modeIngest {
		return nil
	}
	var acks []float64
	applied := 0
	last := time.Duration(0)
	for i := range writes {
		if !writes[i].failed() {
			acks = append(acks, float64(writes[i].latency().Nanoseconds())/1e6)
			applied += ingestBatch
			last = max(last, writes[i].done)
		}
	}
	L["live.create_s"] = r.sy.createS
	L["live.ingest_ack_p50_ms"] = median(acks)
	L["live.ingest_ack_p99_ms"], _ = tail(acks, 0.99)
	L["live.mutations_per_s"] = ratio(float64(applied), last.Seconds())
	L["live.compactions"] = float64(status1.Compactions - status0.Compactions)
	L["live.compaction_s_total"] = float64(status1.TotalCompactionNanos-status0.TotalCompactionNanos) / 1e9
	L["live.generation_swaps"] = float64(status1.Generation - status0.Generation)
	var walTotal, walPrev int64
	var compacting []time.Duration
	for _, p := range polls {
		L["live.dirty_entities_max"] = max(L["live.dirty_entities_max"], float64(p.status.DirtyEntities))
		// The log is rotated at every compaction; growth between polls is
		// what was appended, a drop is a rotation to a fresh log.
		if p.walBytes >= walPrev {
			walTotal += p.walBytes - walPrev
		} else {
			walTotal += p.walBytes
		}
		walPrev = p.walBytes
		if p.status.Compacting {
			compacting = append(compacting, p.at)
		}
	}
	L["live.wal_bytes_per_mutation"] = ratio(float64(walTotal), float64(applied))
	// Reads whose send-to-done interval holds a poll that saw a compaction
	// running, against the rest.
	var during, outside []float64
	for i := range all {
		o := &all[i]
		if o.failed() {
			continue
		}
		hit := false
		for _, at := range compacting {
			if at >= o.sent-100*time.Millisecond && at <= o.done {
				hit = true
				break
			}
		}
		ms := float64((o.done - o.sent).Nanoseconds()) / 1e6
		if hit {
			during = append(during, ms)
		} else {
			outside = append(outside, ms)
		}
	}
	L["live.read_slowdown_compacting"] = ratio(median(during), median(outside))
	m.notef("live: %d reads overlapped a compaction, %d did not", len(during), len(outside))
	return nil
}
