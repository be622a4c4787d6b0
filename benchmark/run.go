package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/entity"
	"repro/internal/pathindex"
)

// runConfig is one invocation: one workload, run once.
type runConfig struct {
	spec    *spec
	seed    int64
	seconds float64
	trace   bool
	setups  int    // how often set-up is repeated for its median, at least
	outDir  string // trace files and the run log
	workDir string // index directories, removed when the run ends
}

// record is one run as it is appended to <out>/runs.ndjson: what -compare
// reads.
type record struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Trace     bool    `json:"trace"`
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	// PoolFingerprint identifies the measured queries; runs with different
	// fingerprints are not comparable.
	PoolFingerprint float64           `json:"pool_fingerprint"`
	Metrics         map[string]metric `json:"metrics"`
	Env             envInfo           `json:"env"`
	Notes           []string          `json:"notes,omitempty"`
}

// setupTimes collects the repeated set-ups of one run.
type setupTimes struct{ total, entity, index, start, create []float64 }

// A measured run sets up at least setupRepeats times and keeps going, up to
// setupMax times, until setupBudget is spent: the small corpora set up in a
// tenth of a second, and the median of five such timings still spread 30 %.
// A smoke run sets up twice.
const (
	setupRepeats = 5
	setupMax     = 15
	setupBudget  = 2 * time.Second
)

// run executes one workload once: set-up (cfg.setups times, into fresh
// directories; the first is kept), correctness gate, pool, warm-up and the
// measured window(s).
func run(ctx context.Context, cfg *runConfig) (*record, error) {
	s := cfg.spec
	env := captureEnv()
	m := &measurement{}
	phase := time.Now()
	lap := func() float64 {
		d := time.Since(phase).Seconds()
		phase = time.Now()
		return d
	}

	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	workDir, err := os.MkdirTemp(cfg.workDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(workDir)

	d, err := s.corpus()
	if err != nil {
		return nil, err
	}
	var sy *system
	var st setupTimes
	setupStart := time.Now()
	more := func(i int) bool {
		return i < max(cfg.setups, 1) || (cfg.setups >= setupRepeats && i < setupMax && time.Since(setupStart) < setupBudget)
	}
	for i := 0; more(i); i++ {
		one, err := setUp(ctx, s, d, filepath.Join(workDir, fmt.Sprintf("setup%d", i)))
		if err != nil {
			if sy != nil {
				sy.close()
			}
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		st.total = append(st.total, one.totalS)
		st.entity = append(st.entity, one.entityS)
		st.index = append(st.index, one.indexS)
		st.start = append(st.start, one.startS)
		st.create = append(st.create, one.createS)
		if sy == nil {
			sy = one
		} else if err := one.close(); err != nil {
			sy.close()
			return nil, err
		}
	}
	defer sy.close()
	sy.startS, sy.createS = median(st.start), median(st.create)
	tSetup := lap()

	checked, gateErr := runGate(ctx, s, workDir)
	m.attempted += checked
	if gateErr != nil {
		m.attempted++
		m.fail("%v", gateErr)
	} else {
		m.notef("gate: %d queries over %d shapes bitwise equal to internal/naive on %d refs", checked, len(s.shapes()), gateRefs)
	}
	tGate := lap()

	p, err := buildPool(ctx, s, sy.reader())
	if err != nil {
		return nil, err
	}
	m.notef("pool: %d queries admitted from %d candidates, fingerprint %.0f", len(p.queries), p.trials, p.fingerprint())
	tPool := lap()

	if gateErr == nil {
		if s.serve() {
			err = measureServe(ctx, cfg, sy, p, m)
		} else {
			err = measureLib(ctx, cfg, sy, p, m)
		}
		if err != nil {
			return nil, err
		}
	}
	m.notef("wall: set-up %.1fs, gate %.1fs, pool %.1fs, warm-up and measure %.1fs", tSetup, tGate, tPool, lap())

	w := m.win
	values := map[string]float64{
		"setup_s":            median(st.total),
		"query_p50_ms":       median(m.latMs),
		"throughput_qps":     ratio(float64(w.good), w.wallS),
		"cpu_ms_per_query":   ratio(w.cpuS*1e3, float64(w.completed)),
		"alloc_kb_per_query": ratio(float64(w.allocBytes)/1024, float64(w.completed)),
		"live_heap_mb":       m.liveHeapMiB,
		"index_mb":           m.indexMiB,
	}
	rec := &record{
		Workload: s.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Attempted: max(m.attempted, 1), Failed: m.failed, Correct: m.failed == 0,
		PoolFingerprint: p.fingerprint(),
	}
	if cfg.trace && m.layer != nil {
		driverLayer(m, p, runtime.NumCPU())
		staticLayer(m.layer, sy, st)
		if m.rec != nil {
			path, err := m.rec.write(cfg.outDir, s.name)
			if err != nil {
				return nil, err
			}
			m.notef("trace: %d spans in %s", m.rec.len(), path)
		}
		rec.Metrics = named(perLayer, m.layer)
		for name, v := range named(endToEnd, values) {
			rec.Metrics[name] = v
		}
	} else {
		rec.Metrics = named(endToEnd, values)
	}
	env.finish()
	rec.Env, rec.Notes = env, m.notes
	return rec, nil
}

// driverLayer fills the driver.* metrics: how well the instrument itself
// behaved during the untraced window.
func driverLayer(m *measurement, p *pool, nproc int) {
	L := m.layer
	var reported float64
	L["driver.query_p95_ms"], reported = tail(m.latMs, 0.95)
	m.notef("driver.query_p95_ms is p%.1f of %d samples", reported*100, len(m.latMs))
	L["driver.query_p99_ms"], reported = tail(m.latMs, 0.99)
	m.notef("driver.query_p99_ms is p%.1f of %d samples", reported*100, len(m.latMs))
	L["driver.send_lag_p50_ms"] = median(m.sendLagMs)
	L["driver.send_lag_p99_ms"], _ = tail(m.sendLagMs, 0.99)
	L["driver.issued_over_offered"] = ratio(float64(m.issued), float64(m.offered))
	t := m.win
	L["driver.slo_miss_share"] = ratio(float64(t.completed-t.good), float64(t.completed))
	L["driver.error_share"] = ratio(float64(m.failed), float64(m.attempted))
	L["driver.cpu_utilisation"] = ratio(t.cpuS, t.wallS*float64(nproc))
	L["driver.peak_rss_mb"] = peakRSSMiB()
	L["driver.gc_cpu_share"] = ratio(t.gcS, t.cpuS)
	L["driver.matches_per_query"] = ratio(float64(m.matches), float64(m.matchSamples))
	L["driver.pool_fingerprint"] = p.fingerprint()
	f := newFingerprint()
	for _, pq := range p.queries {
		if pq.known {
			f.u64(uint64(pq.count))
			f.u64(pq.hash)
		}
	}
	L["driver.result_fingerprint"] = f.value()
}

// staticLayer fills the entity.* and pathindex.* set-up metrics.
func staticLayer(L map[string]float64, sy *system, st setupTimes) {
	ix := sy.reader()
	g := ix.Graph()
	L["entity.build_s"] = median(st.entity)
	L["entity.entities"] = float64(g.NumNodes())
	L["entity.components"] = float64(g.NumComponents())
	L["pathindex.build_s"] = median(st.index)
	stats := ix.Stats()
	L["pathindex.entries"] = float64(stats.Entries)
	L["pathindex.bytes_per_entry"] = ratio(sy.indexMiB()*(1<<20), float64(stats.Entries))
	if sy.db != nil {
		// live.Create builds both inside one call; time the entity graph
		// on its own once, for the ledger.
		t0 := time.Now()
		if _, err := entity.Build(sy.db.PGDSnapshot(), entity.BuildOptions{}); err == nil {
			L["entity.build_s"] = time.Since(t0).Seconds()
		}
		return
	}
	// Cold open: open the built directory, probe one label, close.
	dir := filepath.Join(sy.dir, "ix")
	var opens []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		cold, err := pathindex.Open(dir, sy.ix.Graph())
		if err != nil {
			return
		}
		seqs := cold.Sequences()
		if len(seqs) > 0 {
			_, _ = cold.Lookup(seqs[0], alpha)
		}
		cold.Close()
		opens = append(opens, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	L["pathindex.open_us"] = median(opens)
}

// emit prints the run for people (every metric by name with its unit, the
// environment, notes) and, as the last line of standard output, the one
// JSON object the driver reads.
func emit(w io.Writer, rec *record, outDir string) error {
	names := make([]string, 0, len(rec.Metrics))
	for name := range rec.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "workload %s seed %d seconds %g trace %v\n", rec.Workload, rec.Seed, rec.Seconds, rec.Trace)
	for _, name := range names {
		fmt.Fprintf(w, "  %-36s %16.6g %s\n", name, rec.Metrics[name].Value, rec.Metrics[name].Unit)
	}
	fmt.Fprintf(w, "  attempted %d failed %d correct %v\n", rec.Attempted, rec.Failed, rec.Correct)
	e := rec.Env
	fmt.Fprintf(w, "  env: commit %s %s nproc %d GOMAXPROCS %d cpu %q load1 %.2f -> %.2f\n",
		e.Commit, e.GoVersion, e.NProc, e.GoMaxProcs, e.CPUModel, e.Load1Start, e.Load1End)
	for _, warn := range e.Warnings {
		fmt.Fprintf(w, "  WARNING: %s\n", warn)
	}
	for _, note := range rec.Notes {
		fmt.Fprintf(w, "  note: %s\n", note)
	}

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(outDir, "runs.ndjson"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}

	// The driver's contract: exactly these four keys; the end-to-end
	// metrics untraced, the per-layer metrics traced.
	defs := endToEnd
	if rec.Trace {
		defs = perLayer
	}
	final := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, make(map[string]metric, len(defs))}
	for _, d := range defs {
		final.Metrics[d.Name] = rec.Metrics[d.Name]
	}
	last, err := json.Marshal(final)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", last)
	return err
}
