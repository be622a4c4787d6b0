package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The four workloads, end to end, on a corpus small enough for CI: set-up,
// gate, pool, warm-up, interleaved untraced and traced passes, ledger,
// trace file, output contract.
func TestSmokeAllWorkloads(t *testing.T) {
	dir := t.TempDir()
	for _, s := range specs {
		cfg := &runConfig{spec: s.smoke(300), seed: 5, seconds: 0.5, trace: true, setups: 2, outDir: filepath.Join(dir, "out"), workDir: filepath.Join(dir, "work")}
		rec, err := run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if !rec.Correct || rec.Failed != 0 || rec.Attempted < 10 {
			t.Fatalf("%s: correct=%v failed=%d attempted=%d\n%s", s.name, rec.Correct, rec.Failed, rec.Attempted, strings.Join(rec.Notes, "\n"))
		}
		for _, d := range endToEnd {
			if rec.Metrics[d.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v, it must never be 0", s.name, d.Name, rec.Metrics[d.Name].Value)
			}
		}
		if got := rec.Metrics["driver.issued_over_offered"].Value; got != 1 {
			t.Errorf("%s: issued/offered = %v", s.name, got)
		}
		if s.serve() && rec.Metrics["server.roundtrip_p50_us"].Value <= 0 {
			t.Errorf("%s: no round trips were traced", s.name)
		}
		if s.mode == modeIngest && rec.Metrics["live.mutations_per_s"].Value <= 0 {
			t.Errorf("%s: no mutations were applied", s.name)
		}
		if !s.serve() && rec.Metrics["join.enumerate_us"].Value <= 0 {
			t.Errorf("%s: the replay recorded no join", s.name)
		}

		var out bytes.Buffer
		if err := emit(&out, rec, cfg.outDir); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var last map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatalf("%s: last line is not JSON: %v", s.name, err)
		}
		if len(last) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
			t.Errorf("%s: last line has keys %v", s.name, last)
		}
		var metrics map[string]metric
		if err := json.Unmarshal(last["metrics"], &metrics); err != nil || len(metrics) != len(perLayer) {
			t.Errorf("%s: traced run reports %d metrics, want the %d per-layer ones (%v)", s.name, len(metrics), len(perLayer), err)
		}
		if _, err := os.Stat(filepath.Join(cfg.outDir, "trace-"+s.name+".json")); err != nil {
			t.Errorf("%s: %v", s.name, err)
		}
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "work", "*")); len(left) != 0 {
		t.Errorf("runs left %v behind in the work directory", left)
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, recs ...record) string {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		enc := json.NewEncoder(f)
		for _, r := range recs {
			if err := enc.Encode(r); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	run := func(p50, fp float64, failed int) record {
		values := map[string]float64{"setup_s": 1, "query_p50_ms": p50, "throughput_qps": 100, "cpu_ms_per_query": 2, "alloc_kb_per_query": 3, "live_heap_mb": 4, "index_mb": 5}
		return record{Workload: "lib-tree-collect", Correct: failed == 0, Attempted: 100, Failed: failed, PoolFingerprint: fp,
			Metrics: named(endToEnd, values), Env: envInfo{NProc: 2, GoMaxProcs: 2}}
	}
	verdicts := func(parent, change string) (bool, string) {
		var out bytes.Buffer
		ok, err := compareFiles(&out, parent, change)
		if err != nil {
			t.Fatal(err)
		}
		return ok, out.String()
	}

	var bound float64
	for _, d := range endToEnd {
		if d.Name == "query_p50_ms" {
			bound = d.Bound
		}
	}
	base := write("base", run(10, 1, 0))
	if ok, out := verdicts(base, write("same", run(10*(1+bound/2), 1, 0))); !ok || strings.Contains(out, "regressed") {
		t.Errorf("half the bound must be unchanged:\n%s", out)
	}
	if ok, out := verdicts(base, write("slow", run(10*(1+2*bound), 1, 0))); ok || !strings.Contains(out, "regressed") {
		t.Errorf("twice the bound slower must regress:\n%s", out)
	}
	if _, out := verdicts(base, write("fast", run(10*(1-2*bound), 1, 0))); !strings.Contains(out, "improved") {
		t.Errorf("twice the bound faster must read improved:\n%s", out)
	}
	if ok, out := verdicts(base, write("fails", run(10, 1, 3))); ok || !strings.Contains(out, "failed/attempted") {
		t.Errorf("more failures must regress:\n%s", out)
	}
	noisy := write("noisy", run(4, 1, 0), run(10, 1, 0), run(16, 1, 0), run(22, 1, 0), run(7, 1, 0))
	if _, out := verdicts(base, noisy); !strings.Contains(out, "unresolved") {
		t.Errorf("a spread wider than the bound must read unresolved:\n%s", out)
	}
	var out bytes.Buffer
	if _, err := compareFiles(&out, base, write("otherpool", run(10, 2, 0))); err == nil {
		t.Error("runs over different pools were compared")
	}
}
