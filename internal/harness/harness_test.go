package harness

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"time"
)

// tinyConfig keeps harness tests fast.
func tinyConfig() Config {
	return Config{
		Sizes:           []int{60, 120},
		OfflineSizes:    []int{60},
		MainSize:        120,
		Betas:           []float64{0.7, 0.3},
		Ls:              []int{1, 2},
		QueryTimeout:    20 * time.Second,
		SQLTimeout:      5 * time.Second,
		QueriesPerPoint: 1,
		Seed:            7,
	}
}

func newTestHarness(t *testing.T) *Harness {
	t.Helper()
	cfg := tinyConfig()
	cfg.WorkDir = t.TempDir()
	h, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.Close() })
	return h
}

func TestGraphCaching(t *testing.T) {
	h := newTestHarness(t)
	g1, err := h.Graph(60, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := h.Graph(60, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if g1 != g2 {
		t.Error("graph not cached")
	}
	g3, err := h.Graph(60, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if g1 == g3 {
		t.Error("distinct uncertainty shares a cache slot")
	}
}

func TestIndexCaching(t *testing.T) {
	h := newTestHarness(t)
	g, err := h.Graph(60, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	i1, err := h.Index("k", g, 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	i2, err := h.Index("k", g, 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if i1 != i2 {
		t.Error("index not cached")
	}
}

func TestRunFig6ab(t *testing.T) {
	h := newTestHarness(t)
	var buf bytes.Buffer
	if err := h.RunFig6ab(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Figure 6(a)") || !strings.Contains(out, "build-time") {
		t.Errorf("unexpected output:\n%s", out)
	}
	// 1 size × 2 betas × 2 Ls = 4 data rows.
	if got := strings.Count(out, "\n"); got < 7 {
		t.Errorf("too few lines: %d\n%s", got, out)
	}
}

func TestRunFig7e(t *testing.T) {
	h := newTestHarness(t)
	var buf bytes.Buffer
	if err := h.RunFig7e(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Path+Context") {
		t.Errorf("output:\n%s", buf.String())
	}
}

func TestRunFig7f(t *testing.T) {
	h := newTestHarness(t)
	var buf bytes.Buffer
	if err := h.RunFig7f(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "ST,L=1") || !strings.Contains(buf.String(), "UP,L=2") {
		t.Errorf("output:\n%s", buf.String())
	}
}

func TestRunSQL(t *testing.T) {
	h := newTestHarness(t)
	var buf bytes.Buffer
	if err := h.RunSQL(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "sqlbase") || !strings.Contains(out, "peg (optimized") {
		t.Errorf("output:\n%s", out)
	}
}

func TestRunPatterns(t *testing.T) {
	h := newTestHarness(t)
	var buf bytes.Buffer
	if err := h.RunFig7g(&buf); err != nil {
		t.Fatal(err)
	}
	if err := h.RunFig7h(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, pat := range []string{"BF1", "BF2", "GR", "ST", "TR"} {
		if !strings.Contains(out, pat) {
			t.Errorf("pattern %s missing from output", pat)
		}
	}
}

func TestFiguresComplete(t *testing.T) {
	var names []string
	for _, f := range Figures {
		names = append(names, f.Name)
	}
	want := []string{"fig6ab", "fig6c", "fig6d", "fig6ef", "fig7ab", "fig7cd", "fig7e", "fig7f", "fig7g", "fig7h", "sql"}
	if !slices.Equal(names, want) {
		t.Errorf("figures %v, want %v in paper order", names, want)
	}
}
