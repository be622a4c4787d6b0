// Package harness runs the paper's experiments (Section 6) at configurable
// scale and prints paper-style tables. Every figure of the evaluation has a
// runner, and cmd/pegbench executes them all.
//
// Scale note: the paper ran on an 8-core/117 GB EC2 instance with graphs of
// 50k–1m references; the default configuration here scales the graphs down
// (hundreds to a few thousand references) so the full suite runs on a small
// container in minutes. Trends — who wins, how costs grow with L, β, size,
// density, uncertainty — are preserved; absolute numbers are not comparable.
package harness

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/entity"
	"repro/internal/gen"
	"repro/internal/pathindex"
)

// Config scales the experiment suite.
type Config struct {
	// Sizes are the reference counts standing in for the paper's
	// 50k/100k/500k/1m settings.
	Sizes []int
	// OfflineSizes are the (smaller) sizes used for the offline-phase grid,
	// which builds L ∈ {1,2,3} × β ∈ Betas indexes per size.
	OfflineSizes []int
	// MainSize is the size standing in for the paper's 100k default.
	MainSize int
	// Betas is the offline threshold grid.
	Betas []float64
	// Ls is the set of maximum path lengths.
	Ls []int
	// QueryTimeout caps each online query (the paper used 15 minutes).
	QueryTimeout time.Duration
	// SQLTimeout caps the SQL-baseline evaluation.
	SQLTimeout time.Duration
	// QueriesPerPoint averages each online measurement over this many
	// random queries (the paper uses 5).
	QueriesPerPoint int
	// Seed makes the suite deterministic.
	Seed int64
	// WorkDir holds index artifacts; empty = a temp dir.
	WorkDir string
}

// DefaultConfig returns the scaled-down default suite.
func DefaultConfig() Config {
	return Config{
		Sizes:           []int{500, 1000, 2000, 4000},
		OfflineSizes:    []int{500, 1000},
		MainSize:        1000,
		Betas:           []float64{0.9, 0.7, 0.5, 0.3},
		Ls:              []int{1, 2, 3},
		QueryTimeout:    time.Minute,
		SQLTimeout:      10 * time.Second,
		QueriesPerPoint: 3,
		Seed:            42,
	}
}

// Harness caches datasets and indexes across figure runs.
type Harness struct {
	cfg     Config
	dir     string
	ownDir  bool
	graphs  map[string]*entity.Graph
	indexes map[string]*pathindex.Index
}

// New creates a harness, materializing the working directory.
func New(cfg Config) (*Harness, error) {
	dir := cfg.WorkDir
	own := false
	if dir == "" {
		d, err := os.MkdirTemp("", "pegbench-*")
		if err != nil {
			return nil, err
		}
		dir = d
		own = true
	}
	return &Harness{
		cfg:     cfg,
		dir:     dir,
		ownDir:  own,
		graphs:  make(map[string]*entity.Graph),
		indexes: make(map[string]*pathindex.Index),
	}, nil
}

// Close releases cached indexes and the working directory.
func (h *Harness) Close() error {
	var first error
	for _, ix := range h.indexes {
		if err := ix.Close(); err != nil && first == nil {
			first = err
		}
	}
	if h.ownDir {
		if err := os.RemoveAll(h.dir); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Graph returns (building and caching) the synthetic PEG with the given
// reference count and uncertainty fraction.
func (h *Harness) Graph(refs int, uncertain float64) (*entity.Graph, error) {
	key := fmt.Sprintf("synth-%d-%.2f", refs, uncertain)
	if g, ok := h.graphs[key]; ok {
		return g, nil
	}
	// Groups scale with refs/100 (vs the paper's refs/1000) so the scaled-
	// down graphs still carry meaningful identity uncertainty.
	groups := refs / 100
	if groups < 2 {
		groups = 2
	}
	d, err := gen.Synthetic(gen.SynthOptions{
		Refs:          refs,
		UncertainFrac: uncertain,
		Groups:        groups,
		Seed:          h.cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	g, err := entity.Build(d, entity.BuildOptions{})
	if err != nil {
		return nil, err
	}
	h.graphs[key] = g
	return g, nil
}

// NamedGraph caches an externally built graph (DBLP/IMDB stand-ins).
func (h *Harness) NamedGraph(key string, build func() (*entity.Graph, error)) (*entity.Graph, error) {
	if g, ok := h.graphs[key]; ok {
		return g, nil
	}
	g, err := build()
	if err != nil {
		return nil, err
	}
	h.graphs[key] = g
	return g, nil
}

// Index returns (building and caching) the path index for the keyed graph.
func (h *Harness) Index(gkey string, g *entity.Graph, L int, beta float64) (*pathindex.Index, error) {
	key := fmt.Sprintf("%s-L%d-b%.2f", gkey, L, beta)
	if ix, ok := h.indexes[key]; ok {
		return ix, nil
	}
	ix, err := pathindex.Build(context.Background(), g, pathindex.Options{
		MaxLen: L,
		Beta:   beta,
		Gamma:  0.1,
		Dir:    filepath.Join(h.dir, key),
	})
	if err != nil {
		return nil, err
	}
	h.indexes[key] = ix
	return ix, nil
}

// BuildIndexUncached builds an index without caching (for offline-phase
// timing) and closes it before returning its stats.
func (h *Harness) BuildIndexUncached(g *entity.Graph, L int, beta float64, tag string) (pathindex.BuildStats, error) {
	dir := filepath.Join(h.dir, "uncached", tag)
	ix, err := pathindex.Build(context.Background(), g, pathindex.Options{
		MaxLen: L, Beta: beta, Gamma: 0.1, Dir: dir,
	})
	if err != nil {
		return pathindex.BuildStats{}, err
	}
	st := ix.Stats()
	ix.Close()
	os.RemoveAll(dir)
	return st, nil
}

// table prints an aligned table.
type table struct {
	w      io.Writer
	header []string
	rows   [][]string
}

func newTable(w io.Writer, header ...string) *table {
	return &table{w: w, header: header}
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) flush() {
	widths := make([]int, len(t.header))
	for i, hdr := range t.header {
		widths[i] = len(hdr)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				fmt.Fprint(t.w, "  ")
			}
			fmt.Fprintf(t.w, "%-*s", widths[i], c)
		}
		fmt.Fprintln(t.w)
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		for j := 0; j < widths[i]; j++ {
			sep[i] += "-"
		}
	}
	line(sep)
	for _, row := range t.rows {
		line(row)
	}
	fmt.Fprintln(t.w)
}

func fmtDur(d time.Duration) string {
	switch {
	case d < time.Millisecond:
		return fmt.Sprintf("%.0fµs", float64(d.Microseconds()))
	case d < time.Second:
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}

func fmtBytes(n int64) string {
	switch {
	case n < 1<<10:
		return fmt.Sprintf("%dB", n)
	case n < 1<<20:
		return fmt.Sprintf("%.1fKB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%.1fMB", float64(n)/(1<<20))
	}
}
