// Command pegbench reproduces the paper's evaluation (Section 6) at
// configurable scale, printing one paper-style table per figure.
//
// Usage:
//
//	pegbench                     # full suite at default (scaled-down) size
//	pegbench -only fig7e,fig7f   # selected figures
//	pegbench -main 2000 -sizes 500,1000,2000,4000
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/harness"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "pegbench:", err)
		os.Exit(1)
	}
}

// run prints the selected figures to stdout. Every argument is checked
// before the harness creates its work directory, and the directory (which
// holds every index the run builds) is removed before run returns, on the
// error paths too.
func run(args []string, stdout io.Writer) (err error) {
	cfg := harness.DefaultConfig()
	fs := flag.NewFlagSet("pegbench", flag.ContinueOnError)
	var (
		only    = fs.String("only", "", "comma-separated figure list (default: all)")
		sizes   = fs.String("sizes", "", "comma-separated graph sizes (refs)")
		offline = fs.String("offline-sizes", "", "comma-separated offline grid sizes")
		mainSz  = fs.Int("main", cfg.MainSize, "main graph size (the paper's 100k analog)")
		qpp     = fs.Int("queries", cfg.QueriesPerPoint, "random queries averaged per point")
		timeout = fs.Duration("timeout", cfg.QueryTimeout, "per-query timeout")
		seed    = fs.Int64("seed", cfg.Seed, "random seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *sizes != "" {
		if cfg.Sizes, err = parseInts(*sizes); err != nil {
			return err
		}
	}
	if *offline != "" {
		if cfg.OfflineSizes, err = parseInts(*offline); err != nil {
			return err
		}
	}
	cfg.MainSize = *mainSz
	cfg.QueriesPerPoint = *qpp
	cfg.QueryTimeout = *timeout
	cfg.Seed = *seed
	figs, err := selectFigures(*only)
	if err != nil {
		return err
	}

	h, err := harness.New(cfg)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := h.Close(); err == nil {
			err = cerr
		}
	}()
	start := time.Now()
	for _, f := range figs {
		if err := f.Run(h, stdout); err != nil {
			return fmt.Errorf("%s: %w", f.Name, err)
		}
	}
	fmt.Fprintf(stdout, "total: %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}

// selectFigures resolves the -only list, in the order given; empty selects
// every figure in paper order.
func selectFigures(only string) ([]harness.Figure, error) {
	if only == "" {
		return harness.Figures, nil
	}
	var out []harness.Figure
	for _, name := range strings.Split(only, ",") {
		name = strings.TrimSpace(name)
		i := slices.IndexFunc(harness.Figures, func(f harness.Figure) bool { return f.Name == name })
		if i < 0 {
			return nil, fmt.Errorf("unknown figure %q", name)
		}
		out = append(out, harness.Figures[i])
	}
	return out, nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", f)
		}
		out = append(out, v)
	}
	return out, nil
}
