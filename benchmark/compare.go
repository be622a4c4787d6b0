package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// readRuns loads the untraced runs of a runs.ndjson file by workload. The
// traced runs measure half a window each and are for the ledger, not for
// comparing end-to-end numbers.
func readRuns(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string][]record)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !r.Trace {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out, sc.Err()
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the "exclusive" method), which is
// what the driver uses; ok is false below four values.
func quartiles(xs []float64) (q1, q3 float64, ok bool) {
	n := len(xs)
	if n < 4 {
		return 0, 0, false
	}
	s := sortedCopy(xs)
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3), true
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) (float64, bool) {
	q1, q3, ok := quartiles(xs)
	if !ok {
		return 0, false
	}
	return ratio(q3-q1, median(xs)), true
}

func values(runs []record, name string) []float64 {
	xs := make([]float64, 0, len(runs))
	for _, r := range runs {
		xs = append(xs, r.Metrics[name].Value)
	}
	return xs
}

func failShare(runs []record) float64 {
	attempted, failed := 0, 0
	for _, r := range runs {
		attempted += r.Attempted
		failed += r.Failed
	}
	return ratio(float64(failed), float64(attempted))
}

// compareFiles applies each end-to-end metric's bound to every workload
// present in both files and prints one row per pair. A row is "unresolved"
// when either side's own spread (from four runs up) is wider than the
// bound: the instrument cannot tell, and saying "unchanged" would be a
// guess. It returns false if anything regressed, more operations failed,
// or the two sides are not comparable.
func compareFiles(w io.Writer, parentPath, changePath string) (bool, error) {
	parent, err := readRuns(parentPath)
	if err != nil {
		return false, err
	}
	change, err := readRuns(changePath)
	if err != nil {
		return false, err
	}
	var names []string
	for name := range parent {
		if len(change[name]) > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return false, fmt.Errorf("no workload has untraced runs in both %s and %s", parentPath, changePath)
	}

	ok := true
	fmt.Fprintf(w, "%-18s %-20s %14s %14s %8s %7s %7s  %s\n", "workload", "metric", "parent", "change", "worse", "bound", "spread", "verdict")
	for _, name := range names {
		a, b := parent[name], change[name]
		for _, r := range append(append([]record(nil), a...), b...) {
			ref := a[0]
			if r.PoolFingerprint != ref.PoolFingerprint || r.Env.NProc != ref.Env.NProc || r.Env.GoMaxProcs != ref.Env.GoMaxProcs {
				return false, fmt.Errorf("%s: runs are not comparable: pool fingerprint %.0f vs %.0f, nproc %d vs %d, GOMAXPROCS %d vs %d",
					name, r.PoolFingerprint, ref.PoolFingerprint, r.Env.NProc, ref.Env.NProc, r.Env.GoMaxProcs, ref.Env.GoMaxProcs)
			}
		}
		for _, d := range endToEnd {
			xa, xb := values(a, d.Name), values(b, d.Name)
			ma, mb := median(xa), median(xb)
			worse := ratio(mb-ma, ma)
			if d.Better == "higher" {
				worse = -worse
			}
			wide, known := 0.0, false
			for _, xs := range [][]float64{xa, xb} {
				if sp, ok := spread(xs); ok {
					wide, known = max(wide, sp), true
				}
			}
			verdict := "unchanged"
			switch {
			case known && wide > d.Bound:
				verdict = "unresolved"
			case worse > d.Bound:
				verdict, ok = "regressed", false
			case worse < -d.Bound:
				verdict = "improved"
			}
			sp := "n/a"
			if known {
				sp = fmt.Sprintf("%.1f%%", wide*100)
			}
			fmt.Fprintf(w, "%-18s %-20s %14.6g %14.6g %+7.1f%% %6.1f%% %7s  %s\n", name, d.Name, ma, mb, worse*100, d.Bound*100, sp, verdict)
		}
		fa, fb := failShare(a), failShare(b)
		verdict := "unchanged"
		if fb > fa {
			verdict, ok = "regressed", false
		}
		fmt.Fprintf(w, "%-18s %-20s %14.6g %14.6g %8s %7s %7s  %s\n", name, "failed/attempted", fa, fb, "", "", "", verdict)
	}
	return ok, nil
}
