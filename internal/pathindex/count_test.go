package pathindex

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/entity"
	"repro/internal/gen"
	"repro/internal/prob"
)

// pollsCtx is a context whose Err reports Canceled from its n-th call on: a
// walk that polls it ends part way through, deterministically.
type pollsCtx struct {
	context.Context
	mu   sync.Mutex
	left int
}

func (c *pollsCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.left <= 0 {
		return context.Canceled
	}
	c.left--
	return nil
}

// TestScanCountStoresOnlyCompleteWalks: below β, ScanCount remembers
// |PIndex(X, α)| only from an unfiltered walk that ran to its end. Scans
// stopped by their callback (after one row and after half of them) report
// the rows streamed; scans whose context ended before and during the walk
// report its error; none of them stores a count, so the complete scan after
// them is still a miss: it walks unfiltered, streams every row and reports
// the true count. The scan after that is a hit: it reports the same count
// and streams nothing through a filter that rejects every node. Concurrent
// cold callers all report the true count. The race step runs this at
// several processor counts.
func TestScanCountStoresOnlyCompleteWalks(t *testing.T) {
	g := synthGraph(t, gen.SynthOptions{Refs: 600, UncertainFrac: 0.5, Seed: 5})
	dir := t.TempDir()
	buildIndex(t, g, Options{MaxLen: 2, Beta: 0.5, Gamma: 0.1, Dir: dir}).Close()
	open := func() *Index {
		ix, err := Open(dir, g)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ix.Close() })
		return ix
	}
	X := []prob.LabelID{0, 1, 0}
	const alpha = 0.1
	want := len(bruteForce(open(), X, alpha))
	if want < 100 {
		t.Fatalf("%d paths: too few to stop a walk part way through", want)
	}
	rejectAll := filterOf(g, X, func(entity.ID, int) bool { return false })
	// scan runs ScanCount with the filter that rejects every node and a
	// callback that stops after stop rows (0: never): a scan that streams
	// rows walked unfiltered, one that streams none answered from the memo.
	scan := func(ix *Index, ctx context.Context, stop int) (n, rows int, err error) {
		n, err = ix.ScanCount(ctx, X, alpha, rejectAll, func([]entity.ID, float64, float64) bool {
			rows++
			return rows != stop
		})
		return n, rows, err
	}

	ix := open()
	for _, stop := range []int{1, want / 2} {
		if n, rows, err := scan(ix, context.Background(), stop); err != nil || n != stop || rows != stop {
			t.Fatalf("a scan stopped after %d rows: count %d, %d rows streamed, err %v", stop, n, rows, err)
		}
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, rows, err := scan(ix, cancelled, 0); !errors.Is(err, context.Canceled) || rows != 0 {
		t.Fatalf("a scan under a cancelled context: %d rows, err %v", rows, err)
	}
	if _, rows, err := scan(ix, &pollsCtx{Context: context.Background(), left: 3}, 0); !errors.Is(err, context.Canceled) || rows == 0 || rows >= want {
		t.Fatalf("a scan whose context ends at its third poll: %d of %d rows, err %v; want some rows, then Canceled", rows, want, err)
	}
	if n, rows, err := scan(ix, context.Background(), 0); err != nil || n != want || rows != want {
		t.Fatalf("the first complete scan: count %d, %d rows streamed, err %v; want a miss that streams and counts all %d", n, rows, err, want)
	}
	if n, rows, err := scan(ix, context.Background(), 0); err != nil || n != want || rows != 0 {
		t.Fatalf("the second complete scan: count %d, %d rows streamed, err %v; want a hit counting %d that streams none", n, rows, err, want)
	}

	cold := open()
	counts, streamed := make([]int, 8), make([]int, 8)
	var wg sync.WaitGroup
	for i := range counts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if counts[i], streamed[i], err = scan(cold, context.Background(), 0); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	walked := 0
	for i := range counts {
		if counts[i] != want || streamed[i] != 0 && streamed[i] != want {
			t.Fatalf("concurrent cold caller %d: count %d, %d rows streamed; want %d, and all rows or none", i, counts[i], streamed[i], want)
		}
		if streamed[i] != 0 {
			walked++
		}
	}
	if walked == 0 {
		t.Fatal("no concurrent cold caller walked")
	}
}

// TestScanCountAllocation: on a warm memo a below-β ScanCount allocates a
// constant number of objects — the memo key, the walker and the closure that
// adapts fn to it — whatever the filtered walk streams: the same count at two α
// whose walks stream at least ten times as many rows apart, so nothing is
// allocated per edge, per filter call or per path.
func TestScanCountAllocation(t *testing.T) {
	g := synthGraph(t, gen.SynthOptions{Refs: 1000, UncertainFrac: 0.5, Seed: 3})
	ix := buildIndex(t, g, Options{MaxLen: 2, Beta: 0.5, Gamma: 0.1})
	X := []prob.LabelID{0, 1, 0}
	ctx := context.Background()
	keep := filterOf(g, X, func(v entity.ID, pos int) bool { return pos != 1 || v%5 != 0 })
	rows := 0
	count := func([]entity.ID, float64, float64) bool { rows++; return true }
	scan := func(alpha float64) (perCall float64, rowsPerCall int) {
		if _, err := ix.ScanCount(ctx, X, alpha, keep, count); err != nil { // fills the memo
			t.Fatal(err)
		}
		rows = 0
		if _, err := ix.ScanCount(ctx, X, alpha, keep, count); err != nil {
			t.Fatal(err)
		}
		rowsPerCall = rows
		return testing.AllocsPerRun(20, func() { ix.ScanCount(ctx, X, alpha, keep, count) }), rowsPerCall
	}
	few, fewRows := scan(0.3)
	many, manyRows := scan(0.01)
	t.Logf("warm ScanCount of %v: %v allocations for %d rows at α 0.3, %v for %d rows at α 0.01", X, few, fewRows, many, manyRows)
	if fewRows == 0 || manyRows < 10*fewRows {
		t.Fatalf("rows %d at α 0.3 and %d at α 0.01: need ≥ 1 and ≥ 10× apart", fewRows, manyRows)
	}
	if few != many || many > 3 {
		t.Errorf("%v allocations per warm ScanCount at α 0.3, %v at α 0.01: want the same count, ≤ 3", few, many)
	}
}

// TestScanCountAlone: ScanCount with no callback is the count alone. Below
// β, on a cold memo it walks unfiltered, counts |PIndex(X, α)| and stores
// it, so a filtered scan after it is a hit that streams nothing through a
// filter rejecting every node; on a warm memo it answers without a walk —
// under a context that reports Canceled at its first poll it still returns
// the count. At α ≥ β it counts the rows Scan streams.
func TestScanCountAlone(t *testing.T) {
	g := synthGraph(t, gen.SynthOptions{Refs: 600, UncertainFrac: 0.5, Seed: 5})
	ix := buildIndex(t, g, Options{MaxLen: 2, Beta: 0.5, Gamma: 0.1})
	X := []prob.LabelID{0, 1, 0}
	const alpha = 0.1
	want := len(bruteForce(ix, X, alpha))
	if n, err := ix.ScanCount(context.Background(), X, alpha, nil, nil); err != nil || n != want {
		t.Fatalf("a cold count alone: %d, err %v; want %d", n, err, want)
	}
	rows := 0
	rejectAll := filterOf(g, X, func(entity.ID, int) bool { return false })
	if n, err := ix.ScanCount(context.Background(), X, alpha, rejectAll, func([]entity.ID, float64, float64) bool { rows++; return true }); err != nil || n != want || rows != 0 {
		t.Fatalf("the scan after a count alone: count %d, %d rows, err %v; want a hit counting %d that streams none", n, rows, err, want)
	}
	if n, err := ix.ScanCount(&pollsCtx{Context: context.Background()}, X, alpha, nil, nil); err != nil || n != want {
		t.Fatalf("a warm count alone under a context that ends at its first poll: %d, err %v; want %d without a walk", n, err, want)
	}
	above, err := CountScan(ix, X, 0.6, func([]entity.ID, float64, float64) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if n, err := ix.ScanCount(context.Background(), X, 0.6, nil, nil); err != nil || n != above || above == 0 {
		t.Fatalf("a count alone above β: %d, err %v; Scan streams %d rows", n, err, above)
	}
}
