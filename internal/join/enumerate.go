package join

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/decompose"
	"repro/internal/entity"
	"repro/internal/kpartite"
	"repro/internal/query"
)

// Morsel sizing for Enumerate: aim for several morsels per worker so the
// atomic dispatch counter load-balances skewed subtrees, but cap the morsel
// size so cancellation latency stays bounded even on huge candidate lists.
const (
	morselPerWorker = 4
	maxMorsel       = 64
)

// Enumerate finds every full match with Pr(M) ≥ alpha in the (possibly
// reduced) k-partite graph and hands each to sink as it is found. The first
// partition's candidates are split into morsels handed out through an atomic
// counter to `workers` workers (one, run on the calling goroutine, when
// workers ≤ 1), each driving its morsel's seeds depth-first through the
// whole join order with its own scratch — so the first match is produced
// without materializing anything, and one worker visits seeds in candidate
// order.
//
// The match is borrowed: m.Mapping is the calling worker's assignment array,
// valid only until sink returns and never to be written. A sink that keeps a
// match copies the mapping (Match.Clone, or into storage of its own).
//
// sink may be invoked concurrently, always with the calling worker's id in
// [0, workers); calls from the same worker are sequential. Returning false
// from any call stops every worker promptly (Enumerate then returns nil).
// Cancellation is cooperative: each worker checks ctx on every morsel
// pickup and every 1024 extension attempts, and once more after the
// enumeration completes; a cancelled run returns ctx.Err().
//
// The produced match set — every mapping with its Prle and Prn, each
// multiplied in the same fixed order — does not depend on workers; only the
// emission order across workers depends on scheduling.
//
// A walked graph (kpartite.Walked) has no links. Its first step visits the
// roots of the first partition in ascending id, reading each root's rows
// (kpartite.Graph.WalkRoot) and driving them depth-first through the rest
// of the order before it walks the next root; ctx is checked once per 64
// roots. Every later step reads its partition's rows for the join key the
// prefix has bound at the positions earlier steps assigned
// (kpartite.Graph.Walk). The walks write, so such a graph is enumerated on
// the calling goroutine, whatever workers says.
//
// The library's executor (internal/plan) always runs one worker. More than
// one — the morsel path — is reached only through FindMatchesParallel, whose
// last non-test caller is the benchmark module's replay driver; the path
// goes when that caller does.
func Enumerate(ctx context.Context, g *entity.Graph, q *query.Query, dec *decompose.Decomposition, kg *kpartite.Graph, order []int, alpha float64, workers int, sink func(worker int, m Match) bool) error {
	if len(order) == 0 {
		return nil
	}
	p := newPlan(g, q, dec, kg, order, alpha)
	if !p.covers {
		return nil // a query node no path assigns: nothing can be a full match
	}
	var (
		next atomic.Int64 // morsel dispatch counter
		stop atomic.Bool  // raised by a false sink, a ctx error, or a worker error
	)
	if kg.IsWalked() {
		if err := newScratch(p, ctx, 0, sink, &stop).roots(); err != nil || stop.Load() {
			return err
		}
		return ctx.Err()
	}
	total := kg.NumCandidates(order[0])
	workers = max(1, min(workers, total))
	morsel := min(max(total/(workers*morselPerWorker), 1), maxMorsel)
	errs := make([]error, workers)
	work := func(w int) {
		errs[w] = newScratch(p, ctx, w, sink, &stop).drain(&next, morsel, total)
	}
	if workers == 1 {
		work(0)
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work(w)
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if stop.Load() {
		return nil // stopped by the consumer, not an error
	}
	return ctx.Err()
}

// Clone returns m with a mapping of its own: what a sink keeps of a
// borrowed match.
func (m Match) Clone() Match {
	m.Mapping = slices.Clone(m.Mapping)
	return m
}

// FindMatchesFunc is Enumerate on one worker for callers that retain what
// they are yielded: every match owns its Mapping.
func FindMatchesFunc(ctx context.Context, g *entity.Graph, q *query.Query, dec *decompose.Decomposition, kg *kpartite.Graph, order []int, alpha float64, yield func(Match) bool) error {
	return Enumerate(ctx, g, q, dec, kg, order, alpha, 1, func(_ int, m Match) bool { return yield(m.Clone()) })
}

// FindMatchesParallel is Enumerate for callers that retain what they are
// yielded: every match owns its Mapping. yield has the sink's concurrency
// contract.
func FindMatchesParallel(ctx context.Context, g *entity.Graph, q *query.Query, dec *decompose.Decomposition, kg *kpartite.Graph, order []int, alpha float64, workers int, yield func(worker int, m Match) bool) error {
	return Enumerate(ctx, g, q, dec, kg, order, alpha, workers, func(w int, m Match) bool { return yield(w, m.Clone()) })
}
