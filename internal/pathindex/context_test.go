package pathindex

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/entity"
	"repro/internal/gen"
)

var (
	sinkContext *Context
	sinkCard    []int32
	sinkPPU     []float64
	sinkFPU     []float64
)

// TestContextPatchAllocation pins what a live batch pays for its context
// tables: after a generation's first patch (which copies the base tables
// once), a patch of k nodes allocates exactly the Context header, a copy of
// the row index and the append of k rows to each of the three tables —
// sized as reference allocations of the same shapes, so the size-class
// rounding is the runtime's. Two graph sizes, so that a patch copying a
// whole table cannot match both; each is also held below one table's bytes.
func TestContextPatchAllocation(t *testing.T) {
	heapBytes := func(f func()) uint64 {
		least := uint64(math.MaxUint64)
		for range 5 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			f()
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	const k = 16
	for _, refs := range []int{1000, 8000} {
		g := synthGraph(t, gen.SynthOptions{Refs: refs, Seed: 3})
		n, nl := g.NumNodes(), g.NumLabels()
		var ids []entity.ID
		for _, v := range rand.New(rand.NewSource(int64(refs))).Perm(n)[:5*k] {
			ids = append(ids, entity.ID(v))
		}
		base := ComputeContext(g, 1)
		first, nodes := ids[:4*k], ids[4*k:]

		// The first patch of a context appends in place, a second one
		// copies: every measured patch gets a fresh predecessor.
		patched := uint64(math.MaxUint64)
		for range 5 {
			c := base.Patch(g, first)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			sinkContext = c.Patch(g, nodes)
			runtime.ReadMemStats(&after)
			patched = min(patched, after.TotalAlloc-before.TotalAlloc)
		}

		c := base.Patch(g, first)
		card := make([]int32, len(c.card), cap(c.card))
		ppu := make([]float64, len(c.ppu), cap(c.ppu))
		fpu := make([]float64, len(c.fpu), cap(c.fpu))
		header := heapBytes(func() { sinkContext = &Context{} })
		rowOf := heapBytes(func() { sinkCard = make([]int32, n) })
		rows := heapBytes(func() {
			sinkCard, sinkPPU, sinkFPU = card, ppu, fpu
			for range k {
				sinkCard = append(sinkCard, make([]int32, nl)...)
				sinkPPU = append(sinkPPU, make([]float64, nl)...)
				sinkFPU = append(sinkFPU, make([]float64, nl)...)
			}
		})
		want := header + rowOf + rows
		table := uint64(4 * n * nl)
		t.Logf("%d refs, %d entities × %d labels: a %d-node patch allocates %d bytes = header %d + row index %d + rows %d (one card table: %d bytes)",
			refs, n, nl, k, patched, header, rowOf, rows, table)
		if patched != want {
			t.Errorf("%d refs: a %d-node patch allocates %d bytes, want %d", refs, k, patched, want)
		}
		if patched >= table {
			t.Errorf("%d refs: a %d-node patch allocates %d bytes, at least a whole %d-byte table", refs, k, patched, table)
		}
	}
}
