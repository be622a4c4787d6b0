package plan

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/entity"
	"repro/internal/join"
)

// BenchmarkStoreOrder times putting one keep-all store's rows in mapping
// order — the list radix a collect runs, and the comparison sort over row ids
// it replaced — from a handful of rows to a million, for narrow and wide
// mappings over ids spanning one 12-bit digit and two 10-bit ones. There is
// one code path at every size, so radix must not lose to compare at any n.
func BenchmarkStoreOrder(b *testing.B) {
	for _, n := range []int{16, 256, 4096, 65_536, 1_048_576} {
		for _, width := range []int{3, 6} {
			for _, spanBits := range []int{12, 20} {
				var s store
				s.init(width, 0)
				rng := rand.New(rand.NewSource(int64(n + width + spanBits)))
				lent := make([]entity.ID, width)
				for i := 0; i < n; i++ {
					for k := range lent {
						lent[k] = entity.ID(rng.Intn(1 << spanBits))
					}
					s.offer(join.Match{Mapping: lent, Prle: 0.5, Prn: 0.5})
				}
				name := fmt.Sprintf("n=%d/width=%d/span=2^%d", n, width, spanBits)
				b.Run(name+"/radix", func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						sinkRow, _ = s.byMapping()
					}
					b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
				})
				b.Run(name+"/compare", func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						perm := make([]int32, s.n)
						for r := range perm {
							perm[r] = int32(r)
						}
						slices.SortFunc(perm, func(x, y int32) int { return slices.Compare(s.ids(x), s.ids(y)) })
						sinkRow = perm[0]
					}
					b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
				})
			}
		}
	}
}

var sinkRow int32
