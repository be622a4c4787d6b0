package prob

import (
	"math"
	"math/rand"
	"testing"
)

func TestClears(t *testing.T) {
	for _, c := range []struct {
		pr, alpha float64
		want      bool
	}{
		{0.5, 0.5, true},
		{0.5 - 5e-13, 0.5, true},
		{0.5 - 2e-12, 0.5, false},
		{0, 1e-13, false}, // a zero product never clears, whatever α
		{0, 0, false},
		{1e-300, 0, true},
		{math.NaN(), 0, false},
	} {
		if got := Clears(c.pr, c.alpha); got != c.want {
			t.Errorf("Clears(%v, %v) = %v, want %v", c.pr, c.alpha, got, c.want)
		}
	}
}

func TestFloor(t *testing.T) {
	for _, n := range []int{1, 5, 14, 40} {
		if f := Floor(0, n); f != math.SmallestNonzeroFloat64 {
			t.Errorf("Floor(0, %d) = %v: a zero bound must be rejected", n, f)
		}
		if MayClear(0, 1e-13, n) {
			t.Errorf("MayClear(0, 1e-13, %d): a zero bound was admitted", n)
		}
		prev := 0.0
		for _, alpha := range []float64{1e-13, 1e-9, 0.05, 0.3, 0.5, 1} {
			f := Floor(alpha, n)
			if f < prev || f > Floor(alpha, n-1) || f >= alpha {
				t.Errorf("Floor(%v, %d) = %v: not monotone in α and n, or not below α", alpha, n, f)
			}
			prev = f
			// The slack is the tolerance plus a few ulps of α, nothing more.
			if alpha >= 1e-9 && f < alpha-1e-12-alpha*1e-13 {
				t.Errorf("Floor(%v, %d) = %v: slack wider than the tolerance and γ", alpha, n, f)
			}
		}
	}
}

// TestMayClearAdmitsEveryOrder is the soundness property of MayClear: a
// match multiplies its factors into running products the way emit does —
// Prle over the first share of them, Prn over the rest, then Prle·Prn — and
// α is set to the largest value at which that product Clears. A bound that
// multiplies, in a random order and grouping, floats that each dominate a
// distinct factor or product of distinct factors of the match, n factors in
// all, must then be admitted by MayClear at α for that n.
func TestMayClearAdmitsEveryOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	factor := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return 1
		case 1:
			return 1 - rng.Float64()*1e-3
		default:
			return 0.05 + 0.95*rng.Float64()
		}
	}
	for trial := 0; trial < 200000; trial++ {
		m := 1 + rng.Intn(24)
		f := make([]float64, m)
		for i := range f {
			f[i] = factor()
		}
		split := rng.Intn(m + 1)
		prle, prn := 1.0, 1.0
		for _, x := range f[:split] {
			prle *= x
		}
		for _, x := range f[split:] {
			prn *= x
		}
		pr := prle * prn
		alpha := pr + 1e-12
		if !Clears(pr, alpha) {
			t.Fatalf("trial %d: Clears(%v, %v) is false", trial, pr, alpha)
		}
		// The bound's leaves: a random subset of the factors, in a random
		// order, some grouped into products, some raised towards 1.
		perm := rng.Perm(m)[:1+rng.Intn(m)]
		n := len(perm)
		var leaves []float64
		for i := 0; i < len(perm); {
			k := 1 + rng.Intn(min(3, len(perm)-i))
			leaf := 1.0
			for _, j := range perm[i : i+k] {
				leaf *= f[j]
			}
			if rng.Intn(4) == 0 {
				leaf = math.Nextafter(leaf, 2)
				leaf = min(leaf, 1)
			}
			leaves = append(leaves, leaf)
			i += k
		}
		for len(leaves) > 1 { // a random multiplication tree
			i := rng.Intn(len(leaves) - 1)
			leaves[i] *= leaves[i+1]
			leaves = append(leaves[:i+1], leaves[i+2:]...)
		}
		if !MayClear(leaves[0], alpha, n) {
			t.Fatalf("trial %d: the bound %v over %d of %d factors is rejected at α = %v (the match's product %v clears it)",
				trial, leaves[0], n, m, alpha, pr)
		}
	}
}
