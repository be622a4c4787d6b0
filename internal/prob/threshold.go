package prob

import "math"

// tolerance is the one absolute slack of the threshold test: a match whose
// product falls short of α by at most this much still clears it.
const tolerance = 1e-12

// unitRoundoff is u = 2⁻⁵³, the relative error bound of one rounded float64
// operation.
const unitRoundoff = 0x1p-53

// Clears is the membership test of Definition 5: a match whose probability
// product is pr is kept at threshold α when pr ≥ α up to the tolerance. A
// zero product never clears, whatever α.
func Clears(pr, alpha float64) bool { return pr != 0 && pr+tolerance >= alpha }

// Factors is the most probability factors a match of a query with the given
// node and edge counts multiplies: a label factor per node, an edge factor
// per edge and at most one identity marginal per node.
func Factors(nodes, edges int) int { return 2*nodes + edges }

// Floor is the least bound MayClear(·, α, n) admits: α less the relative
// rounding bound γ(2n+4) = (2n+4)u / (1 − (2n+4)u) and the tolerance, never
// below the least positive float, so a zero bound is rejected. At most n−1
// roundings of the bound, n+1 of the match's product, one of Clears and
// three below lie between a bound and a product that Clears; DESIGN.md ("One
// owner for the α test") gives the argument.
func Floor(alpha float64, n int) float64 {
	nu := float64(2*n+4) * unitRoundoff
	return max(alpha*(1-nu/(1-nu))-tolerance, math.SmallestNonzeroFloat64)
}

// MayClear is the pruning test for a bound on a product of n factors in
// [0, 1]: it admits every bound that could, after float rounding, belong to
// a product that Clears α. Hot loops hold Floor(α, n) and compare with it.
func MayClear(bound, alpha float64, n int) bool { return bound >= Floor(alpha, n) }
