package difftest

import "testing"

// TestAnswers runs checkAnswers on every case of every arm: each strategy,
// Limit {0, 1, K}, order and entry point against the oracle, sqlbase
// against the oracle.
func TestAnswers(t *testing.T) {
	for _, a := range []*arm{&defaultLinkage, &denseLinkage, &rich, &correlated, &motivating} {
		t.Run(a.name, func(t *testing.T) {
			t.Parallel()
			n := forEach(t, a, checkAnswers)
			t.Logf("%d cases, %d oracle matches (%d over a shared component), %d declared limits (%d of more than one match, %d key walks)",
				n.cases, n.matched, n.shared, n.prefixes, n.multi, n.keyWalks)
			n.requireMatches(t, a)
			n.requireDeclared(t)
		})
	}
}

// TestWorkersAndCache runs checkWorkers on the linkage arms.
func TestWorkersAndCache(t *testing.T) {
	for _, a := range []*arm{&defaultLinkage, &denseLinkage} {
		t.Run(a.name, func(t *testing.T) {
			t.Parallel()
			n := forEach(t, a, checkWorkers)
			t.Logf("%d cases, %d candidates kept, %d links, %d oracle matches", n.cases, n.kept, n.links, n.matched)
			if n.kept == 0 || n.links == 0 {
				t.Fatalf("vacuous: %d candidates kept, %d links", n.kept, n.links)
			}
			n.requireMatches(t, a)
		})
	}
}

// TestDeclaredLimits runs checkDeclared on the linkage arms.
func TestDeclaredLimits(t *testing.T) {
	for _, a := range []*arm{&defaultLinkage, &denseLinkage} {
		t.Run(a.name, func(t *testing.T) {
			t.Parallel()
			n := forEach(t, a, checkDeclared)
			t.Logf("%d cases, %d declared limits (%d of more than one match, %d key walks)", n.cases, n.prefixes, n.multi, n.keyWalks)
			n.requireDeclared(t)
		})
	}
}

// TestDeclaredLimitSameOnEveryReader runs checkEveryReader on the linkage
// arms.
func TestDeclaredLimitSameOnEveryReader(t *testing.T) {
	for _, a := range []*arm{&defaultLinkage, &denseLinkage} {
		t.Run(a.name, func(t *testing.T) {
			t.Parallel()
			n := forEach(t, a, checkEveryReader)
			t.Logf("%d cases, %d declared limits (%d of more than one match, %d key walks)", n.cases, n.prefixes, n.multi, n.keyWalks)
			n.requireDeclared(t)
		})
	}
}

// TestPlanSpace runs checkPlans on the default-linkage arm.
func TestPlanSpace(t *testing.T) {
	n := forEach(t, &defaultLinkage, checkPlans)
	t.Logf("%d cases, %d plans", n.cases, n.plans)
	n.requireMatches(t, &defaultLinkage)
}

// requireMatches fails a test whose cases had no oracle match, or, on an
// arm that asks for them, fewer than minMatches a case, or no match over a
// shared component (or only such matches).
func (n tally) requireMatches(t *testing.T, a *arm) {
	t.Helper()
	if n.matched == 0 {
		t.Fatalf("vacuous: no oracle match in %d cases", n.cases)
	}
	if a.minMatches > 0 && n.matched < a.minMatches*n.cases {
		t.Fatalf("%d oracle matches over %d cases: fewer than %d a case", n.matched, n.cases, a.minMatches)
	}
	if a.minLinked > 0 && (n.shared == 0 || n.shared == n.matched) {
		t.Fatalf("%d of %d matches map two entities of one component: one way to a match's Prn was never taken", n.shared, n.matched)
	}
}

// requireDeclared fails a test whose declared limits compared nothing: no
// run, none that emitted more than one match, or no key walk.
func (n tally) requireDeclared(t *testing.T) {
	t.Helper()
	if n.prefixes == 0 || n.multi == 0 || n.keyWalks == 0 {
		t.Fatalf("vacuous: %d declared limits, %d of more than one match, %d key walks", n.prefixes, n.multi, n.keyWalks)
	}
}
