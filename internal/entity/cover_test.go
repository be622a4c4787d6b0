package entity

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/prob"
	"repro/internal/refgraph"
)

// pgdEntity is an entity as the PGD defines it: a reference set.
type pgdEntity struct {
	refs []refgraph.RefID
	set  refgraph.SetID // -1 for a singleton
}

// pgdComponents lists the PGD's entities in Build's documented order — the
// singleton of every reference by reference id, then every set by set id —
// and groups their indices into identity components, the classes of
// "shares a reference with": components by first member, members ascending.
func pgdComponents(d *refgraph.PGD) (ents []pgdEntity, comps [][]int) {
	for r := 0; r < d.NumRefs(); r++ {
		ents = append(ents, pgdEntity{[]refgraph.RefID{refgraph.RefID(r)}, -1})
	}
	for s := 0; s < d.NumSets(); s++ {
		ents = append(ents, pgdEntity{d.Set(refgraph.SetID(s)).Members, refgraph.SetID(s)})
	}
	root := make([]int, len(ents))
	for i := range root {
		root[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		if root[i] != i {
			root[i] = find(root[i])
		}
		return root[i]
	}
	for i, e := range ents {
		for _, r := range e.refs {
			root[find(i)] = find(int(r)) // entity r is r's singleton
		}
	}
	at := map[int]int{}
	for i := range ents {
		c, ok := at[find(i)]
		if !ok {
			c = len(comps)
			at[find(i)] = c
			comps = append(comps, nil)
		}
		comps[c] = append(comps[c], i)
	}
	return ents, comps
}

// referenceConfigs scores one component by brute force, straight from the
// PGD: it weights every subset of the members, singletons included, by the
// factors of Eq. 7 in the documented order, keeps the subsets of positive
// weight and normalizes them by their sum in ascending mask order. Per
// reference, ascending, the factor is 0 unless exactly one chosen member
// holds it, and then 1 under SemanticsExample and that member's prior under
// SemanticsFactor; SemanticsExample then multiplies p or 1 − p for each
// non-singleton member in member order. ok is false when no subset has
// positive weight.
func referenceConfigs(d *refgraph.PGD, sem Semantics, ents []pgdEntity, members []int) (cfgs []Config, ok bool) {
	if len(members) == 1 {
		// The singleton of a reference in no set always exists.
		return []Config{{Mask: 1, P: 1}}, true
	}
	prior := func(e pgdEntity) float64 {
		if e.set < 0 {
			return d.SingletonPrior(e.refs[0])
		}
		return d.Set(e.set).P
	}
	var refs []refgraph.RefID
	for _, m := range members {
		refs = append(refs, ents[m].refs...)
	}
	slices.Sort(refs)
	refs = slices.Compact(refs)
	z := 0.0
	for mask := uint64(0); mask < 1<<len(members); mask++ {
		w := 1.0
		for _, r := range refs {
			holder := -1
			for pos, m := range members {
				if mask>>pos&1 != 0 && slices.Contains(ents[m].refs, r) {
					if holder >= 0 {
						holder = -2
						break
					}
					holder = pos
				}
			}
			switch {
			case holder < 0:
				w *= 0
			case sem == SemanticsFactor:
				w *= prior(ents[members[holder]])
			default:
				w *= 1
			}
		}
		if sem == SemanticsExample {
			for pos, m := range members {
				if e := ents[m]; e.set >= 0 {
					if mask>>pos&1 != 0 {
						w *= prior(e)
					} else {
						w *= 1 - prior(e)
					}
				}
			}
		}
		if w > 0 {
			cfgs = append(cfgs, Config{Mask: mask, P: w})
			z += w
		}
	}
	if z == 0 {
		return nil, false
	}
	for i := range cfgs {
		cfgs[i].P /= z
	}
	return cfgs, true
}

// randomLinkedPGD draws up to 12 references and up to 6 sets of 2–4 of
// them. Set probabilities and singleton priors are 0, 1 or uniform, so some
// components have no configuration of positive weight.
func randomLinkedPGD(t *testing.T, rng *rand.Rand) *refgraph.PGD {
	t.Helper()
	p := func() float64 {
		switch rng.Intn(8) {
		case 0:
			return 0
		case 1:
			return 1
		}
		return rng.Float64()
	}
	d := refgraph.New(prob.MustAlphabet("a"))
	n := 2 + rng.Intn(11)
	for i := 0; i < n; i++ {
		d.AddReference(prob.Point(0))
	}
	for s := rng.Intn(7); s > 0; s-- {
		var members []refgraph.RefID
		for _, r := range rng.Perm(n)[:2+rng.Intn(min(3, n-1))] {
			members = append(members, refgraph.RefID(r))
		}
		if _, dup := d.FindSet(members); dup {
			continue
		}
		if _, err := d.AddReferenceSet(members, p()); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < n; r++ {
		if rng.Intn(2) == 0 {
			if err := d.SetSingletonPrior(refgraph.RefID(r), p()); err != nil {
				t.Fatal(err)
			}
		}
	}
	return d
}

// TestConfigsMatchPGDReference holds every component Build scores to the
// brute-force reference, bit for bit, under both semantics. The reference
// reads nothing but the PGD, so it checks the configurations the internal/naive
// oracle takes from the graph.
func TestConfigsMatchPGDReference(t *testing.T) {
	checked, failed := 0, 0
	for _, sem := range []Semantics{SemanticsExample, SemanticsFactor} {
		for seed := int64(0); seed < 300; seed++ {
			d := randomLinkedPGD(t, rand.New(rand.NewSource(seed)))
			ents, comps := pgdComponents(d)
			want := make([][]Config, len(comps))
			legal := true
			for c, members := range comps {
				var ok bool
				want[c], ok = referenceConfigs(d, sem, ents, members)
				legal = legal && ok
			}
			label := fmt.Sprintf("semantics %d seed %d", sem, seed)
			g, err := Build(d, BuildOptions{Semantics: sem})
			if !legal {
				failed++
				if err == nil {
					t.Errorf("%s: a component has no configuration of positive weight, yet Build succeeded", label)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: Build: %v", label, err)
			}
			if g.NumNodes() != len(ents) || g.NumComponents() != len(comps) {
				t.Fatalf("%s: %d entities in %d components, want %d in %d", label, g.NumNodes(), g.NumComponents(), len(ents), len(comps))
			}
			for v, e := range ents {
				if !slices.Equal(g.Refs(ID(v)), e.refs) {
					t.Fatalf("%s: entity %d holds %v, want %v", label, v, g.Refs(ID(v)), e.refs)
				}
			}
			for c, members := range comps {
				got := g.Component(c)
				if !slices.Equal(got.Members, idsOf(members)) {
					t.Fatalf("%s: component %d members %v, want %v", label, c, got.Members, members)
				}
				if !slices.EqualFunc(got.Configs, want[c], func(a, b Config) bool { return a.Mask == b.Mask && sameBits(a.P, b.P) }) {
					t.Errorf("%s: component %d configs %v, want %v", label, c, got.Configs, want[c])
				}
				checked++
			}
		}
	}
	t.Logf("%d components checked; %d PGDs without a configuration of positive weight", checked, failed)
	if failed == 0 {
		t.Error("no PGD exercised the zero-weight error")
	}
}

func idsOf(xs []int) []ID {
	ids := make([]ID, len(xs))
	for i, x := range xs {
		ids[i] = ID(x)
	}
	return ids
}

// ringPGD links n references in a ring by its n adjacent pairs, each a set
// of probability 0.5: one component of 2n members whose exact covers are
// the Lucas(n) matchings of the ring.
func ringPGD(t testing.TB, n int) *refgraph.PGD {
	t.Helper()
	d := refgraph.New(prob.MustAlphabet("a"))
	for i := 0; i < n; i++ {
		d.AddReference(prob.Point(0))
	}
	for i := 0; i < n; i++ {
		if _, err := d.AddReferenceSet([]refgraph.RefID{refgraph.RefID(i), refgraph.RefID((i + 1) % n)}, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// TestRingComponent: a component's cost follows its configurations, not its
// members. The 24-member ring of 12 has Lucas(12) = 322 configurations and
// builds; the 64-member ring of 32 has Lucas(32) = 4 870 847, past the
// bound, and fails naming its first member and size.
func TestRingComponent(t *testing.T) {
	g, err := Build(ringPGD(t, 12), BuildOptions{})
	if err != nil {
		t.Fatalf("ring of 12: %v", err)
	}
	if c := g.Component(0); len(c.Members) != 24 || len(c.Configs) != 322 {
		t.Errorf("ring of 12: %d members, %d configurations; want 24, 322", len(c.Members), len(c.Configs))
	}
	_, err = Build(ringPGD(t, 32), BuildOptions{})
	if err == nil || !strings.Contains(err.Error(), "component of 64 entities from entity 0 has more than 4194304 legal configurations") {
		t.Errorf("ring of 32: err = %v, want the configuration bound", err)
	}
}

// denseCorpora are the k/s/r linkage settings of Section 6 that make large
// identity components, at 4 000 references.
var denseCorpora = []struct {
	name string
	opt  gen.SynthOptions
}{
	{"400-4-4", gen.SynthOptions{Refs: 4000, Groups: 400, GroupSize: 4, PairsPerGroup: 4, Seed: 1}},
	{"200-8-8", gen.SynthOptions{Refs: 4000, Groups: 200, GroupSize: 8, PairsPerGroup: 8, Seed: 1}},
	{"100-12-16", gen.SynthOptions{Refs: 4000, Groups: 100, GroupSize: 12, PairsPerGroup: 16, Seed: 1}},
	{"50-16-32", gen.SynthOptions{Refs: 4000, Groups: 50, GroupSize: 16, PairsPerGroup: 32, Seed: 1}},
	{"200-8-8-uncertain-0.5", gen.SynthOptions{Refs: 4000, UncertainFrac: 0.5, Groups: 200, GroupSize: 8, PairsPerGroup: 8, Seed: 1}},
}

// TestDenseLinkageBuilds: every corpus in denseCorpora builds, the larger
// ones with components of 21 to 57 members.
func TestDenseLinkageBuilds(t *testing.T) {
	for _, tc := range denseCorpora {
		d, err := gen.Synthetic(tc.opt)
		if err != nil {
			t.Fatal(err)
		}
		g, err := Build(d, BuildOptions{})
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		largest, most := 0, 0
		for _, c := range g.multi {
			largest, most = max(largest, len(c.Members)), max(most, len(c.Configs))
		}
		t.Logf("%s: largest component %d members, most configurations %d", tc.name, largest, most)
	}
}

// TestApplyDeltaJoinsLargeComponent: a set that joins two 11-member chains
// into one of 23 members goes through the same enumeration under ApplyDelta
// as under Build.
func TestApplyDeltaJoinsLargeComponent(t *testing.T) {
	d := refgraph.New(prob.MustAlphabet("a"))
	for i := 0; i < 12; i++ {
		d.AddReference(prob.Point(0))
	}
	for i := 0; i < 11; i++ {
		if i == 5 {
			continue
		}
		if _, err := d.AddReferenceSet([]refgraph.RefID{refgraph.RefID(i), refgraph.RefID(i + 1)}, 0.3+0.05*float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	g, err := Build(d, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sid, err := d.AddReferenceSet([]refgraph.RefID{5, 6}, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	ng, _, err := ApplyDelta(g, d, Delta{NewSets: []refgraph.SetID{sid}})
	if err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	want, err := Build(d, BuildOptions{})
	if err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	compareGraphs(t, "joined chains", ng, want)
	if c := ng.Component(int(ng.Comp(0))); len(c.Members) != 23 {
		t.Errorf("joined component has %d members, want 23", len(c.Members))
	}
}

// BenchmarkBuild times Build on the corpora of denseCorpora.
func BenchmarkBuild(b *testing.B) {
	for _, tc := range denseCorpora {
		b.Run(tc.name, func(b *testing.B) {
			d, err := gen.Synthetic(tc.opt)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Build(d, BuildOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
