package shard

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/entity"
	"repro/internal/gen"
	"repro/internal/pathindex"
	"repro/internal/refgraph"
)

func synthPGD(t *testing.T, refs, clusters int, seed int64) *refgraph.PGD {
	t.Helper()
	d, err := gen.Synthetic(gen.SynthOptions{
		Refs:     refs,
		Groups:   8,
		Clusters: clusters,
		Seed:     seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestPartitionLossless checks the partition invariants the router's
// correctness rests on: every reference, set, and edge lands in exactly one
// shard, nothing crosses shards, and the id translation is strictly
// monotone.
func TestPartitionLossless(t *testing.T) {
	d := synthPGD(t, 400, 4, 7)
	for _, shards := range []int{1, 2, 3} {
		pgds, m, err := Partition(d, shards)
		if err != nil {
			t.Fatalf("Partition(%d): %v", shards, err)
		}
		if len(pgds) != shards || len(m.Entries) != shards {
			t.Fatalf("Partition(%d): got %d PGDs, %d entries", shards, len(pgds), len(m.Entries))
		}

		// Ownership: exactly-once coverage of refs and sets (validate()
		// checks this too; recheck directly against the source PGD).
		refOwner := make(map[int32]int)
		totalEdges := 0
		for s, e := range m.Entries {
			sd := pgds[s]
			if sd.NumRefs() != len(e.Refs) || sd.NumSets() != len(e.Sets) {
				t.Fatalf("shard %d: PGD has %d refs/%d sets, entry lists %d/%d",
					s, sd.NumRefs(), sd.NumSets(), len(e.Refs), len(e.Sets))
			}
			for _, r := range e.Refs {
				if prev, dup := refOwner[r]; dup {
					t.Fatalf("ref %d owned by shards %d and %d", r, prev, s)
				}
				refOwner[r] = s
			}
			totalEdges += sd.NumEdges()

			// Shard-local structure must mirror the global structure under
			// the id map: singleton priors and edge distributions match.
			for i, gr := range e.Refs {
				if got, want := sd.SingletonPrior(refgraph.RefID(i)), d.SingletonPrior(refgraph.RefID(gr)); got != want {
					t.Fatalf("shard %d ref %d: prior %v, global %v", s, i, got, want)
				}
			}
			for j, gs := range e.Sets {
				ls, gsSet := sd.Set(refgraph.SetID(j)), d.Set(refgraph.SetID(gs))
				if ls.P != gsSet.P || len(ls.Members) != len(gsSet.Members) {
					t.Fatalf("shard %d set %d: mismatch with global set %d", s, j, gs)
				}
				for k, lm := range ls.Members {
					if e.Refs[lm] != int32(gsSet.Members[k]) {
						t.Fatalf("shard %d set %d member %d: local %d ↦ %d, want %d",
							s, j, k, lm, e.Refs[lm], gsSet.Members[k])
					}
				}
			}
		}
		if len(refOwner) != d.NumRefs() {
			t.Fatalf("shards own %d refs, PGD has %d", len(refOwner), d.NumRefs())
		}
		if totalEdges != d.NumEdges() {
			t.Fatalf("shards hold %d edges, PGD has %d", totalEdges, d.NumEdges())
		}
		// Every global edge stays within one shard and survives translation.
		d.Edges(func(k refgraph.EdgeKey, ge refgraph.EdgeDist) bool {
			sa, sb := refOwner[int32(k.A)], refOwner[int32(k.B)]
			if sa != sb {
				t.Fatalf("edge (%d,%d) crosses shards %d/%d", k.A, k.B, sa, sb)
			}
			e := m.Entries[sa]
			la, lb := localOf(e.Refs, int32(k.A)), localOf(e.Refs, int32(k.B))
			se, ok := pgds[sa].Edge(refgraph.RefID(la), refgraph.RefID(lb))
			if !ok {
				t.Fatalf("edge (%d,%d) missing from shard %d", k.A, k.B, sa)
			}
			if !reflect.DeepEqual(se, ge) {
				t.Fatalf("edge (%d,%d): shard copy differs", k.A, k.B)
			}
			return true
		})

		// The id map is strictly monotone, so per-shard orderings survive
		// translation.
		for s := range m.Entries {
			im := m.IDMap(s)
			prev := -1
			for l := 0; l < im.NumEntities(); l++ {
				g, ok := im.Global(uint32(l))
				if !ok {
					t.Fatalf("shard %d: Global(%d) out of range", s, l)
				}
				if int(g) <= prev {
					t.Fatalf("shard %d: Global not strictly increasing at %d (%d ≤ %d)", s, l, g, prev)
				}
				prev = int(g)
			}
			if _, ok := im.Global(uint32(im.NumEntities())); ok {
				t.Fatalf("shard %d: Global past the end resolved", s)
			}
		}
	}
}

func localOf(refs []int32, g int32) int {
	for i, r := range refs {
		if r == g {
			return i
		}
	}
	return -1
}

func TestPartitionErrors(t *testing.T) {
	d := synthPGD(t, 120, 2, 3)
	if _, _, err := Partition(d, 0); err == nil {
		t.Fatal("Partition(0) succeeded")
	}
	// More shards than linkage closures must fail, not serve empty shards.
	if _, _, err := Partition(d, d.NumRefs()+1); err == nil {
		t.Fatal("Partition with more shards than closures succeeded")
	}
}

// TestBuildAndManifestRoundTrip runs the full offline pipeline and reopens
// every artifact the manifest names.
func TestBuildAndManifestRoundTrip(t *testing.T) {
	d := synthPGD(t, 200, 2, 11)
	dir := t.TempDir()
	m, err := Build(context.Background(), d, dir, Options{
		Shards: 2,
		Index:  pathindex.Options{MaxLen: 2, Beta: 0.01, Gamma: 0.05},
	})
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, loaded) {
		t.Fatal("manifest round-trip mismatch")
	}
	for _, e := range loaded.Entries {
		f, err := os.Open(filepath.Join(dir, e.PGD))
		if err != nil {
			t.Fatal(err)
		}
		sd, err := refgraph.Load(f)
		f.Close()
		if err != nil {
			t.Fatalf("shard %d: load PGD: %v", e.Shard, err)
		}
		if sd.NumRefs() != len(e.Refs) {
			t.Fatalf("shard %d: snapshot has %d refs, entry lists %d", e.Shard, sd.NumRefs(), len(e.Refs))
		}
		g, err := entity.Build(sd, entity.BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ix, err := pathindex.Open(filepath.Join(dir, e.IndexDir), g)
		if err != nil {
			t.Fatalf("shard %d: open index: %v", e.Shard, err)
		}
		if ix.Stats().Entries == 0 {
			t.Fatalf("shard %d: empty index", e.Shard)
		}
		ix.Close()
	}
}

// TestPublishEntry exercises the generation-flip publication protocol.
func TestPublishEntry(t *testing.T) {
	d := synthPGD(t, 200, 2, 13)
	dir := t.TempDir()
	m, err := Build(context.Background(), d, dir, Options{
		Shards: 2,
		Index:  pathindex.Options{MaxLen: 2, Beta: 0.01, Gamma: 0.05},
	})
	if err != nil {
		t.Fatal(err)
	}

	next := m.Entries[1]
	next.Generation = 2
	next.PGD = filepath.Join("shard-01", "gen-000002", "pgd.snap")
	next.IndexDir = filepath.Join("shard-01", "gen-000002", "index")
	if err := PublishEntry(dir, next); err != nil {
		t.Fatalf("publish: %v", err)
	}
	flipped, err := LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if flipped.Entries[1].Generation != 2 || flipped.Entries[1].PGD != next.PGD {
		t.Fatal("publish did not flip the entry")
	}
	if flipped.Entries[0].Generation != 1 {
		t.Fatal("publish touched another shard's entry")
	}

	// Stale generation rejected.
	stale := next
	stale.Generation = 2
	if err := PublishEntry(dir, stale); err == nil {
		t.Fatal("stale publish accepted")
	}
	// Ownership change rejected.
	moved := flipped.Entries[1]
	moved.Generation = 3
	moved.Refs = append([]int32(nil), moved.Refs[:len(moved.Refs)-1]...)
	if err := PublishEntry(dir, moved); err == nil {
		t.Fatal("ownership-changing publish accepted")
	}
	// Unknown shard rejected.
	bad := next
	bad.Shard = 9
	bad.Generation = 4
	if err := PublishEntry(dir, bad); err == nil {
		t.Fatal("publish for unknown shard accepted")
	}
}
