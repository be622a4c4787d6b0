package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/entity"
	"repro/internal/gen"
	"repro/internal/pathindex"
	"repro/internal/refgraph"
	"repro/internal/storage"
	"repro/internal/storage/crashfs"
)

// checkComplete asserts that every generation the catalog names loads: the
// PGD snapshot, and the index over its entity graph.
func checkComplete(t *testing.T, label, dir string, m *Manifest) {
	t.Helper()
	for _, e := range m.Entries {
		f, err := os.Open(filepath.Join(dir, e.PGD))
		if err != nil {
			t.Fatalf("%s: shard %d: %v", label, e.Shard, err)
		}
		d, err := refgraph.Load(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: shard %d snapshot: %v", label, e.Shard, err)
		}
		g, err := entity.Build(d, entity.BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ix, err := pathindex.Open(filepath.Join(dir, e.IndexDir), g)
		if err != nil {
			t.Fatalf("%s: shard %d index: %v", label, e.Shard, err)
		}
		ix.Close()
	}
}

// TestPowerCutPublish cuts power before each filesystem call of
// PublishEntry, and once after the last: the catalog must then load, name
// the published generation exactly when the publish was acknowledged, and
// name only complete generations.
func TestPowerCutPublish(t *testing.T) {
	d := synthPGD(t, 120, 2, 17)
	for k := 1; ; k++ {
		dir := t.TempDir()
		m, err := Build(context.Background(), d, dir, Options{
			Shards: 2,
			Index:  pathindex.Options{MaxLen: 2, Beta: 0.01, Gamma: 0.05},
		})
		if err != nil {
			t.Fatal(err)
		}
		// Generation 2 of shard 1: a complete copy of generation 1.
		next := m.Entries[1]
		next.Generation = 2
		next.PGD = filepath.Join("shard-01", "gen-000002", "pgd.snap")
		next.IndexDir = filepath.Join("shard-01", "gen-000002", "index")
		for _, p := range [][2]string{
			{m.Entries[1].PGD, next.PGD},
			{filepath.Join(m.Entries[1].IndexDir, "packed.idx"), filepath.Join(next.IndexDir, "packed.idx")},
		} {
			b, err := os.ReadFile(filepath.Join(dir, p[0]))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.MkdirAll(filepath.Dir(filepath.Join(dir, p[1])), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, p[1]), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}

		fs := &crashfs.FS{Fail: func(call int, _, _ string) error {
			if call >= k {
				return crashfs.ErrPowerCut
			}
			return nil
		}}
		perr := publishEntry(fs, dir, next)
		uncut := fs.Calls() < k
		if err := fs.PowerCut(); err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("cut before call %d", k)
		if uncut {
			label = "cut after the last call"
		}
		got, err := LoadManifest(dir)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		want := *m
		if perr == nil {
			want.Entries = []Entry{m.Entries[0], next}
		}
		if !reflect.DeepEqual(got, &want) {
			t.Fatalf("%s: catalog names generation %d of shard 1 (publish err %v)", label, got.Entries[1].Generation, perr)
		}
		checkComplete(t, label, dir, got)
		if uncut {
			if perr != nil {
				t.Fatalf("uncut publish: %v", perr)
			}
			return
		}
	}
}

// TestManifestUnbackedTotal: a catalog declaring ten million references it
// does not list is rejected without sizing anything by that count (a map
// presized to it would take ≈ 380 MB), and negative totals are rejected.
func TestManifestUnbackedTotal(t *testing.T) {
	m := Manifest{Version: ManifestVersion, Shards: 1, TotalRefs: 1e7, Labels: []string{"l0"},
		Entries: []Entry{{Shard: 0, Generation: 1, Refs: []int32{0}}}}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := m.validate()
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("unbacked total accepted")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
		t.Fatalf("validating an unbacked total allocated %d bytes, want ≤ 1 MiB", alloc)
	}
	for _, neg := range []Manifest{
		{Version: ManifestVersion, Shards: 1, TotalRefs: -1, Labels: []string{"l0"}, Entries: []Entry{{Shard: 0, Generation: 1}}},
		{Version: ManifestVersion, Shards: 1, TotalRefs: 1, TotalSets: -1, Labels: []string{"l0"},
			Entries: []Entry{{Shard: 0, Generation: 1, Refs: []int32{0}}}},
	} {
		if err := neg.validate(); err == nil {
			t.Fatalf("negative total accepted: %+v", neg)
		}
	}
}

// FuzzLoadManifest: an arbitrary catalog file is rejected with an error or
// accepted, and what is accepted validates again after a JSON round trip;
// nothing panics or sizes an allocation by a count the file has not backed.
func FuzzLoadManifest(f *testing.F) {
	d, err := gen.Synthetic(gen.SynthOptions{Refs: 60, Groups: 8, Clusters: 2, Seed: 5})
	if err != nil {
		f.Fatal(err)
	}
	dir := f.TempDir()
	m, err := Build(context.Background(), d, dir, Options{
		Shards: 2,
		Index:  pathindex.Options{MaxLen: 1, Beta: 0.01, Gamma: 0.05},
	})
	if err != nil {
		f.Fatal(err)
	}
	seed, err := json.Marshal(m)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"version":1,"shards":1,"total_refs":1e9,"labels":["l0"],"entries":[{"shard":0,"generation":1,"refs":[0]}]}`))
	f.Fuzz(func(t *testing.T, b []byte) {
		if err := os.WriteFile(filepath.Join(dir, ManifestName), b, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := LoadManifest(dir)
		if err != nil {
			return
		}
		again, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		var back Manifest
		if err := json.Unmarshal(again, &back); err != nil {
			t.Fatal(err)
		}
		if err := back.validate(); err != nil {
			t.Fatalf("accepted catalog fails validation after a round trip: %v", err)
		}
		if !reflect.DeepEqual(&back, m) {
			t.Fatal("catalog changed through a round trip")
		}
	})
}

// syncLog is a storage.FS over the operating system's that records, for
// every SyncDir, the subdirectories the synced directory held, and the
// position in its calls of the rename that put the manifest in place.
type syncLog struct {
	storage.FS
	synced   map[string]int // "dir\x00child" → the call that synced it
	calls    int
	manifest int // the manifest rename's call; 0 before it
}

func (l *syncLog) SyncDir(dir string) error {
	l.calls++
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if key := dir + "\x00" + e.Name(); e.IsDir() && l.synced[key] == 0 {
			l.synced[key] = l.calls
		}
	}
	return l.FS.SyncDir(dir)
}

func (l *syncLog) Rename(oldpath, newpath string) error {
	l.calls++
	if filepath.Base(newpath) == ManifestName {
		l.manifest = l.calls
	}
	return l.FS.Rename(oldpath, newpath)
}

// TestBuildSyncsItsDirectories: every directory Build makes — the catalog,
// each shard's, each generation's and each index's — is in its parent when
// that parent is synced, before the rename that puts the manifest in place,
// so a power cut cannot keep a manifest naming a generation whose directory
// entry it lost.
func TestBuildSyncsItsDirectories(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "catalog")
	l := &syncLog{FS: storage.OS, synced: map[string]int{}}
	if _, err := build(context.Background(), l, synthPGD(t, 120, 2, 17), dir, Options{
		Shards: 2,
		Index:  pathindex.Options{MaxLen: 2, Beta: 0.01, Gamma: 0.05},
	}); err != nil {
		t.Fatal(err)
	}
	if l.manifest == 0 {
		t.Fatal("the manifest was never renamed into place")
	}
	made := 0
	err := filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if err != nil || !e.IsDir() {
			return err
		}
		made++
		at := l.synced[filepath.Dir(path)+"\x00"+e.Name()]
		if at == 0 || at > l.manifest {
			t.Errorf("%s: its parent was synced with it at call %d, the manifest renamed at call %d", path, at, l.manifest)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if made != 1+2*3 {
		t.Fatalf("%d directories made, want the catalog and three a shard", made)
	}
}
