package live

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/refgraph"
	"repro/internal/storage"
	"repro/internal/storage/crashfs"
)

func pgdBytes(t *testing.T, d *refgraph.PGD) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := d.Save(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// powerCutBatches draws three valid mutation batches against the base PGD
// and returns them with the PGD bytes after each prefix: want[j] is the
// state after the first j batches.
func powerCutBatches(t *testing.T, base *refgraph.PGD) (batches [][]Mutation, want [][]byte) {
	t.Helper()
	db := createDB(t, base, testOptions())
	want = append(want, pgdBytes(t, db.PGDSnapshot()))
	rng := rand.New(rand.NewSource(31))
	for len(batches) < 3 {
		b := make([]Mutation, 3)
		for i := range b {
			b[i] = randomMutation(rng, db.PGDSnapshot())
		}
		if _, err := db.Apply(b); err != nil {
			continue
		}
		batches = append(batches, b)
		want = append(want, pgdBytes(t, db.PGDSnapshot()))
	}
	return batches, want
}

// powerCutScenario creates a database on fs, applies two batches, compacts,
// and applies the third, stopping at the first step that fails. It reports
// whether Create returned a database and how many batches were
// acknowledged.
func powerCutScenario(fs storage.FS, dir string, base *refgraph.PGD, batches [][]Mutation) (created bool, acked int) {
	db, err := create(context.Background(), fs, dir, base, testOptions())
	if err != nil {
		return false, 0
	}
	defer db.Close()
	for i, b := range batches {
		if i == 2 {
			if err := db.Compact(context.Background()); err != nil {
				return true, acked
			}
		}
		if _, err := db.Apply(b); err != nil {
			return true, acked
		}
		acked++
	}
	return true, acked
}

// checkReopen opens dir after a power cut and asserts the crash properties:
// the directory opens — which loads the snapshot, maps packed.idx and
// replays the WAL of the generation the manifest names, so that generation
// is complete — and its PGD is exactly the state after the acknowledged
// batches (every one present, no other).
func checkReopen(t *testing.T, label, dir string, want []byte) {
	t.Helper()
	db, err := Open(dir, testOptions())
	if err != nil {
		t.Fatalf("%s: Open: %v", label, err)
	}
	defer db.Close()
	if got := pgdBytes(t, db.PGDSnapshot()); !bytes.Equal(got, want) {
		t.Fatalf("%s: reopened PGD is not the state after the acknowledged batches", label)
	}
}

// TestPowerCut cuts power before each filesystem call of a live database's
// Create, three ingest batches and one Compact, and once after the last:
// only what was fsynced (file bytes) or directory-fsynced (creates, renames,
// removes) survives. Reopening must then find exactly the acknowledged
// batches in a complete generation; a Create that never returned leaves a
// directory Create accepts again. packed.idx is written by pathindex.Build
// outside the modelled filesystem and counts as durable once written.
func TestPowerCut(t *testing.T) {
	base := basePGD(t, 21)
	batches, want := powerCutBatches(t, base)
	for k := 1; ; k++ {
		dir := t.TempDir()
		fs := &crashfs.FS{Fail: func(call int, _, _ string) error {
			if call >= k {
				return crashfs.ErrPowerCut
			}
			return nil
		}}
		created, acked := powerCutScenario(fs, dir, base, batches)
		uncut := fs.Calls() < k
		if err := fs.PowerCut(); err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("cut before call %d", k)
		if uncut {
			label = "cut after the last call"
		}
		if !created {
			if _, err := os.Stat(filepath.Join(dir, manifestName)); err == nil {
				checkReopen(t, label, dir, want[0])
			} else {
				db, err := Create(context.Background(), dir, base, testOptions())
				if err != nil {
					t.Fatalf("%s: Create again after a cut Create: %v", label, err)
				}
				db.Close()
			}
		} else {
			checkReopen(t, label, dir, want[acked])
		}
		if uncut {
			if acked != len(batches) {
				t.Fatalf("uncut run acknowledged %d of %d batches", acked, len(batches))
			}
			t.Logf("%d cut points", k)
			return
		}
	}
}

// TestFailedFlipKeepsBothGenerations fails the directory fsync of a
// compaction's manifest flip — after its rename — then cuts power with the
// rename kept and with it lost. Whichever manifest survives, reopening must
// find every batch ever acknowledged, including any taken after the failed
// flip.
func TestFailedFlipKeepsBothGenerations(t *testing.T) {
	base := basePGD(t, 22)
	batches, want := powerCutBatches(t, base)
	errFlip := errors.New("injected directory fsync failure")
	for _, renameKept := range []bool{true, false} {
		dir := t.TempDir()
		failFlip := false
		fs := &crashfs.FS{Fail: func(_ int, op, path string) error {
			if failFlip && op == crashfs.OpSyncDir && path == dir {
				return errFlip
			}
			return nil
		}}
		db, err := create(context.Background(), fs, dir, base, testOptions())
		if err != nil {
			t.Fatal(err)
		}
		acked := 0
		for _, b := range batches[:2] {
			if _, err := db.Apply(b); err != nil {
				t.Fatal(err)
			}
			acked++
		}
		failFlip = true
		if err := db.Compact(context.Background()); !errors.Is(err, storage.ErrRenamed) {
			t.Fatalf("Compact with a failing flip fsync: err = %v, want ErrRenamed", err)
		}
		failFlip = false
		if _, err := db.Apply(batches[2]); err == nil {
			acked++
		}
		db.Close()
		if renameKept {
			// The fsync reached the disk after all; only its report failed.
			if err := fs.SyncDir(dir); err != nil {
				t.Fatal(err)
			}
		}
		if err := fs.PowerCut(); err != nil {
			t.Fatal(err)
		}
		label := "rename lost"
		if renameKept {
			label = "rename kept"
		}
		checkReopen(t, label, dir, want[acked])
	}
}
