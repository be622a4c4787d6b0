package storage_test

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/storage"
	"repro/internal/storage/crashfs"
)

func writeBytes(b string) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := io.WriteString(w, b)
		return err
	}
}

// TestWriteFilePowerCut cuts power before each call WriteFile makes, and
// once after it returns: the file then holds the old bytes or all of the
// new ones, the new ones whenever WriteFile returned nil, and no temp file
// is left behind.
func TestWriteFilePowerCut(t *testing.T) {
	for k := 1; ; k++ {
		dir := t.TempDir()
		path := filepath.Join(dir, "f")
		if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
			t.Fatal(err)
		}
		fs := &crashfs.FS{Fail: func(call int, _, _ string) error {
			if call >= k {
				return crashfs.ErrPowerCut
			}
			return nil
		}}
		err := storage.WriteFile(fs, path, writeBytes("new bytes"))
		uncut := fs.Calls() < k
		if err := fs.PowerCut(); err != nil {
			t.Fatal(err)
		}
		got, rerr := os.ReadFile(path)
		if rerr != nil {
			t.Fatalf("cut at call %d: %v", k, rerr)
		}
		switch {
		case err == nil && string(got) != "new bytes":
			t.Fatalf("cut at call %d: WriteFile returned nil, file holds %q", k, got)
		case string(got) != "old" && string(got) != "new bytes":
			t.Fatalf("cut at call %d: file holds %q", k, got)
		}
		if _, serr := os.Stat(path + ".tmp"); !errors.Is(serr, os.ErrNotExist) {
			t.Fatalf("cut at call %d: temp file left behind (%v)", k, serr)
		}
		if uncut {
			if err != nil {
				t.Fatalf("uncut WriteFile: %v", err)
			}
			return
		}
	}
}

// TestWriteFileErrors: a failing write leaves the old file and no temp
// file; a failing directory sync after the rename wraps ErrRenamed.
func TestWriteFileErrors(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	if err := storage.WriteFile(storage.OS, path, writeBytes("old")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := storage.WriteFile(storage.OS, path, func(w io.Writer) error {
		io.WriteString(w, "partial")
		return boom
	})
	if !errors.Is(err, boom) || errors.Is(err, storage.ErrRenamed) {
		t.Fatalf("failing write: err = %v", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "old" {
		t.Fatalf("failing write replaced the file: %q", got)
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("temp file left behind after a failing write (%v)", err)
	}

	fs := &crashfs.FS{Fail: func(_ int, op, _ string) error {
		if op == crashfs.OpSyncDir {
			return boom
		}
		return nil
	}}
	err = storage.WriteFile(fs, path, writeBytes("new"))
	if !errors.Is(err, storage.ErrRenamed) || !errors.Is(err, boom) {
		t.Fatalf("failing directory sync: err = %v, want ErrRenamed wrapping the cause", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "new" {
		t.Fatalf("failing directory sync: file holds %q, want the renamed bytes", got)
	}
}
