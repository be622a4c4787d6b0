package pathindex

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestOpenCorruptPacked: a damaged packed.idx must fail Open (or a later
// probe) with an error, never serve bad results. packedix's own fuzz target
// covers the decoder in depth.
func TestOpenCorruptPacked(t *testing.T) {
	g := motivating(t)
	build := func(t *testing.T) string {
		dir := filepath.Join(t.TempDir(), "ix")
		ix, err := Build(context.Background(), g, Options{MaxLen: 2, Beta: 0.05, Gamma: 0.1, Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	cases := []struct {
		name    string
		corrupt func(t *testing.T, path string)
	}{
		{"truncated", func(t *testing.T, path string) {
			st, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			os.Truncate(path, st.Size()/2)
		}},
		{"garbage", func(t *testing.T, path string) {
			os.WriteFile(path, []byte("PEGXnot really an index"), 0o644)
		}},
		{"bad-magic", func(t *testing.T, path string) {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			b[0] = 'Z'
			os.WriteFile(path, b, 0o644)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := build(t)
			tc.corrupt(t, filepath.Join(dir, "packed.idx"))
			if ix, err := Open(dir, g); err == nil {
				ix.Close()
				t.Error("corrupt packed index opened without error")
			}
		})
	}
}

// TestOpenV1DirectoryExplains: a directory from before the packed format
// (meta.json, paths.pages, no packed.idx) fails Open with an error that says
// to rebuild it.
func TestOpenV1DirectoryExplains(t *testing.T) {
	g := motivating(t)
	dir := t.TempDir()
	for _, name := range []string{"meta.json", "paths.pages", "seqs.dict", "context.bin", "hist.bin"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("v1"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ix, err := Open(dir, g)
	if err == nil {
		ix.Close()
		t.Fatal("v1 directory opened")
	}
	if msg := err.Error(); !strings.Contains(msg, "v1") || !strings.Contains(msg, "pegbuild") {
		t.Fatalf("error does not explain the rebuild: %v", err)
	}
}

func TestOpenIntactAfterFailureTests(t *testing.T) {
	// Sanity: an untouched directory still opens.
	g := motivating(t)
	dir := filepath.Join(t.TempDir(), "ix")
	ix, err := Build(context.Background(), g, Options{MaxLen: 1, Beta: 0.1, Gamma: 0.1, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	ix2, err := Open(dir, g)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	ix2.Close()
}
