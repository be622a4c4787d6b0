package main

import (
	"io"
	"os"
	"testing"
)

// TestFailedRunLeavesNoWorkDir holds run to removing the harness's work
// directory on its error paths: an unknown figure is refused before the
// directory exists, and a figure that fails after it exists (a one-reference
// main graph cannot be generated) still has it removed.
func TestFailedRunLeavesNoWorkDir(t *testing.T) {
	for _, args := range [][]string{
		{"-only", "nosuch"},
		{"-only", "fig7e", "-main", "1"},
	} {
		tmp := t.TempDir()
		t.Setenv("TMPDIR", tmp)
		if err := run(args, io.Discard); err == nil {
			t.Errorf("%v: run returned no error", args)
		}
		ents, err := os.ReadDir(tmp)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			t.Errorf("%v: %s left behind in TMPDIR", args, e.Name())
		}
	}
}
