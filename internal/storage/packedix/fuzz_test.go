package packedix

import (
	"errors"
	"os"
	"testing"
)

// FuzzOpenPacked throws arbitrary bytes — seeded with a valid file and
// targeted corruptions of it — at Open and the full probe surface. The
// invariant: any input either opens and probes cleanly, every decoded node
// id below Meta().Nodes, or fails with a typed ErrCorrupt. Never a panic,
// never a read outside the buffer (the
// fuzzer runs under the race/asan-adjacent bounds checks of the Go
// runtime, so an over-read of the slice is a caught panic).
func FuzzOpenPacked(f *testing.F) {
	nl, card, ppu, fpu := sampleCtx()
	path := buildFile(f, sampleMeta(), samplePosts(), nl, card, ppu, fpu)
	raw, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add(raw[:0])
	f.Add(raw[:headerSize])
	f.Add(raw[:len(raw)/2])
	for _, off := range []int{0, 5, 9, 17, 65, 73, 89, 105, headerSize + 1, len(raw) - 9} {
		b := append([]byte(nil), raw...)
		b[off] ^= 0xff
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		file, err := OpenBytes(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Open failed with untyped error: %v", err)
			}
			return
		}
		defer file.Close()
		if err := probeAll(file); err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("probe: %v", err)
		}
	})
}
