package packedix

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

type post struct {
	labels []uint16
	bucket int
	nodes  []uint32
	prle   float64
	prn    float64
}

func buildFile(t testing.TB, m Meta, posts []post, nLabels int, card []int32, ppu, fpu []float64) string {
	t.Helper()
	w, err := NewWriter(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range posts {
		if err := w.Add(p.labels, p.bucket, p.nodes, p.prle, p.prn); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.SetContext(nLabels, card, ppu, fpu); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), FileName)
	if _, err := w.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func samplePosts() []post {
	return []post{
		{[]uint16{1}, 0, []uint32{7}, 1, 1},
		{[]uint16{1}, 3, []uint32{2}, 0.5, 1},
		{[]uint16{1, 2}, 0, []uint32{7, 3}, 0.25, 0.75},
		{[]uint16{1, 2}, 0, []uint32{1, 9}, 1, 0.125},
		{[]uint16{1, 2}, 4, []uint32{100, 5}, 0.875, 1},
		{[]uint16{2, 2, 3}, 2, []uint32{4, 4, 4}, 1, 1},
		{[]uint16{0, 5, 0}, 1, []uint32{9, 0, 12}, 0.0625, 0.5},
	}
}

func sampleMeta() Meta {
	return Meta{MaxLen: 2, NLabels: 6, NBuckets: 5, Beta: 0.05, Gamma: 0.19, Nodes: 128, Edges: 2}
}

func sampleCtx() (int, []int32, []float64, []float64) {
	nl := 6
	cells := sampleMeta().Nodes * nl
	card := make([]int32, cells)
	ppu := make([]float64, cells)
	fpu := make([]float64, cells)
	for i := range card {
		card[i] = int32(i * 2)
		ppu[i] = float64(i) / 7
		fpu[i] = 1 - float64(i)/31
	}
	return nl, card, ppu, fpu
}

func TestRoundTrip(t *testing.T) {
	nl, card, ppu, fpu := sampleCtx()
	path := buildFile(t, sampleMeta(), samplePosts(), nl, card, ppu, fpu)
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	m := f.Meta()
	if m.MaxLen != 2 || m.NLabels != 6 || m.NBuckets != 5 || m.Nodes != 128 || m.Edges != 2 {
		t.Fatalf("meta round-trip: %+v", m)
	}
	if m.Beta != 0.05 || m.Gamma != 0.19 {
		t.Fatalf("beta/gamma round-trip: %+v", m)
	}
	if m.Entries != 7 || !reflect.DeepEqual(m.EntriesPerLen, []uint64{2, 3, 2}) {
		t.Fatalf("entries: %d per-len %v", m.Entries, m.EntriesPerLen)
	}
	if f.NumSeqs() != 4 {
		t.Fatalf("NumSeqs = %d, want 4", f.NumSeqs())
	}

	// Per-sequence decode preserves bucket grouping and arrival order.
	s, ok := f.FindSeq([]uint16{1, 2})
	if !ok {
		t.Fatal("FindSeq [1 2] missed")
	}
	if got := s.Labels(nil); !reflect.DeepEqual(got, []uint16{1, 2}) {
		t.Fatalf("Labels = %v", got)
	}
	if s.Count(0) != 2 || s.Count(4) != 1 || s.Count(1) != 0 {
		t.Fatalf("counts: %d %d %d", s.Count(0), s.Count(1), s.Count(4))
	}
	var got []post
	if err := s.Decode(0, func(b int, nodes []uint32, prle, prn float64) bool {
		got = append(got, post{bucket: b, nodes: append([]uint32(nil), nodes...), prle: prle, prn: prn})
		return true
	}); err != nil {
		t.Fatal(err)
	}
	want := []post{
		{bucket: 0, nodes: []uint32{7, 3}, prle: 0.25, prn: 0.75},
		{bucket: 0, nodes: []uint32{1, 9}, prle: 1, prn: 0.125},
		{bucket: 4, nodes: []uint32{100, 5}, prle: 0.875, prn: 1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decode = %+v, want %+v", got, want)
	}

	// fromBucket skips earlier buckets without touching their bytes' content.
	got = nil
	if err := s.Decode(4, func(b int, nodes []uint32, prle, prn float64) bool {
		got = append(got, post{bucket: b, nodes: append([]uint32(nil), nodes...), prle: prle, prn: prn})
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want[2:]) {
		t.Fatalf("decode from bucket 4 = %+v", got)
	}

	if _, ok := f.FindSeq([]uint16{1, 3}); ok {
		t.Fatal("FindSeq found a sequence that was never added")
	}
	if _, ok := f.FindSeq([]uint16{1, 2, 3, 4}); ok {
		t.Fatal("FindSeq beyond MaxLen should miss")
	}

	gnl, gcard, gppu, gfpu, err := f.Context()
	if err != nil {
		t.Fatal(err)
	}
	if gnl != nl || !reflect.DeepEqual(gcard, card) || !reflect.DeepEqual(gppu, ppu) || !reflect.DeepEqual(gfpu, fpu) {
		t.Fatal("context tables did not round-trip")
	}
	if f.Binding() != "mmap" && f.Binding() != "heap" {
		t.Fatalf("binding = %q", f.Binding())
	}
	if f.MappedBytes() == 0 {
		t.Fatal("MappedBytes = 0")
	}
}

// TestOpenBytesEquivalence proves the heap path (arbitrary alignment,
// including the copying Context fallback) agrees with the mmap path.
func TestOpenBytesEquivalence(t *testing.T) {
	nl, card, ppu, fpu := sampleCtx()
	path := buildFile(t, sampleMeta(), samplePosts(), nl, card, ppu, fpu)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Misalign deliberately: copy into an offset buffer.
	buf := make([]byte, len(raw)+1)
	copy(buf[1:], raw)
	f, err := OpenBytes(buf[1:])
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	gnl, gcard, gppu, gfpu, err := f.Context()
	if err != nil {
		t.Fatal(err)
	}
	if gnl != nl || !reflect.DeepEqual(gcard, card) || !reflect.DeepEqual(gppu, ppu) || !reflect.DeepEqual(gfpu, fpu) {
		t.Fatal("misaligned context decode disagrees with writer input")
	}
}

func TestWriterValidation(t *testing.T) {
	w, err := NewWriter(sampleMeta())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Add([]uint16{1, 2, 3, 4}, 0, []uint32{1, 2, 3, 4}, 1, 1); err == nil {
		t.Fatal("Add beyond MaxLen accepted")
	}
	if err := w.Add([]uint16{1}, 99, []uint32{1}, 1, 1); err == nil {
		t.Fatal("Add with out-of-range bucket accepted")
	}
	if err := w.Add([]uint16{1, 2}, 0, []uint32{1}, 1, 1); err == nil {
		t.Fatal("Add with node/label mismatch accepted")
	}
	if err := w.Add([]uint16{1, 2}, 0, []uint32{2, 100000}, 1, 1); err == nil {
		t.Fatal("Add with a node past Meta.Nodes accepted")
	}
	if err := w.Add([]uint16{1, 6}, 0, []uint32{1, 2}, 1, 1); err == nil {
		t.Fatal("Add with a label past NLabels accepted")
	}
	if _, err := w.WriteFile(filepath.Join(t.TempDir(), FileName)); err == nil {
		t.Fatal("WriteFile without context accepted")
	}
	if _, err := NewWriter(Meta{MaxLen: 99, NLabels: 1, NBuckets: 1}); err == nil {
		t.Fatal("NewWriter with absurd MaxLen accepted")
	}
}

// TestOpenCorrupt drives structured corruptions through Open/probe and
// asserts each fails with ErrCorrupt rather than panicking.
func TestOpenCorrupt(t *testing.T) {
	nl, card, ppu, fpu := sampleCtx()
	path := buildFile(t, sampleMeta(), samplePosts(), nl, card, ppu, fpu)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(name string, fn func(b []byte) []byte) {
		t.Run(name, func(t *testing.T) {
			b := fn(append([]byte(nil), raw...))
			f, err := OpenBytes(b)
			if err == nil {
				// Open may legitimately pass header checks; the probe layer
				// must then catch it.
				defer f.Close()
				err = probeAll(f)
			}
			if err == nil {
				t.Fatal("corruption went unnoticed")
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error %v is not ErrCorrupt", err)
			}
		})
	}
	mutate("empty", func(b []byte) []byte { return nil })
	mutate("short-header", func(b []byte) []byte { return b[:50] })
	mutate("bad-magic", func(b []byte) []byte { b[0] = 'X'; return b })
	mutate("bad-version", func(b []byte) []byte { b[4] = 99; return b })
	mutate("truncated", func(b []byte) []byte { return b[:len(b)-20] })
	mutate("huge-maxlen", func(b []byte) []byte { binary.LittleEndian.PutUint32(b[8:], 1<<30); return b })
	mutate("zero-buckets", func(b []byte) []byte { binary.LittleEndian.PutUint32(b[16:], 0); return b })
	mutate("postings-off-oob", func(b []byte) []byte { binary.LittleEndian.PutUint64(b[72:], 1<<60); return b })
	mutate("context-len-oob", func(b []byte) []byte { binary.LittleEndian.PutUint64(b[96:], 1<<60); return b })
	mutate("table-off-oob", func(b []byte) []byte {
		off := binary.LittleEndian.Uint64(b[64:])
		binary.LittleEndian.PutUint64(b[off:], uint64(len(b))+1)
		return b
	})
	mutate("seqcount-oob", func(b []byte) []byte {
		off := binary.LittleEndian.Uint64(b[64:])
		binary.LittleEndian.PutUint64(b[off+8:], 1<<40)
		return b
	})

	// Sequence [1 2]'s bucket 4 holds one record, (100, 5): a flags byte,
	// then node[0] as the two-byte varint C8 01. Raising the high byte to 7F
	// decodes node[0] as 8164, past the 128-node graph.
	f, err := OpenBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := f.FindSeq([]uint16{1, 2})
	at := binary.LittleEndian.Uint64(raw[72:]) + binary.LittleEndian.Uint64(s.entry[2*s.n:]) + uint64(s.end(3))
	if raw[at+1] != 0xc8 || raw[at+2] != 0x01 {
		t.Fatalf("bucket 4 starts % x, want flags c8 01", raw[at:at+3])
	}
	mutate("node-past-graph", func(b []byte) []byte { b[at+2] = 0x7f; return b })
}

// probeAll exercises every read path: all sequences, all buckets, context.
// A decoded node id at or past Meta().Nodes is reported as an error that is
// not ErrCorrupt: Decode must have refused it.
func probeAll(f *File) error {
	m := f.Meta()
	var lbl []uint16
	var escaped error
	for l := 0; l <= m.MaxLen; l++ {
		for i := 0; i < f.SeqsAtLen(l); i++ {
			s := f.SeqAt(l, i)
			lbl = s.Labels(lbl)
			if _, ok := f.FindSeq(lbl); !ok {
				return corruptf("sequence %v not found by its own key", lbl)
			}
			err := s.Decode(0, func(_ int, nodes []uint32, _, _ float64) bool {
				for _, n := range nodes {
					if uint64(n) >= uint64(m.Nodes) {
						escaped = fmt.Errorf("Decode returned node %d of a %d-node graph", n, m.Nodes)
						return false
					}
				}
				return true
			})
			if err != nil {
				return err
			}
			if escaped != nil {
				return escaped
			}
		}
	}
	_, _, _, _, err := f.Context()
	return err
}

// TestRandomizedRoundTrip round-trips a few hundred random postings and
// checks every sequence decodes back exactly, in storage order.
func TestRandomizedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := Meta{MaxLen: 3, NLabels: 10, NBuckets: 8, Beta: 0.1, Gamma: 0.1125, Nodes: 4096, Edges: 80}
	want := map[string][]post{}
	var posts []post
	for i := 0; i < 400; i++ {
		n := 1 + rng.Intn(4)
		labels := make([]uint16, n)
		nodes := make([]uint32, n)
		for j := range labels {
			labels[j] = uint16(rng.Intn(10))
			nodes[j] = uint32(rng.Intn(m.Nodes))
		}
		p := post{labels: labels, bucket: rng.Intn(8), nodes: nodes,
			prle: math.Round(rng.Float64()*16) / 16, prn: math.Round(rng.Float64()*16) / 16}
		posts = append(posts, p)
		key := string(labelBytes(nil, labels))
		want[key] = append(want[key], p)
	}
	nl := 10
	cells := m.Nodes * nl
	path := buildFile(t, m, posts, nl, make([]int32, cells), make([]float64, cells), make([]float64, cells))
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for key, ps := range want {
		s, ok := f.FindSeq(ps[0].labels)
		if !ok {
			t.Fatalf("sequence %v missing", ps[0].labels)
		}
		// Expected order: bucket ascending, arrival order within bucket.
		var exp []post
		for b := 0; b < m.NBuckets; b++ {
			for _, p := range ps {
				if p.bucket == b {
					exp = append(exp, p)
				}
			}
		}
		var got []post
		if err := s.Decode(0, func(b int, nodes []uint32, prle, prn float64) bool {
			got = append(got, post{labels: ps[0].labels, bucket: b,
				nodes: append([]uint32(nil), nodes...), prle: prle, prn: prn})
			return true
		}); err != nil {
			t.Fatalf("decode %q: %v", key, err)
		}
		if !reflect.DeepEqual(got, exp) {
			t.Fatalf("sequence %v: got %+v want %+v", ps[0].labels, got, exp)
		}
	}
}
