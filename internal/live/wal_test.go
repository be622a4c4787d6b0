package live

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/refgraph"
)

// TestEncodeBatchBytes pins a WAL record payload byte for byte: the count,
// then each mutation behind its length, for all three ops — a multi-label
// add-ref, a plain and a CPT edge, a three-member linkage — and the empty
// batch.
func TestEncodeBatchBytes(t *testing.T) {
	ms := []Mutation{
		{Op: OpAddRef, Labels: []LabelP{{Label: "l0", P: 0.75}, {Label: "l3", P: 0.25}}},
		{Op: OpAddEdge, A: 3, B: 7, P: 0.8},
		{Op: OpAddEdge, A: 12, B: 5, P: 0.5, CPT: []float64{0.1, 0.2, 0.2, 0.9}},
		{Op: OpSetLinkage, Members: []refgraph.RefID{3, 4, 9}, P: 0.9},
	}
	const want = "04000000" +
		"21000000" + "01" + "02000000" + "020000006c30" + "000000000000e83f" + "020000006c33" + "000000000000d03f" +
		"15000000" + "02" + "03000000" + "07000000" + "9a9999999999e93f" + "00000000" +
		"35000000" + "02" + "0c000000" + "05000000" + "000000000000e03f" + "04000000" +
		"9a9999999999b93f" + "9a9999999999c93f" + "9a9999999999c93f" + "cdccccccccccec3f" +
		"19000000" + "03" + "03000000" + "03000000" + "04000000" + "09000000" + "cdccccccccccec3f"
	got, err := encodeBatch(ms)
	if err != nil {
		t.Fatal(err)
	}
	if hex.EncodeToString(got) != want {
		t.Fatalf("payload\n%x\nwant\n%s", got, want)
	}
	back, err := decodeBatch(got)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, ms) {
		t.Fatalf("decoded %+v, want %+v", back, ms)
	}
	if empty, err := encodeBatch(nil); err != nil || hex.EncodeToString(empty) != "00000000" {
		t.Fatalf("empty batch: payload %x, err %v", empty, err)
	}
	if _, err := encodeBatch([]Mutation{{Op: "drop-table"}}); err == nil {
		t.Fatal("encoded an unknown op")
	}
}

// TestDecodeBatchRejectsUnbackedCount: a payload claiming 50 million
// mutations in 4 bytes fails without allocating for them.
func TestDecodeBatchRejectsUnbackedCount(t *testing.T) {
	payload := binary.LittleEndian.AppendUint32(nil, 50_000_000)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := decodeBatch(payload)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("decoded a batch of 50 000 000 mutations from 4 bytes")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<10 {
		t.Fatalf("rejecting it allocated %d bytes", alloc)
	}
}

// FuzzDecodeBatch: arbitrary bytes must fail decodeBatch with an error —
// never panic, nor size an allocation by a count the payload cannot back
// (a mutation takes at least 5 bytes) — and what it accepts re-encodes to
// a payload that decodes and encodes to the same bytes.
func FuzzDecodeBatch(f *testing.F) {
	w := newShapedWriter(1, basePGD(f, 1))
	for range 4 {
		payload, err := encodeBatch(w.batch())
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	f.Add(binary.LittleEndian.AppendUint32(nil, 50_000_000))
	f.Fuzz(func(t *testing.T, payload []byte) {
		ms, err := decodeBatch(payload)
		if err != nil {
			return
		}
		if cap(ms) > len(payload)/5 {
			t.Fatalf("%d-byte payload: capacity %d", len(payload), cap(ms))
		}
		again, err := encodeBatch(ms)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		back, err := decodeBatch(again)
		if err != nil {
			t.Fatalf("decode the re-encoded payload: %v", err)
		}
		third, err := encodeBatch(back)
		if err != nil || !bytes.Equal(third, again) {
			t.Fatalf("re-encoded payload does not round-trip (err %v)", err)
		}
	})
}
