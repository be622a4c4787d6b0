package binio

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.U8(7)
	w.U32(1 << 30)
	w.U64(1 << 60)
	w.F64(math.Pi)
	w.Str("hello, snapshot")
	w.Str("")
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}

	r := NewReader(&buf)
	if v := r.U8(); v != 7 {
		t.Errorf("U8 = %d", v)
	}
	if v := r.U32(); v != 1<<30 {
		t.Errorf("U32 = %d", v)
	}
	if v := r.U64(); v != 1<<60 {
		t.Errorf("U64 = %d", v)
	}
	if v := r.F64(); v != math.Pi {
		t.Errorf("F64 = %v", v)
	}
	if v := r.Str(); v != "hello, snapshot" {
		t.Errorf("Str = %q", v)
	}
	if v := r.Str(); v != "" {
		t.Errorf("empty Str = %q", v)
	}
	if err := r.Err(); err != nil {
		t.Fatalf("Err: %v", err)
	}
}

func TestReaderErrorSticks(t *testing.T) {
	r := NewReader(strings.NewReader("ab"))
	r.U64() // short read
	if r.Err() == nil {
		t.Fatal("short read not detected")
	}
	// Subsequent reads are no-ops returning zeros.
	if v := r.U32(); v != 0 {
		t.Errorf("post-error U32 = %d", v)
	}
	if v := r.Str(); v != "" {
		t.Errorf("post-error Str = %q", v)
	}
}

func TestOversizedString(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.U32(MaxStringLen + 1)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	buf.Write(make([]byte, 16))
	r := NewReader(&buf)
	if r.Str(); r.Err() == nil {
		t.Error("oversized string accepted")
	}
}

// Property: any sequence of (u32, f64, str) writes reads back identically.
func TestRoundTripProperty(t *testing.T) {
	f := func(us []uint32, fs []float64, ss []string) bool {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for _, u := range us {
			w.U32(u)
		}
		for _, v := range fs {
			w.F64(v)
		}
		for _, s := range ss {
			if len(s) > MaxStringLen {
				s = s[:MaxStringLen]
			}
			w.Str(s)
		}
		if w.Flush() != nil {
			return false
		}
		r := NewReader(&buf)
		for _, u := range us {
			if r.U32() != u {
				return false
			}
		}
		for _, v := range fs {
			got := r.F64()
			if got != v && !(math.IsNaN(got) && math.IsNaN(v)) {
				return false
			}
		}
		for _, s := range ss {
			if len(s) > MaxStringLen {
				s = s[:MaxStringLen]
			}
			if r.Str() != s {
				return false
			}
		}
		return r.Err() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
