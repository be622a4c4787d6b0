package trace

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceparentRoundTrip(t *testing.T) {
	tr := New(Config{Service: "test", Sample: 1})
	_, sp := tr.StartSpan(context.Background(), "root")
	h := make(http.Header)
	Inject(sp.Context(), h)
	v := h.Get(Header)
	if len(v) != 55 || !strings.HasPrefix(v, "00-") || !strings.HasSuffix(v, "-01") {
		t.Fatalf("bad traceparent %q", v)
	}
	sc, ok := Extract(h)
	if !ok {
		t.Fatalf("Extract failed for %q", v)
	}
	if sc != sp.Context() {
		t.Errorf("round trip: got %+v want %+v", sc, sp.Context())
	}
}

// malformedTraceparents are values the W3C spec says to ignore.
var malformedTraceparents = []string{
	"",
	"00",
	"00-abc-def-01",
	"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // version ff reserved
	"00-00000000000000000000000000000000-00f067aa0ba902b7-01", // zero trace id
	"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", // zero span id
	"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-zz", // bad flags
	"00-4bf92f3577b34da6a3ce929d0e0e47XX-00f067aa0ba902b7-01", // bad hex
	"00-4bf92f3577b34da6a3ce929d0e0e4736_00f067aa0ba902b7-01", // bad separator
	"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01extra",
	"zz-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",       // version not hex
	"00-4BF92F3577B34DA6A3CE929D0E0E4736-00F067AA0BA902B7-01",       // uppercase ids
	"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra", // version 00 is exactly 55 bytes
}

func TestTraceparentMalformed(t *testing.T) {
	bad := malformedTraceparents
	for _, v := range bad {
		if _, ok := ParseTraceparent(v); ok {
			t.Errorf("ParseTraceparent(%q) accepted, want reject", v)
		}
	}
	// A longer version-00-compatible value with a dash-separated extra
	// field is accepted per the spec's forward-compatibility rule.
	if _, ok := ParseTraceparent("01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra"); !ok {
		t.Error("future version with extra dash-separated field rejected")
	}
}

func TestSamplerExtremes(t *testing.T) {
	always := New(Config{Sample: 1})
	never := New(Config{Sample: 0})
	for i := 0; i < 50; i++ {
		if _, sp := always.StartSpan(context.Background(), "r"); !sp.Sampled() {
			t.Fatal("sample=1 produced unsampled root")
		}
		if _, sp := never.StartSpan(context.Background(), "r"); sp.Sampled() {
			t.Fatal("sample=0 produced sampled root")
		}
	}
	st := always.Stats()
	if st.Sampled != 50 || st.Unsampled != 0 {
		t.Errorf("always stats = %+v", st)
	}
	if st := never.Stats(); st.Unsampled != 50 {
		t.Errorf("never stats = %+v", st)
	}
}

func TestSamplingInheritedFromRemote(t *testing.T) {
	// A tracer that would locally sample nothing still records spans for
	// a remote context whose sampled flag is set — the head decision is
	// made once, at the origin.
	tr := New(Config{Sample: 0})
	remote := SpanContext{}
	copy(remote.TraceID[:], bytes.Repeat([]byte{0xab}, 16))
	copy(remote.SpanID[:], bytes.Repeat([]byte{0xcd}, 8))
	remote.Sampled = true
	ctx := ContextWithRemote(context.Background(), remote)
	ctx, sp := tr.StartSpan(ctx, "continued")
	if !sp.Sampled() {
		t.Fatal("sampled remote context not inherited")
	}
	if got := sp.Context().TraceID; got != remote.TraceID {
		t.Errorf("trace id not continued: %v", got)
	}
	_, child := tr.StartSpan(ctx, "child")
	if child.Context().TraceID != remote.TraceID || child.parent != sp.sc.SpanID {
		t.Error("child does not chain to local parent")
	}
	child.End()
	sp.End()
	spans := tr.Collect(remote.TraceID.String())
	if len(spans) != 2 {
		t.Fatalf("collected %d spans, want 2", len(spans))
	}
	if spans[0].ParentID != sp.sc.SpanID.String() {
		t.Errorf("child parent = %q, want %q", spans[0].ParentID, sp.sc.SpanID)
	}
	if spans[1].ParentID != remote.SpanID.String() {
		t.Errorf("root parent = %q, want remote %q", spans[1].ParentID, remote.SpanID)
	}
	if st := tr.Stats(); st.Inherited != 1 || st.Recorded != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestNilTracerAndSpanAreNoOps(t *testing.T) {
	var tr *Tracer
	ctx, sp := tr.StartSpan(context.Background(), "x")
	if sp != nil {
		t.Fatal("nil tracer returned a span")
	}
	sp.SetAttr("k", "v")
	sp.End()
	if sp.TraceID() != "" || sp.Sampled() {
		t.Error("nil span leaked state")
	}
	tr.RecordSpan(ctx, "stage", time.Now(), time.Millisecond, nil)
	if got := tr.Collect("deadbeef"); got != nil {
		t.Errorf("nil Collect = %v", got)
	}
	if got := tr.Stats(); got != (Stats{}) {
		t.Errorf("nil Stats = %+v", got)
	}
}

func TestUnsampledSpanPropagatesButRecordsNothing(t *testing.T) {
	tr := New(Config{Sample: 0})
	ctx, sp := tr.StartSpan(context.Background(), "root")
	if sp.Context().Valid() == false {
		t.Fatal("unsampled span must still carry a valid context for propagation")
	}
	h := make(http.Header)
	Inject(sp.Context(), h)
	if !strings.HasSuffix(h.Get(Header), "-00") {
		t.Errorf("unsampled flag not propagated: %q", h.Get(Header))
	}
	sp.SetAttr("k", "v")
	tr.RecordSpan(ctx, "stage", time.Now(), time.Millisecond, nil)
	sp.End()
	if st := tr.Stats(); st.Recorded != 0 {
		t.Errorf("unsampled request recorded %d spans", st.Recorded)
	}
}

func TestExportNDJSONShape(t *testing.T) {
	var buf bytes.Buffer
	tr := New(Config{Service: "svc", Sample: 1, Export: &buf})
	_, sp := tr.StartSpan(context.Background(), "op")
	sp.SetAttr("shard", "3")
	sp.End()
	var line struct {
		Span SpanData `json:"span"`
	}
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatalf("export line not JSON: %v (%q)", err, buf.String())
	}
	if line.Span.Name != "op" || line.Span.Service != "svc" || line.Span.Attrs["shard"] != "3" {
		t.Errorf("bad span line: %+v", line.Span)
	}
	if len(line.Span.TraceID) != 32 || len(line.Span.SpanID) != 16 {
		t.Errorf("id widths: trace %d span %d", len(line.Span.TraceID), len(line.Span.SpanID))
	}
	if st := tr.Stats(); st.Exported != 1 {
		t.Errorf("exported = %d", st.Exported)
	}
}

func TestRingOverflowDropsOldest(t *testing.T) {
	tr := New(Config{Sample: 1, RingSize: 8})
	ctx, root := tr.StartSpan(context.Background(), "root")
	for i := 0; i < 20; i++ {
		_, sp := tr.StartSpan(ctx, "child")
		sp.End()
	}
	root.End()
	spans := tr.Collect(root.TraceID())
	if len(spans) != 8 {
		t.Fatalf("ring kept %d spans, want 8", len(spans))
	}
	if spans[len(spans)-1].Name != "root" {
		t.Error("newest span missing from ring")
	}
	st := tr.Stats()
	if st.Recorded != 21 || st.Dropped != 13 {
		t.Errorf("stats = %+v, want 21 recorded / 13 dropped", st)
	}
	if got := tr.Dump(4); len(got) != 4 {
		t.Errorf("Dump(4) = %d spans", len(got))
	}
}

// TestRingConcurrentStress is the -race stress from the issue: hammer the
// recorder with concurrent record / export / collect / dump traffic.
func TestRingConcurrentStress(t *testing.T) {
	var buf bytes.Buffer // written under the tracer's export mutex
	tr := New(Config{Service: "stress", Sample: 1, RingSize: 64, Export: &buf})
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 8; g++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < 500; i++ {
				ctx, sp := tr.StartSpan(context.Background(), "root")
				_, c := tr.StartSpan(ctx, "child")
				c.SetAttr("i", "x")
				c.End()
				tr.RecordSpan(ctx, "stage", time.Now(), time.Microsecond, map[string]string{"s": "1"})
				sp.End()
			}
		}()
	}
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					tr.Dump(32)
					tr.Collect("0123456789abcdef0123456789abcdef")
					tr.Stats()
				}
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	st := tr.Stats()
	if want := uint64(8 * 500 * 3); st.Recorded != want {
		t.Errorf("recorded = %d, want %d", st.Recorded, want)
	}
	if st.Exported != st.Recorded {
		t.Errorf("exported = %d, recorded = %d", st.Exported, st.Recorded)
	}
}
