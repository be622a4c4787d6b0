// Package trace is a dependency-free distributed-tracing kernel for the
// serving tier: 128-bit trace ids, 64-bit span ids, W3C trace-context
// (traceparent) propagation, head-based sampling, a bounded in-process
// ring recorder backing GET /debug/trace/{id}, and NDJSON span export.
//
// The design optimises for the disabled path: a nil *Tracer is a valid
// tracer, every method on a nil *Span is a no-op, and the sampling
// decision is made once at the root (then inherited across processes via
// the traceparent sampled flag), so an unsampled request allocates a few
// small Span structs and nothing else.
package trace

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"io"
	"math/bits"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Header is the W3C trace-context propagation header.
const Header = "traceparent"

// TraceID is a 128-bit trace identifier (zero = invalid).
type TraceID [16]byte

// SpanID is a 64-bit span identifier (zero = invalid).
type SpanID [8]byte

func (t TraceID) IsZero() bool   { return t == TraceID{} }
func (s SpanID) IsZero() bool    { return s == SpanID{} }
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }
func (s SpanID) String() string  { return hex.EncodeToString(s[:]) }

// SpanContext is the propagated part of a span: enough to continue the
// trace in another process and to inherit its sampling decision.
type SpanContext struct {
	TraceID TraceID
	SpanID  SpanID
	Sampled bool
}

// Valid reports whether the context identifies a span.
func (sc SpanContext) Valid() bool { return !sc.TraceID.IsZero() && !sc.SpanID.IsZero() }

// Inject writes sc as a traceparent header (version 00). A zero context
// writes nothing.
func Inject(sc SpanContext, h http.Header) {
	if !sc.Valid() {
		return
	}
	flags := "00"
	if sc.Sampled {
		flags = "01"
	}
	h.Set(Header, "00-"+sc.TraceID.String()+"-"+sc.SpanID.String()+"-"+flags)
}

// Extract parses a traceparent header. It accepts any non-ff version with
// the version-00 field layout and rejects malformed or all-zero ids.
func Extract(h http.Header) (SpanContext, bool) {
	return ParseTraceparent(h.Get(Header))
}

// ParseTraceparent parses a single traceparent value. Every field is
// lowercase hex, as the W3C spec requires: an uppercase id would be
// re-injected lowercase and stop matching the caller's. Version 00 is
// exactly 55 bytes; a later version may append dash-separated fields.
func ParseTraceparent(v string) (SpanContext, bool) {
	// version(2) - traceid(32) - spanid(16) - flags(2)
	if len(v) < 55 || v[2] != '-' || v[35] != '-' || v[52] != '-' {
		return SpanContext{}, false
	}
	ver := v[0:2]
	if ver == "ff" || !lowerHex(ver) || !lowerHex(v[3:35]) || !lowerHex(v[36:52]) || !lowerHex(v[53:55]) {
		return SpanContext{}, false
	}
	if len(v) > 55 && (ver == "00" || v[55] != '-') {
		return SpanContext{}, false
	}
	var sc SpanContext
	_, _ = hex.Decode(sc.TraceID[:], []byte(v[3:35]))
	_, _ = hex.Decode(sc.SpanID[:], []byte(v[36:52]))
	if !sc.Valid() {
		return SpanContext{}, false
	}
	var flags [1]byte
	_, _ = hex.Decode(flags[:], []byte(v[53:55]))
	sc.Sampled = flags[0]&1 == 1
	return sc, true
}

// lowerHex reports whether s is made of lowercase hex digits only.
func lowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// SpanData is one finished span, as recorded in the ring and exported as
// an NDJSON line ({"span": {...}}).
type SpanData struct {
	TraceID   string            `json:"trace_id"`
	SpanID    string            `json:"span_id"`
	ParentID  string            `json:"parent_id,omitempty"`
	Name      string            `json:"name"`
	Service   string            `json:"service,omitempty"`
	StartNano int64             `json:"start_unix_nano"`
	Micros    float64           `json:"duration_us"`
	Attrs     map[string]string `json:"attrs,omitempty"`
}

// Stats is a snapshot of the tracer's monotonic counters, exported as
// peg_trace_* metric families.
type Stats struct {
	Recorded  uint64 // spans stored in the ring
	Dropped   uint64 // ring entries overwritten before being read
	Exported  uint64 // spans written as NDJSON lines
	Sampled   uint64 // new roots the head sampler kept
	Unsampled uint64 // new roots the head sampler discarded
	Inherited uint64 // remote contexts continued (sampling decision reused)
}

// Config configures a Tracer.
type Config struct {
	Service  string    // attached to every span (e.g. "pegserve")
	Sample   float64   // head-sampling probability for new roots, clamped to [0,1]
	Export   io.Writer // optional NDJSON sink for finished spans
	RingSize int       // finished spans retained for /debug/trace (0 = 4096)
}

// Tracer records spans. The zero case — a nil *Tracer — is valid and
// makes every operation a no-op.
type Tracer struct {
	service string
	sample  float64
	export  io.Writer
	exMu    sync.Mutex
	ring    ring

	rngMu sync.Mutex
	rng   pcgPair

	recorded, dropped, exported   atomic.Uint64
	sampled, unsampled, inherited atomic.Uint64
}

// New builds a Tracer. Sample is clamped to [0,1].
func New(cfg Config) *Tracer {
	if cfg.Sample < 0 {
		cfg.Sample = 0
	}
	if cfg.Sample > 1 {
		cfg.Sample = 1
	}
	n := cfg.RingSize
	if n <= 0 {
		n = 4096
	}
	t := &Tracer{service: cfg.Service, sample: cfg.Sample, export: cfg.Export}
	t.ring.buf = make([]SpanData, n)
	var seed [16]byte
	if _, err := rand.Read(seed[:]); err != nil {
		binary.LittleEndian.PutUint64(seed[:8], uint64(time.Now().UnixNano()))
		binary.LittleEndian.PutUint64(seed[8:], uint64(time.Now().UnixNano())^0x9e3779b97f4a7c15)
	}
	t.rng.a = binary.LittleEndian.Uint64(seed[:8]) | 1
	t.rng.b = binary.LittleEndian.Uint64(seed[8:]) | 1
	return t
}

// pcgPair is a tiny splitmix-style generator: crypto-seeded once, then
// cheap per-id. Trace ids need uniqueness, not unpredictability.
type pcgPair struct{ a, b uint64 }

func (p *pcgPair) next() uint64 {
	p.a += 0x9e3779b97f4a7c15
	z := p.a
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= p.b
	p.b = bits.RotateLeft64(p.b, 13) ^ z
	return z ^ (z >> 31)
}

func (t *Tracer) newIDs() (TraceID, SpanID) {
	t.rngMu.Lock()
	defer t.rngMu.Unlock()
	var tid TraceID
	var sid SpanID
	for tid.IsZero() {
		binary.BigEndian.PutUint64(tid[:8], t.rng.next())
		binary.BigEndian.PutUint64(tid[8:], t.rng.next())
	}
	for sid.IsZero() {
		binary.BigEndian.PutUint64(sid[:], t.rng.next())
	}
	return tid, sid
}

func (t *Tracer) newSpanID() SpanID {
	t.rngMu.Lock()
	defer t.rngMu.Unlock()
	var sid SpanID
	for sid.IsZero() {
		binary.BigEndian.PutUint64(sid[:], t.rng.next())
	}
	return sid
}

// Span is one in-flight operation. All methods are nil-safe; a Span must
// be mutated by one goroutine at a time (the usual handler-owns-it
// discipline).
type Span struct {
	tr     *Tracer
	sc     SpanContext
	parent SpanID
	name   string
	start  time.Time
	attrs  map[string]string
}

type ctxKey struct{}
type remoteKey struct{}

// ContextWithRemote stashes an extracted SpanContext so the next
// StartSpan continues the remote trace instead of opening a new root.
func ContextWithRemote(ctx context.Context, sc SpanContext) context.Context {
	if !sc.Valid() {
		return ctx
	}
	return context.WithValue(ctx, remoteKey{}, sc)
}

// SpanFromContext returns the current span, or nil.
func SpanFromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(ctxKey{}).(*Span)
	return sp
}

// StartSpan opens a span. Parentage, in priority order: the span already
// in ctx (local child), a SpanContext stored by ContextWithRemote
// (cross-process continuation, sampling inherited), else a new root
// (head sampling applies). Returns ctx unchanged when t is nil.
func (t *Tracer) StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	sp := &Span{tr: t, name: name, start: time.Now()}
	if parent := SpanFromContext(ctx); parent != nil {
		sp.sc = SpanContext{TraceID: parent.sc.TraceID, SpanID: t.newSpanID(), Sampled: parent.sc.Sampled}
		sp.parent = parent.sc.SpanID
	} else if rsc, ok := ctx.Value(remoteKey{}).(SpanContext); ok {
		sp.sc = SpanContext{TraceID: rsc.TraceID, SpanID: t.newSpanID(), Sampled: rsc.Sampled}
		sp.parent = rsc.SpanID
		t.inherited.Add(1)
	} else {
		tid, sid := t.newIDs()
		sp.sc = SpanContext{TraceID: tid, SpanID: sid, Sampled: t.decide()}
		if sp.sc.Sampled {
			t.sampled.Add(1)
		} else {
			t.unsampled.Add(1)
		}
	}
	return context.WithValue(ctx, ctxKey{}, sp), sp
}

func (t *Tracer) decide() bool {
	if t.sample >= 1 {
		return true
	}
	if t.sample <= 0 {
		return false
	}
	t.rngMu.Lock()
	v := t.rng.next()
	t.rngMu.Unlock()
	return float64(v>>11)/(1<<53) < t.sample
}

// Context returns the span's propagation context (zero for a nil span).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.sc
}

// TraceID returns the hex trace id, or "" for a nil span.
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.sc.TraceID.String()
}

// Sampled reports whether the span will be recorded on End.
func (s *Span) Sampled() bool { return s != nil && s.sc.Sampled }

// SetAttr attaches a string attribute. No-op on nil or unsampled spans.
func (s *Span) SetAttr(k, v string) {
	if s == nil || !s.sc.Sampled {
		return
	}
	if s.attrs == nil {
		s.attrs = make(map[string]string, 4)
	}
	s.attrs[k] = v
}

// End finishes the span: records it into the ring and exports it as an
// NDJSON line, if sampled.
func (s *Span) End() {
	if s == nil || !s.sc.Sampled {
		return
	}
	s.tr.record(SpanData{
		TraceID:   s.sc.TraceID.String(),
		SpanID:    s.sc.SpanID.String(),
		ParentID:  parentHex(s.parent),
		Name:      s.name,
		Service:   s.tr.service,
		StartNano: s.start.UnixNano(),
		Micros:    float64(time.Since(s.start).Nanoseconds()) / 1e3,
		Attrs:     s.attrs,
	})
}

func parentHex(p SpanID) string {
	if p.IsZero() {
		return ""
	}
	return p.String()
}

// RecordSpan emits a retroactive child span of the span in ctx with an
// explicit start and duration — how already-timed executor stage rows
// become spans without re-instrumenting the executor.
func (t *Tracer) RecordSpan(ctx context.Context, name string, start time.Time, d time.Duration, attrs map[string]string) {
	if t == nil {
		return
	}
	parent := SpanFromContext(ctx)
	if parent == nil || !parent.sc.Sampled {
		return
	}
	t.record(SpanData{
		TraceID:   parent.sc.TraceID.String(),
		SpanID:    t.newSpanID().String(),
		ParentID:  parent.sc.SpanID.String(),
		Name:      name,
		Service:   t.service,
		StartNano: start.UnixNano(),
		Micros:    float64(d.Nanoseconds()) / 1e3,
		Attrs:     attrs,
	})
}

func (t *Tracer) record(sd SpanData) {
	if t.ring.add(sd) {
		t.dropped.Add(1)
	}
	t.recorded.Add(1)
	if t.export != nil {
		line, err := json.Marshal(struct {
			Span SpanData `json:"span"`
		}{sd})
		if err == nil {
			t.exMu.Lock()
			_, werr := t.export.Write(append(line, '\n'))
			t.exMu.Unlock()
			if werr == nil {
				t.exported.Add(1)
			}
		}
	}
}

// Collect returns the ring's spans for a trace id, oldest first.
func (t *Tracer) Collect(traceID string) []SpanData {
	if t == nil {
		return nil
	}
	return t.ring.collect(traceID)
}

// Dump returns up to max of the most recent finished spans.
func (t *Tracer) Dump(max int) []SpanData {
	if t == nil {
		return nil
	}
	return t.ring.dump(max)
}

// Stats snapshots the tracer's counters (zero for a nil tracer).
func (t *Tracer) Stats() Stats {
	if t == nil {
		return Stats{}
	}
	return Stats{
		Recorded:  t.recorded.Load(),
		Dropped:   t.dropped.Load(),
		Exported:  t.exported.Load(),
		Sampled:   t.sampled.Load(),
		Unsampled: t.unsampled.Load(),
		Inherited: t.inherited.Load(),
	}
}

// ring is a fixed-size overwrite-oldest buffer of finished spans.
type ring struct {
	mu   sync.Mutex
	buf  []SpanData
	next int
	full bool
}

func (r *ring) add(sd SpanData) (overwrote bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	overwrote = r.full
	r.buf[r.next] = sd
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
	return overwrote
}

// collect returns spans matching traceID in insertion order.
func (r *ring) collect(traceID string) []SpanData {
	var out []SpanData
	r.mu.Lock()
	defer r.mu.Unlock()
	r.scan(func(sd SpanData) {
		if sd.TraceID == traceID {
			out = append(out, sd)
		}
	})
	return out
}

func (r *ring) dump(max int) []SpanData {
	var out []SpanData
	r.mu.Lock()
	defer r.mu.Unlock()
	r.scan(func(sd SpanData) { out = append(out, sd) })
	if max > 0 && len(out) > max {
		out = out[len(out)-max:]
	}
	return out
}

// scan visits live entries oldest-first. Caller holds r.mu.
func (r *ring) scan(f func(SpanData)) {
	if r.full {
		for i := r.next; i < len(r.buf); i++ {
			f(r.buf[i])
		}
	}
	for i := 0; i < r.next; i++ {
		f(r.buf[i])
	}
}
