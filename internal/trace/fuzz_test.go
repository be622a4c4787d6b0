package trace

import (
	"net/http"
	"testing"
)

// FuzzTraceparent feeds arbitrary header values to the traceparent parser.
// The header arrives from untrusted clients, so the parser must never
// panic, and whatever it accepts must carry non-zero ids and survive an
// Inject/Extract round trip unchanged.
func FuzzTraceparent(f *testing.F) {
	f.Add("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	f.Add("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00")
	f.Add("01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra")
	for _, v := range malformedTraceparents {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v string) {
		sc, ok := ParseTraceparent(v)
		if !ok {
			return
		}
		if sc.TraceID.IsZero() || sc.SpanID.IsZero() {
			t.Fatalf("ParseTraceparent(%q) accepted zero ids: %+v", v, sc)
		}
		h := make(http.Header)
		Inject(sc, h)
		again, ok := Extract(h)
		if !ok || again != sc {
			t.Fatalf("ParseTraceparent(%q) = %+v; re-injected %q parses to %+v, %v",
				v, sc, h.Get(Header), again, ok)
		}
	})
}
