package query

import (
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/prob"
)

// FuzzParseString feeds arbitrary byte strings through the query DSL parser
// with go's native fuzzer. The parser fronts the HTTP /match surface, so it
// must never panic and never hand back a query that violates its own
// invariants — malformed input returns an error, nothing else. The seed
// corpus covers the DSL forms used by examples/ plus known edge shapes.
func FuzzParseString(f *testing.F) {
	seeds := []string{
		// examples/quickstart
		"node q1 r\nnode q2 a\nnode q3 i\nedge q1 q2\nedge q2 q3\n",
		// examples/expertfinder (triangle)
		"node prof academia\nnode researcher lab\nnode engineer industry\n" +
			"edge prof researcher\nedge researcher engineer\nedge engineer prof\n",
		// comments, blank lines, weird spacing
		"# comment\n\nnode A r\n\tnode B a\nedge A B\n",
		// error shapes
		"",
		"node A\n",
		"node A r extra\n",
		"node A zzz\n",
		"node A r\nnode A r\n",
		"edge A B\n",
		"node A r\nedge A A\n",
		"node A r\nnode B a\nedge A B\nedge A B\n",
		"bogus directive\n",
		"node \x00 r\n",
		strings.Repeat("node A r\n", 3),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	alpha := prob.MustAlphabet("r", "a", "i")
	f.Fuzz(func(t *testing.T, src string) {
		q, err := ParseString(src, alpha)
		if err != nil {
			if q != nil {
				t.Fatalf("error %v returned with non-nil query", err)
			}
			return
		}
		// A successful parse must uphold the Query invariants the matcher
		// relies on.
		if q.NumNodes() == 0 {
			t.Fatal("parsed query with zero nodes")
		}
		for n := 0; n < q.NumNodes(); n++ {
			if l := q.Label(NodeID(n)); alpha.Name(l) == "" {
				t.Fatalf("node %d has label %d outside the alphabet", n, l)
			}
		}
		for _, e := range q.Edges() {
			if e[0] == e[1] {
				t.Fatalf("self loop %v survived parsing", e)
			}
			if int(e[0]) >= q.NumNodes() || int(e[1]) >= q.NumNodes() {
				t.Fatalf("edge %v references missing node", e)
			}
		}
		if err := q.Validate(alpha); err != nil {
			t.Fatalf("parsed query fails Validate: %v", err)
		}
		// Round trip: formatting a parsed query must reparse to the same
		// shape (only for valid UTF-8 input; Format always emits clean DSL).
		if utf8.ValidString(src) {
			q2, err := ParseString(q.Format(alpha), alpha)
			if err != nil {
				t.Fatalf("Format output does not reparse: %v", err)
			}
			if q2.NumNodes() != q.NumNodes() || q2.NumEdges() != q.NumEdges() {
				t.Fatalf("round trip changed shape: %d/%d nodes, %d/%d edges",
					q.NumNodes(), q2.NumNodes(), q.NumEdges(), q2.NumEdges())
			}
			// The cache identity is the canonical text's identity.
			if Fingerprint(q2) != Fingerprint(q) {
				t.Fatalf("Fingerprint changed across Format/ParseString:\n%s", q.Format(alpha))
			}
		}
	})
}
