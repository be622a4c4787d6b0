package query

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/prob"
)

// Parse reads the simple text query DSL used by the CLIs:
//
//	# comment
//	node A r
//	node B a
//	node C i
//	edge A B
//	edge B C
//
// Node names are arbitrary identifiers; labels must be in the alphabet.
func Parse(r io.Reader, a *prob.Alphabet) (*Query, error) {
	q := New()
	names := make(map[string]NodeID)
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "node":
			if len(fields) != 3 {
				return nil, fmt.Errorf("query: line %d: want 'node NAME LABEL'", lineNo)
			}
			name, label := fields[1], fields[2]
			if _, dup := names[name]; dup {
				return nil, fmt.Errorf("query: line %d: duplicate node %q", lineNo, name)
			}
			l := a.ID(label)
			if l == prob.NoLabel {
				return nil, fmt.Errorf("query: line %d: unknown label %q", lineNo, label)
			}
			names[name] = q.AddNode(l)
		case "edge":
			if len(fields) != 3 {
				return nil, fmt.Errorf("query: line %d: want 'edge NAME NAME'", lineNo)
			}
			na, ok := names[fields[1]]
			if !ok {
				return nil, fmt.Errorf("query: line %d: unknown node %q", lineNo, fields[1])
			}
			nb, ok := names[fields[2]]
			if !ok {
				return nil, fmt.Errorf("query: line %d: unknown node %q", lineNo, fields[2])
			}
			if err := q.AddEdge(na, nb); err != nil {
				return nil, fmt.Errorf("query: line %d: %w", lineNo, err)
			}
		default:
			return nil, fmt.Errorf("query: line %d: unknown directive %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("query: %w", err)
	}
	if q.NumNodes() == 0 {
		return nil, fmt.Errorf("query: empty query")
	}
	return q, nil
}

// ParseString is Parse over a string.
func ParseString(s string, a *prob.Alphabet) (*Query, error) {
	return Parse(strings.NewReader(s), a)
}

// Format renders the query in the DSL, with nodes named n0, n1, ….
func (q *Query) Format(a *prob.Alphabet) string {
	var b strings.Builder
	for i := 0; i < q.NumNodes(); i++ {
		fmt.Fprintf(&b, "node n%d %s\n", i, a.Name(q.labels[i]))
	}
	edges := q.Edges()
	sort.Slice(edges, func(i, j int) bool {
		if edges[i][0] != edges[j][0] {
			return edges[i][0] < edges[j][0]
		}
		return edges[i][1] < edges[j][1]
	})
	for _, e := range edges {
		fmt.Fprintf(&b, "edge n%d n%d\n", e[0], e[1])
	}
	return b.String()
}

// Fingerprint is the query's identity for caching: what Format renders —
// the node labels in node order, then the sorted edges — as uvarints. Texts
// that differ only in node names, layout, comments or edge order share it.
// It is self-delimiting, so a key may append further fields to it.
func Fingerprint(q *Query) string {
	var b strings.Builder
	b.Grow(2 + len(q.labels) + 2*q.nEdges) // exact while ids and labels are below 128
	var tmp [binary.MaxVarintLen64]byte
	put := func(v int) { b.Write(binary.AppendUvarint(tmp[:0], uint64(v))) }
	put(len(q.labels))
	for _, l := range q.labels {
		put(int(l))
	}
	put(q.nEdges)
	for a, nbs := range q.adj {
		for _, n := range nbs {
			if a < int(n) {
				put(a)
				put(int(n))
			}
		}
	}
	return b.String()
}
