package query

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"strconv"
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

// Format renders the query in the DSL, with nodes named n0, n1, …, and the
// edges in Edges order.
func (q *Query) Format(a *prob.Alphabet) string {
	var b strings.Builder
	size := 17 * q.nEdges // enough while node ids have at most four digits
	for _, l := range q.labels {
		size += 12 + len(a.Name(l))
	}
	b.Grow(size)
	var tmp [20]byte
	num := func(v int) { b.Write(strconv.AppendInt(tmp[:0], int64(v), 10)) }
	for i, l := range q.labels {
		b.WriteString("node n")
		num(i)
		b.WriteByte(' ')
		b.WriteString(a.Name(l))
		b.WriteByte('\n')
	}
	for x, nbs := range q.adj {
		for _, y := range nbs {
			if NodeID(x) < y {
				b.WriteString("edge n")
				num(x)
				b.WriteString(" n")
				num(int(y))
				b.WriteByte('\n')
			}
		}
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
