// Package sqlbase is the stand-in for the paper's MySQL baseline (Section
// 6.2.1): a miniature relational engine that evaluates subgraph queries the
// way a direct SQL translation would — a nested-loop join over a
// NodeLabels(node, label, prob) table (with a hash index on label) and an
// Edges(a, b, prob) table (with a hash index on the key), applying the
// probability threshold and identity-legality predicates only on complete
// join rows. There is no probabilistic pruning, no path index, and no
// search-space reduction, which is exactly why it explodes combinatorially
// on larger graphs; benchmarks run it under a context deadline, mirroring
// the paper's 15-minute cap.
package sqlbase

import (
	"context"
	"sort"

	"repro/internal/entity"
	"repro/internal/join"
	"repro/internal/prob"
	"repro/internal/query"
	"repro/internal/refgraph"
)

// DB holds the relational projection of a PEG: the label and edge "tables"
// with their hash indexes.
type DB struct {
	g *entity.Graph
	// byLabel is the hash index on NodeLabels.label: the matching node rows.
	byLabel [][]entity.ID
}

// NewDB loads the PEG into relational tables.
func NewDB(g *entity.Graph) *DB {
	db := &DB{g: g, byLabel: make([][]entity.ID, g.NumLabels())}
	for v := 0; v < g.NumNodes(); v++ {
		for _, l := range g.Labels(entity.ID(v)) {
			db.byLabel[l] = append(db.byLabel[l], entity.ID(v))
		}
	}
	return db
}

// Query evaluates the subgraph query as a nested-loop join in query-node
// order (the plan a naive SQL translation produces), filtering complete rows
// by probability and identity legality. It honors ctx cancellation so
// callers can impose the evaluation time cap.
func (db *DB) Query(ctx context.Context, q *query.Query, alpha float64) ([]join.Match, error) {
	n := q.NumNodes()
	mapping := make([]entity.ID, n)
	var out []join.Match
	var steps int

	var rec func(i int) error
	rec = func(i int) error {
		steps++
		if steps%4096 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if i == n {
			if m, ok := db.finalRow(q, mapping, alpha); ok {
				out = append(out, m)
			}
			return nil
		}
		qn := query.NodeID(i)
		for _, v := range db.byLabel[q.Label(qn)] {
			// Join predicates to previously bound relations: edge existence.
			ok := true
			for _, nb := range q.Neighbors(qn) {
				if nb < qn {
					if _, has := db.g.EdgeBetween(v, mapping[nb]); !has {
						ok = false
						break
					}
				}
			}
			if !ok {
				continue
			}
			// SQL DISTINCT on node ids (injectivity).
			for j := 0; j < i; j++ {
				if mapping[j] == v {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			mapping[i] = v
			if err := rec(i + 1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(0); err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Mapping, out[j].Mapping
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return out, nil
}

// finalRow applies the WHERE clause a SQL translation evaluates on the
// complete row: the probability product and the reference-disjointness
// (identity legality) predicates.
func (db *DB) finalRow(q *query.Query, mapping []entity.ID, alpha float64) (join.Match, bool) {
	seen := make(map[refgraph.RefID]struct{}, len(mapping)*2)
	for _, v := range mapping {
		for _, r := range db.g.Refs(v) {
			if _, dup := seen[r]; dup {
				return join.Match{}, false
			}
			seen[r] = struct{}{}
		}
	}
	prle := 1.0
	nodes := make([]entity.ID, len(mapping))
	for i, v := range mapping {
		nodes[i] = v
		prle *= db.g.PrLabel(v, q.Label(query.NodeID(i)))
	}
	for _, e := range q.Edges() {
		ep, ok := db.g.EdgeBetween(mapping[e[0]], mapping[e[1]])
		if !ok {
			return join.Match{}, false
		}
		prle *= db.g.PrEdge(ep, q.Label(e[0]), q.Label(e[1]))
	}
	prn := db.g.Prn(nodes)
	if !prob.Clears(prle*prn, alpha) {
		return join.Match{}, false
	}
	cp := make([]entity.ID, len(mapping))
	copy(cp, mapping)
	return join.Match{Mapping: cp, Prle: prle, Prn: prn}, true
}
