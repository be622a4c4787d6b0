package kpartite

// Filled reports whether a keyed graph stores the factors of row i of
// partition p, which FillFactors does on the row's first visit.
func (kg *Graph) Filled(p, i int) bool { return kg.parts[p].slot[i] != 0 }
