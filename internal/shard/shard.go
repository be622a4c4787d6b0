// Package shard implements the cluster tier's offline half: a
// linkage-closure partitioner that splits one PGD into N independent shard
// PGDs, builds each shard's entity graph and path index, and publishes the
// result through a crash-safe JSON manifest catalog (see manifest.go).
//
// The partition unit is the linkage closure: the connected component of the
// union relation "two references share a reference set, or a reference edge
// joins them". A match traverses entity edges (reference edges at the PGD
// level) and its probability couples entities only through identity
// components (reference sets), so a closure is exactly the smallest unit
// that no connected query — and no Prn factor — can span. Splitting on
// closures is therefore lossless: every shard computes bitwise-identical
// probabilities for its matches, the global match set is the disjoint union
// of the per-shard sets, and a scatter-gather router can reassemble
// single-node results exactly (internal/router does).
//
// Closures are assigned to shards by hashed closure id with greedy size
// balancing: closures are visited in FNV-hash order (a deterministic
// shuffle, so adjacent-id closures spread out) and each goes to the
// currently lightest shard by reference count.
package shard

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/entity"
	"repro/internal/pathindex"
	"repro/internal/prob"
	"repro/internal/refgraph"
	"repro/internal/storage"
)

// Options configures a sharded build.
type Options struct {
	// Shards is the partition width (≥ 1).
	Shards int
	// Index holds the per-shard path-index construction parameters; Dir is
	// derived per shard and must be empty.
	Index pathindex.Options
	// Build configures per-shard entity graph construction.
	Build entity.BuildOptions
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

// Partition splits the PGD into per-shard PGDs plus the manifest skeleton
// (ownership lists filled in; generations and file paths left for Build).
// It fails when the PGD has fewer linkage closures than shards — an empty
// shard cannot serve — or when the merge functions are custom function
// values (they cannot be serialized into shard snapshots).
func Partition(d *refgraph.PGD, shards int) ([]*refgraph.PGD, *Manifest, error) {
	if shards < 1 {
		return nil, nil, fmt.Errorf("shard: need at least 1 shard, got %d", shards)
	}
	if err := d.Validate(); err != nil {
		return nil, nil, err
	}
	lm, em := d.MergeNames()
	if lm == prob.MergeCustom || em == prob.MergeCustom {
		return nil, nil, fmt.Errorf("shard: PGD uses custom merge functions; install named merges (SetNamedMerge) to shard it")
	}

	nRefs := d.NumRefs()
	refShard, closuresPer, nClosures := assignRefs(d, shards)
	shardRefs := make([][]int32, shards)
	for r := 0; r < nRefs; r++ {
		s := refShard[r]
		shardRefs[s] = append(shardRefs[s], int32(r)) // ascending: r ascends
	}
	for s := 0; s < shards; s++ {
		if len(shardRefs[s]) == 0 {
			return nil, nil, fmt.Errorf("shard: %d shards exceed the PGD's %d linkage closures; an empty shard cannot serve",
				shards, nClosures)
		}
	}

	m := &Manifest{
		Version:   ManifestVersion,
		Shards:    shards,
		TotalRefs: nRefs,
		TotalSets: d.NumSets(),
		Labels:    d.Alphabet().Names(),
		Entries:   make([]Entry, shards),
	}
	out := make([]*refgraph.PGD, shards)
	for s := 0; s < shards; s++ {
		sd, sets, err := extract(d, shardRefs[s], refShard, s)
		if err != nil {
			return nil, nil, err
		}
		out[s] = sd
		m.Entries[s] = Entry{
			Shard:    s,
			Closures: closuresPer[s],
			Refs:     shardRefs[s],
			Sets:     sets,
		}
	}
	return out, m, nil
}

// assignRefs computes the linkage closures and assigns each to a shard,
// returning the per-reference shard index, the closure count per shard, and
// the total closure count.
func assignRefs(d *refgraph.PGD, shards int) (refShard []int, closuresPer []int, nClosures int) {
	nRefs := d.NumRefs()
	parent := make([]int32, nRefs)
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b refgraph.RefID) {
		ra, rb := find(int32(a)), find(int32(b))
		if ra != rb {
			parent[ra] = rb
		}
	}
	for i := 0; i < d.NumSets(); i++ {
		ms := d.Set(refgraph.SetID(i)).Members
		for j := 1; j < len(ms); j++ {
			union(ms[0], ms[j])
		}
	}
	d.Edges(func(k refgraph.EdgeKey, _ refgraph.EdgeDist) bool {
		union(k.A, k.B)
		return true
	})

	// Closure id = minimum member ref. Size = member count.
	type closure struct {
		id   int32
		size int
		hash uint64
	}
	byRoot := make(map[int32]*closure)
	for r := 0; r < nRefs; r++ {
		root := find(int32(r))
		c := byRoot[root]
		if c == nil {
			c = &closure{id: int32(r)} // first member seen is the minimum: r ascends
			byRoot[root] = c
		}
		c.size++
	}
	cls := make([]*closure, 0, len(byRoot))
	for _, c := range byRoot {
		h := fnv.New64a()
		var b [4]byte
		b[0], b[1], b[2], b[3] = byte(c.id>>24), byte(c.id>>16), byte(c.id>>8), byte(c.id)
		h.Write(b[:])
		c.hash = h.Sum64()
		cls = append(cls, c)
	}
	// Hash order is a deterministic shuffle; the id tiebreak makes the full
	// order total even on hash collisions.
	sort.Slice(cls, func(i, j int) bool {
		if cls[i].hash != cls[j].hash {
			return cls[i].hash < cls[j].hash
		}
		return cls[i].id < cls[j].id
	})

	// Greedy balance: each closure goes to the lightest shard by ref count
	// (lowest index on ties).
	load := make([]int, shards)
	closureShard := make(map[int32]int, len(cls))
	for _, c := range cls {
		best := 0
		for s := 1; s < shards; s++ {
			if load[s] < load[best] {
				best = s
			}
		}
		closureShard[c.id] = best
		load[best] += c.size
	}

	refShard = make([]int, nRefs)
	closuresPer = make([]int, shards)
	for _, c := range byRoot {
		closuresPer[closureShard[c.id]]++
	}
	for r := 0; r < nRefs; r++ {
		refShard[r] = closureShard[byRoot[find(int32(r))].id]
	}
	return refShard, closuresPer, len(cls)
}

// extract builds shard s's PGD: the owned references in ascending global
// order, every edge and set among them (closure-complete by construction),
// and the owned global set ids ascending.
func extract(d *refgraph.PGD, refs []int32, refShard []int, s int) (*refgraph.PGD, []int32, error) {
	sd := refgraph.New(d.Alphabet())
	lm, em := d.MergeNames()
	if err := sd.SetNamedMerge(lm, em); err != nil {
		return nil, nil, fmt.Errorf("shard %d: %w", s, err)
	}
	local := make(map[refgraph.RefID]refgraph.RefID, len(refs))
	for i, r := range refs {
		gr := refgraph.RefID(r)
		lr := sd.AddReference(d.RefLabel(gr))
		local[gr] = lr
		if i != int(lr) {
			return nil, nil, fmt.Errorf("shard %d: local ref ids not dense", s)
		}
		if p := d.SingletonPrior(gr); p != 1 {
			if err := sd.SetSingletonPrior(lr, p); err != nil {
				return nil, nil, err
			}
		}
	}
	// Edges in canonical key order, so the shard snapshot is deterministic
	// and edge-merge arithmetic matches the global build bit for bit.
	type keyedEdge struct {
		k refgraph.EdgeKey
		e refgraph.EdgeDist
	}
	var edges []keyedEdge
	d.Edges(func(k refgraph.EdgeKey, e refgraph.EdgeDist) bool {
		if refShard[k.A] == s {
			edges = append(edges, keyedEdge{k, e})
		}
		return true
	})
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].k.A != edges[j].k.A {
			return edges[i].k.A < edges[j].k.A
		}
		return edges[i].k.B < edges[j].k.B
	})
	for _, ke := range edges {
		la, okA := local[ke.k.A]
		lb, okB := local[ke.k.B]
		if !okA || !okB {
			return nil, nil, fmt.Errorf("shard %d: edge (%d,%d) crosses the partition — closure computation broken",
				s, ke.k.A, ke.k.B)
		}
		if err := sd.AddEdge(la, lb, ke.e); err != nil {
			return nil, nil, err
		}
	}
	var sets []int32
	for i := 0; i < d.NumSets(); i++ {
		rs := d.Set(refgraph.SetID(i))
		if refShard[rs.Members[0]] != s {
			continue
		}
		ms := make([]refgraph.RefID, len(rs.Members))
		for j, gm := range rs.Members {
			lr, ok := local[gm]
			if !ok {
				return nil, nil, fmt.Errorf("shard %d: set %d crosses the partition — closure computation broken", s, i)
			}
			ms[j] = lr
		}
		if _, err := sd.AddReferenceSet(ms, rs.P); err != nil {
			return nil, nil, err
		}
		sets = append(sets, int32(i))
	}
	return sd, sets, nil
}

// Build runs the full offline sharding pipeline into dir: partition, write
// each shard's generation-1 PGD snapshot, build each shard's path index, and
// flip the manifest catalog in last. A crash mid-build leaves no manifest
// (or the previous one), so a router never sees a half-built catalog; every
// directory it makes is synced into its parent before the flip, so one it
// names survives a power cut.
func Build(ctx context.Context, d *refgraph.PGD, dir string, opt Options) (*Manifest, error) {
	return build(ctx, storage.OS, d, dir, opt)
}

func build(ctx context.Context, fs storage.FS, d *refgraph.PGD, dir string, opt Options) (*Manifest, error) {
	if opt.Index.Dir != "" {
		return nil, fmt.Errorf("shard: Options.Index.Dir must be empty (derived per shard)")
	}
	logf := opt.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	pgds, m, err := Partition(d, opt.Shards)
	if err != nil {
		return nil, err
	}
	if err := mkdirAll(fs, dir); err != nil {
		return nil, err
	}
	for s, sd := range pgds {
		e := &m.Entries[s]
		e.Generation = 1
		genDir := filepath.Join(fmt.Sprintf("shard-%02d", s), fmt.Sprintf("gen-%06d", e.Generation))
		e.PGD = filepath.Join(genDir, "pgd.snap")
		e.IndexDir = filepath.Join(genDir, "index")
		if err := mkdirAll(fs, filepath.Join(dir, e.IndexDir)); err != nil {
			return nil, err
		}
		if err := storage.WriteFile(fs, filepath.Join(dir, e.PGD), sd.Save); err != nil {
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
		g, err := entity.Build(sd, opt.Build)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
		ixOpt := opt.Index
		ixOpt.Dir = filepath.Join(dir, e.IndexDir)
		ix, err := pathindex.Build(ctx, g, ixOpt)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
		st := ix.Stats()
		ix.Close()
		logf("shard %d: %d refs, %d sets, %d closures; index %d entries over %d sequences",
			s, len(e.Refs), len(e.Sets), e.Closures, st.Entries, st.Sequences)
	}
	if err := writeManifest(fs, dir, m); err != nil {
		return nil, err
	}
	return m, nil
}

// mkdirAll makes path and the parents it lacks, as os.MkdirAll does, and
// then syncs the parent of every directory it made, so that the entries it
// added survive a power cut.
func mkdirAll(fs storage.FS, path string) error {
	var made []string
	for p := filepath.Clean(path); ; p = filepath.Dir(p) {
		if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) || filepath.Dir(p) == p {
			break
		}
		made = append(made, p)
	}
	if err := os.MkdirAll(path, 0o755); err != nil {
		return err
	}
	for _, p := range made {
		if err := fs.SyncDir(filepath.Dir(p)); err != nil {
			return err
		}
	}
	return nil
}
