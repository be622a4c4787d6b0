package pathindex

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/entity"
	"repro/internal/prob"
	"repro/internal/storage/btree"
	"repro/internal/storage/hashdict"
	"repro/internal/storage/packedix"
	"repro/internal/storage/pager"
)

// Options configures index construction.
type Options struct {
	// MaxLen is L, the maximum path length in edges (1 ≤ L ≤ MaxSupportedLen).
	MaxLen int
	// Beta is the index construction threshold β: only paths with probability
	// ≥ β are indexed (paths below are computed on demand at query time).
	Beta float64
	// Gamma is the index resolution γ: the probability bucket width.
	Gamma float64
	// Workers bounds build parallelism (0 = GOMAXPROCS).
	Workers int
	// Dir is the artifact directory (created if missing).
	Dir string
	// CachePages sizes the pager buffer pool (0 = pager default; v1 format
	// only — the packed format has no buffer pool to size).
	CachePages int
	// Format selects the on-disk layout. The zero value is FormatPacked
	// (v2), so new builds — including compactions of v1-era databases —
	// emit the packed format unless explicitly pinned to FormatBTree.
	Format Format
}

func (o *Options) normalize() error {
	if o.MaxLen < 1 || o.MaxLen > MaxSupportedLen {
		return fmt.Errorf("pathindex: MaxLen %d out of range [1,%d]", o.MaxLen, MaxSupportedLen)
	}
	if o.Beta <= 0 || o.Beta > 1 {
		return fmt.Errorf("pathindex: Beta %v out of range (0,1]", o.Beta)
	}
	if o.Gamma <= 0 || o.Gamma > 1 {
		return fmt.Errorf("pathindex: Gamma %v out of range (0,1]", o.Gamma)
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Dir == "" {
		return fmt.Errorf("pathindex: Dir required")
	}
	return nil
}

// BuildStats reports offline phase metrics (the quantities of Figures 6(a)
// and 6(b)).
type BuildStats struct {
	Entries       uint64        // stored index entries
	EntriesPerLen []uint64      // per path length 0..L
	Sequences     int           // distinct canonical label sequences
	Bytes         int64         // total artifact bytes on disk
	Duration      time.Duration // wall-clock build time
	ComponentTime time.Duration // identity component precompute share
	ContextTime   time.Duration // context information share
}

// Index is an opened path index. Once built or opened, the index is
// read-only and every read method — Scan, Lookup, Cardinality, Context, Stats —
// is safe for many concurrent callers without shared locking: B+ tree scans
// ride on the pager's sharded buffer pool, and the dictionary, histograms,
// and context tables are immutable after construction. Build itself is
// single-writer (storeLevel runs on one goroutine).
type Index struct {
	opt Options
	g   *entity.Graph

	// v1 B+-tree backend.
	dict *hashdict.Dict
	pg   *pager.Pager
	tree *btree.Tree
	hist *Histograms

	// v2 packed backend.
	packed *packedix.File
	pw     *packedix.Writer // non-nil only during a packed build

	ctx   *Context
	stats BuildStats

	recno uint32 // next record number during build

	probes atomic.Uint64                 // Scan calls answered
	obs    atomic.Pointer[func(float64)] // posting-decode observer (µs)
}

type metaFile struct {
	MaxLen  int     `json:"max_len"`
	Beta    float64 `json:"beta"`
	Gamma   float64 `json:"gamma"`
	Nodes   int     `json:"nodes"`
	Edges   int     `json:"edges"`
	Entries uint64  `json:"entries"`
}

const (
	fileMeta    = "meta.json"
	filePages   = "paths.pages"
	fileDict    = "seqs.dict"
	fileContext = "context.bin"
	fileHist    = "hist.bin"
)

// Build runs the offline phase of Section 5.1 over the entity graph:
// component probabilities are already precomputed by entity.Build; this
// computes context information and constructs the path index level by level
// (single nodes first, then extensions), in parallel with a barrier between
// lengths, buffering records in memory before writing them to the B+ tree.
func Build(ctx context.Context, g *entity.Graph, opt Options) (*Index, error) {
	start := time.Now()
	if err := opt.normalize(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(opt.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("pathindex: %w", err)
	}
	if opt.Format == FormatPacked {
		return buildPacked(ctx, g, opt, start)
	}
	dict, err := hashdict.Open(filepath.Join(opt.Dir, fileDict))
	if err != nil {
		return nil, err
	}
	pg, err := pager.Open(filepath.Join(opt.Dir, filePages), pager.Options{CachePages: opt.CachePages})
	if err != nil {
		dict.Close()
		return nil, err
	}
	tree, err := btree.Create(pg)
	if err != nil {
		pg.Close()
		dict.Close()
		return nil, err
	}
	ix := &Index{
		opt:  opt,
		g:    g,
		dict: dict,
		pg:   pg,
		tree: tree,
		hist: NewHistograms(opt.Beta, opt.Gamma),
	}

	ctxStart := time.Now()
	ix.ctx = ComputeContext(g, opt.Workers)
	ix.stats.ContextTime = time.Since(ctxStart)

	if err := ix.buildPaths(ctx); err != nil {
		ix.Close()
		return nil, err
	}

	if err := ix.ctx.Save(filepath.Join(opt.Dir, fileContext)); err != nil {
		ix.Close()
		return nil, err
	}
	if err := ix.hist.Save(filepath.Join(opt.Dir, fileHist)); err != nil {
		ix.Close()
		return nil, err
	}
	ix.stats.Sequences = dict.Len()
	meta := metaFile{
		MaxLen: opt.MaxLen, Beta: opt.Beta, Gamma: opt.Gamma,
		Nodes: g.NumNodes(), Edges: g.NumEdges(), Entries: ix.stats.Entries,
	}
	mb, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		ix.Close()
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(opt.Dir, fileMeta), mb, 0o644); err != nil {
		ix.Close()
		return nil, err
	}
	if err := tree.Sync(); err != nil {
		ix.Close()
		return nil, err
	}
	if err := dict.Sync(); err != nil {
		ix.Close()
		return nil, err
	}
	ix.stats.Duration = time.Since(start)
	ix.stats.Bytes = dirBytes(opt.Dir)
	return ix, nil
}

// Open attaches to an index previously built in dir, validating it against
// the given graph's parameters. The format is auto-detected: a packed.idx
// file means the v2 packed layout, anything else the v1 B+-tree layout —
// so v1 generations written before the format flip keep serving.
func Open(dir string, g *entity.Graph) (*Index, error) {
	if _, err := os.Stat(filepath.Join(dir, packedix.FileName)); err == nil {
		return openPacked(dir, g)
	}
	return openBTree(dir, g)
}

func openBTree(dir string, g *entity.Graph) (*Index, error) {
	mb, err := os.ReadFile(filepath.Join(dir, fileMeta))
	if err != nil {
		return nil, fmt.Errorf("pathindex: open: %w", err)
	}
	var meta metaFile
	if err := json.Unmarshal(mb, &meta); err != nil {
		return nil, fmt.Errorf("pathindex: corrupt meta: %w", err)
	}
	if meta.Nodes != g.NumNodes() || meta.Edges != g.NumEdges() {
		return nil, fmt.Errorf("pathindex: index built for %d nodes/%d edges, graph has %d/%d",
			meta.Nodes, meta.Edges, g.NumNodes(), g.NumEdges())
	}
	opt := Options{MaxLen: meta.MaxLen, Beta: meta.Beta, Gamma: meta.Gamma, Dir: dir, Format: FormatBTree}
	if err := opt.normalize(); err != nil {
		return nil, err
	}
	dict, err := hashdict.Open(filepath.Join(dir, fileDict))
	if err != nil {
		return nil, err
	}
	pg, err := pager.Open(filepath.Join(dir, filePages), pager.Options{})
	if err != nil {
		dict.Close()
		return nil, err
	}
	tree, err := btree.Open(pg)
	if err != nil {
		pg.Close()
		dict.Close()
		return nil, err
	}
	ctxInfo, err := LoadContext(filepath.Join(dir, fileContext))
	if err != nil {
		pg.Close()
		dict.Close()
		return nil, err
	}
	hist, err := LoadHistograms(filepath.Join(dir, fileHist))
	if err != nil {
		pg.Close()
		dict.Close()
		return nil, err
	}
	ix := &Index{opt: opt, g: g, dict: dict, pg: pg, tree: tree, ctx: ctxInfo, hist: hist}
	ix.stats.Entries = meta.Entries
	ix.stats.Sequences = dict.Len()
	ix.stats.Bytes = dirBytes(dir)
	return ix, nil
}

// Close releases the on-disk resources. For a packed index this unmaps the
// file: zero-copy views handed out earlier (Context tables; Lookup results
// are NOT among them — those are copied into caller-owned memory) must not
// be dereferenced afterwards, the same drain-then-close discipline the
// serving tier already applies before retiring a generation.
func (ix *Index) Close() error {
	var first error
	if ix.packed != nil {
		if err := ix.packed.Close(); err != nil {
			first = err
		}
		ix.packed = nil
	}
	if ix.pg != nil {
		if err := ix.pg.Close(); err != nil && first == nil {
			first = err
		}
		ix.pg = nil
	}
	if ix.dict != nil {
		if err := ix.dict.Close(); err != nil && first == nil {
			first = err
		}
		ix.dict = nil
	}
	return first
}

// Stats returns build/size statistics.
func (ix *Index) Stats() BuildStats { return ix.stats }

// Context returns the node context information tables.
func (ix *Index) Context() *Context { return ix.ctx }

// Graph returns the entity graph the index was built over.
func (ix *Index) Graph() *entity.Graph { return ix.g }

// Beta returns the construction threshold β.
func (ix *Index) Beta() float64 { return ix.opt.Beta }

// Gamma returns the probability bucket resolution γ.
func (ix *Index) Gamma() float64 { return ix.opt.Gamma }

// MaxLen returns the maximum indexed path length L.
func (ix *Index) MaxLen() int { return ix.opt.MaxLen }

// opath is an oriented in-construction path with its label assignment.
type opath struct {
	n      uint8
	nodes  [maxNodes]entity.ID
	labels [maxNodes]prob.LabelID
	prle   float64
	prn    float64
}

func (p *opath) contains(v entity.ID) bool {
	for i := uint8(0); i < p.n; i++ {
		if p.nodes[i] == v {
			return true
		}
	}
	return false
}

// buildPaths enumerates oriented paths level by level with a barrier between
// levels, storing the canonical orientation of each (Section 5.1).
func (ix *Index) buildPaths(ctx context.Context) error {
	ix.stats.EntriesPerLen = make([]uint64, ix.opt.MaxLen+1)

	// Level 0: single nodes.
	var level []opath
	n := ix.g.NumNodes()
	for v := 0; v < n; v++ {
		if err := ctxErr(ctx); err != nil {
			return err
		}
		exist := ix.g.Exist(entity.ID(v))
		for l, lp := range ix.g.LabelRow(entity.ID(v)) {
			if lp == 0 || lp*exist+1e-12 < ix.opt.Beta {
				continue
			}
			p := opath{n: 1, prle: lp, prn: exist}
			p.nodes[0] = entity.ID(v)
			p.labels[0] = prob.LabelID(l)
			level = append(level, p)
		}
	}
	if err := ix.storeLevel(level, 0); err != nil {
		return err
	}

	for l := 1; l <= ix.opt.MaxLen; l++ {
		next, err := ix.extendLevel(ctx, level)
		if err != nil {
			return err
		}
		if err := ix.storeLevel(next, l); err != nil {
			return err
		}
		level = next
		if len(level) == 0 {
			break
		}
	}
	return nil
}

// extendLevel extends every oriented path by one edge at its tail, in
// parallel chunks, applying the β cutoff and the reference-disjointness
// constraint.
func (ix *Index) extendLevel(ctx context.Context, level []opath) ([]opath, error) {
	workers := ix.opt.Workers
	if workers > len(level) {
		workers = len(level)
	}
	if workers == 0 {
		return nil, nil
	}
	results := make([][]opath, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	chunk := (len(level) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > len(level) {
			hi = len(level)
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			var out []opath
			for i := lo; i < hi; i++ {
				if i%1024 == 0 {
					if err := ctxErr(ctx); err != nil {
						errs[w] = err
						return
					}
				}
				out = ix.extendOne(&level[i], out)
			}
			results[w] = out
		}(w, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	total := 0
	for _, r := range results {
		total += len(r)
	}
	next := make([]opath, 0, total)
	for _, r := range results {
		next = append(next, r...)
	}
	return next, nil
}

func (ix *Index) extendOne(p *opath, out []opath) []opath {
	g := ix.g
	tail := p.nodes[p.n-1]
	tailLabel := p.labels[p.n-1]
	for _, nb := range g.Neighbors(tail) {
		if p.contains(nb.To) {
			continue
		}
		// Prn of the extended node set: 0 when nb.To shares a reference with
		// a node of the path.
		prn := g.PrnExtend(p.nodes[:p.n], p.prn, nb.To)
		if prn == 0 {
			continue
		}
		for l, lp := range g.LabelRow(nb.To) {
			if lp == 0 {
				continue
			}
			edgeP := g.PrEdge(nb, tailLabel, prob.LabelID(l))
			prle := p.prle * edgeP * lp
			if prle*prn+1e-12 < ix.opt.Beta {
				continue
			}
			np := *p
			np.nodes[np.n] = nb.To
			np.labels[np.n] = prob.LabelID(l)
			np.n++
			np.prle = prle
			np.prn = prn
			out = append(out, np)
		}
	}
	return out
}

// storeLevel writes the canonical orientation of every oriented path to the
// B+ tree and the histograms.
func (ix *Index) storeLevel(level []opath, l int) error {
	for i := range level {
		p := &level[i]
		labels := p.labels[:p.n]
		nodes := p.nodes[:p.n]
		canon, reversed, palin := canonicalSeq(labels)
		if reversed {
			continue // stored by the reversed oriented path
		}
		if palin && p.n > 1 && nodes[0] > nodes[p.n-1] {
			continue // palindromic sequences store node-canonical orientation
		}
		if ix.pw != nil {
			if err := ix.storePacked(canon, nodes, p.prle, p.prn); err != nil {
				return err
			}
			ix.stats.Entries++
			ix.stats.EntriesPerLen[l]++
			continue
		}
		seqID, _, err := ix.dict.Intern(seqBytes(canon))
		if err != nil {
			return err
		}
		pr := p.prle * p.prn
		b := bucketOf(pr, ix.opt.Beta, ix.opt.Gamma)
		rec := ix.recno
		ix.recno++
		if err := ix.tree.Put(encodeKey(seqID, b, rec), encodeRecord(nodes, p.prle, p.prn)); err != nil {
			return err
		}
		ix.hist.Add(seqID, b)
		ix.stats.Entries++
		ix.stats.EntriesPerLen[l]++
	}
	return nil
}

// Scan streams PIndex(X, α): all paths whose label assignment is X with
// probability ≥ α, oriented along X, in storage order. When α < β the index
// is insufficient — it only stores paths of probability ≥ β — and is
// bypassed entirely: the paths are enumerated on demand from the graph (the
// paper's footnote 1). See ScanFunc for the aliasing contract.
func (ix *Index) Scan(X []prob.LabelID, alpha float64, fn ScanFunc) error {
	if len(X) == 0 || len(X) > maxNodes {
		return fmt.Errorf("pathindex: label sequence length %d out of range", len(X))
	}
	if len(X)-1 > ix.opt.MaxLen {
		return fmt.Errorf("pathindex: sequence of %d labels exceeds indexed length L=%d", len(X), ix.opt.MaxLen)
	}
	ix.probes.Add(1)
	if alpha < ix.opt.Beta {
		ix.onDemand(X, alpha, fn)
		return nil
	}
	if ix.packed != nil {
		return ix.scanPacked(X, alpha, fn)
	}
	return ix.scanTree(X, alpha, fn)
}

// Lookup returns PIndex(X, α) as caller-owned memory.
func (ix *Index) Lookup(X []prob.LabelID, alpha float64) ([]PathMatch, error) {
	return Collect(ix, X, alpha)
}

// scanTree is the v1 arm of Scan: one B+ tree range scan over the
// sequence's buckets ≥ bucket(α), decoded into scratch.
func (ix *Index) scanTree(X []prob.LabelID, alpha float64, fn ScanFunc) error {
	canon, reversed, palin := canonicalSeq(X)
	seqID, ok := ix.dict.Lookup(seqBytes(canon))
	if !ok {
		return nil
	}
	lo := encodeKey(seqID, bucketOf(alpha, ix.opt.Beta, ix.opt.Gamma), 0)
	hi := encodeKey(seqID+1, 0, 0)
	var buf [maxNodes]entity.ID
	var scanErr error
	err := ix.tree.Scan(lo, hi, func(k, v []byte) bool {
		nodes, prle, prn, err := decodeRecord(v, buf[:])
		if err != nil {
			scanErr = err
			return false
		}
		if prle*prn+1e-12 < alpha {
			return true // bucket floor below α: filter exactly
		}
		return emitOriented(nodes, prle, prn, reversed, palin, fn)
	})
	if err != nil {
		return err
	}
	return scanErr
}

// emitOriented hands one stored record (canonical orientation, in scratch
// the caller owns) to fn oriented along the scanned sequence: reversed when
// the sequence is the reverse of its canonical form, both ways round when it
// is palindromic.
func emitOriented(nodes []entity.ID, prle, prn float64, reversed, palin bool, fn ScanFunc) bool {
	if palin && len(nodes) > 1 {
		if !fn(nodes, prle, prn) {
			return false
		}
		reversed = true
	}
	if reversed {
		for i, j := 0, len(nodes)-1; i < j; i, j = i+1, j-1 {
			nodes[i], nodes[j] = nodes[j], nodes[i]
		}
	}
	return fn(nodes, prle, prn)
}

// Cardinality estimates |PIndex(X, α)| via the histograms (palindromic
// sequences count both orientations). Used by query decomposition.
func (ix *Index) Cardinality(X []prob.LabelID, alpha float64) float64 {
	if ix.packed != nil {
		return ix.cardinalityPacked(X, alpha)
	}
	canon, _, palin := canonicalSeq(X)
	seqID, ok := ix.dict.Lookup(seqBytes(canon))
	if !ok {
		return 0
	}
	est := ix.hist.Estimate(seqID, alpha)
	if palin && len(X) > 1 {
		est *= 2
	}
	return est
}

func ctxErr(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}

func dirBytes(dir string) int64 {
	var total int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			total += info.Size()
		}
		return nil
	})
	return total
}

// Sequences returns all canonical label sequences present in the index, for
// diagnostics and tests.
func (ix *Index) Sequences() [][]prob.LabelID {
	if ix.packed != nil {
		out := ix.sequencesPacked()
		sort.Slice(out, func(i, j int) bool { return compareLabels(out[i], out[j]) < 0 })
		return out
	}
	var out [][]prob.LabelID
	for id := uint64(0); ; id++ {
		key, ok := ix.dict.Key(id)
		if !ok {
			break
		}
		labels := make([]prob.LabelID, len(key)/2)
		for i := range labels {
			labels[i] = prob.LabelID(uint16(key[2*i])<<8 | uint16(key[2*i+1]))
		}
		out = append(out, labels)
	}
	sort.Slice(out, func(i, j int) bool { return compareLabels(out[i], out[j]) < 0 })
	return out
}
