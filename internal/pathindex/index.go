package pathindex

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/entity"
	"repro/internal/lru"
	"repro/internal/prob"
	"repro/internal/storage/packedix"
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
	// Workers bounds the goroutines computing the context tables
	// (0 = GOMAXPROCS); the path walk runs on the calling goroutine.
	Workers int
	// Dir is the artifact directory (created if missing).
	Dir string
}

func (o *Options) normalize() error {
	if o.MaxLen < 1 || o.MaxLen > MaxSupportedLen {
		return fmt.Errorf("pathindex: MaxLen %d out of range [1,%d]", o.MaxLen, MaxSupportedLen)
	}
	// Written so NaN fails too: every comparison with NaN is false.
	if !(o.Beta > 0 && o.Beta <= 1) {
		return fmt.Errorf("pathindex: Beta %v out of range (0,1]", o.Beta)
	}
	if !(o.Gamma > 0 && o.Gamma <= 1) {
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
	Bytes         int64         // size of packed.idx
	Duration      time.Duration // wall-clock build time
	ComponentTime time.Duration // identity component precompute share
	ContextTime   time.Duration // context information share
}

// Index is an opened path index: one packed.idx file (internal/storage/
// packedix), mapped read-only. Once built or opened, every read method —
// Scan, ScanCount, NodeSet, Lookup, Cardinality, Context, Stats — is safe
// for many concurrent callers: probes read the immutable mapping and write
// only caller-owned scratch, and ScanCount's memo of below-β counts and
// NodeSet's memo of factor sets are internal/lru caches.
type Index struct {
	opt    Options
	g      *entity.Graph
	packed *packedix.File
	ctx    *Context
	stats  BuildStats
	counts *lru.Cache[int] // |PIndex(X, α)| below β, by countKey
	sets   *NodeSets       // the node-level test's factor sets

	probes atomic.Uint64                 // Scan calls answered
	obs    atomic.Pointer[func(float64)] // posting-decode observer (µs)
}

// Build runs the offline phase of Section 5.1 over the entity graph:
// component probabilities are already precomputed by entity.Build; this
// computes context information and walks the indexed paths depth first,
// encoding each posting into the packedix writer as the walk reaches it,
// and then writes packed.idx in one pass.
func Build(ctx context.Context, g *entity.Graph, opt Options) (*Index, error) {
	start := time.Now()
	if err := opt.normalize(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(opt.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("pathindex: %w", err)
	}
	w, err := packedix.NewWriter(packedix.Meta{
		MaxLen:   opt.MaxLen,
		NLabels:  g.NumLabels(),
		NBuckets: numBuckets(opt.Beta, opt.Gamma),
		Beta:     opt.Beta,
		Gamma:    opt.Gamma,
		Nodes:    g.NumNodes(),
		Edges:    g.NumEdges(),
	})
	if err != nil {
		return nil, err
	}
	ix := &Index{opt: opt, g: g, counts: newCountMemo()}

	ctxStart := time.Now()
	ix.ctx = ComputeContext(g, opt.Workers)
	ix.stats.ContextTime = time.Since(ctxStart)
	ix.sets = NewNodeSets(g, ix.ctx)

	if err := ix.buildPaths(ctx, w); err != nil {
		return nil, err
	}
	if err := w.SetContext(ix.ctx.nLabels, ix.ctx.card, ix.ctx.ppu, ix.ctx.fpu); err != nil {
		return nil, err
	}
	path := filepath.Join(opt.Dir, packedix.FileName)
	if ix.stats.Bytes, err = w.WriteFile(path); err != nil {
		return nil, err
	}
	f, err := packedix.Open(path)
	if err != nil {
		return nil, err
	}
	ix.packed = f
	ix.stats.Sequences = f.NumSeqs()
	ix.stats.Duration = time.Since(start)
	return ix, nil
}

// Open attaches to the packed.idx in dir, validating it against g. The file
// is mapped, not loaded: cold open touches the header and descriptor pages
// only, and the context tables alias the mapping.
func Open(dir string, g *entity.Graph) (_ *Index, err error) {
	f, err := packedix.Open(filepath.Join(dir, packedix.FileName))
	if err != nil {
		return nil, fmt.Errorf("pathindex: open %s: %w (v1 B+-tree index directories are no longer read; rebuild the index with pegbuild)", dir, err)
	}
	defer func() {
		if err != nil {
			f.Close()
		}
	}()
	m := f.Meta()
	if m.Nodes != g.NumNodes() || m.Edges != g.NumEdges() || m.NLabels != g.NumLabels() {
		return nil, fmt.Errorf("pathindex: index built for %d nodes/%d edges/%d labels, graph has %d/%d/%d",
			m.Nodes, m.Edges, m.NLabels, g.NumNodes(), g.NumEdges(), g.NumLabels())
	}
	opt := Options{MaxLen: m.MaxLen, Beta: m.Beta, Gamma: m.Gamma, Dir: dir}
	if err := opt.normalize(); err != nil {
		return nil, err
	}
	if nb := numBuckets(opt.Beta, opt.Gamma); m.NBuckets != nb {
		return nil, fmt.Errorf("pathindex: index has %d buckets, β=%v γ=%v make %d", m.NBuckets, opt.Beta, opt.Gamma, nb)
	}
	nl, card, ppu, fpu, err := f.Context()
	if err != nil {
		return nil, err
	}
	if nl != g.NumLabels() {
		return nil, fmt.Errorf("pathindex: context tables hold %d labels, graph has %d", nl, g.NumLabels())
	}
	ix := &Index{
		opt:    opt,
		g:      g,
		packed: f,
		ctx:    &Context{nLabels: nl, card: card, ppu: ppu, fpu: fpu},
		counts: newCountMemo(),
	}
	ix.sets = NewNodeSets(g, ix.ctx)
	ix.stats.Entries = m.Entries
	ix.stats.EntriesPerLen = m.EntriesPerLen
	ix.stats.Sequences = f.NumSeqs()
	ix.stats.Bytes = f.MappedBytes()
	return ix, nil
}

// Close unmaps the file: zero-copy views handed out earlier (Context
// tables; Lookup results are NOT among them — those are copied into
// caller-owned memory) must not be dereferenced afterwards, the same
// drain-then-close discipline the serving tier already applies before
// retiring a generation.
func (ix *Index) Close() error {
	if ix.packed == nil {
		return nil
	}
	err := ix.packed.Close()
	ix.packed = nil
	return err
}

// Stats returns build/size statistics.
func (ix *Index) Stats() BuildStats { return ix.stats }

// Context returns the node context information tables.
func (ix *Index) Context() *Context { return ix.ctx }

// NodeSet returns the entities that pass the node-level test for a query
// node labelled l with neighbour-label counts counts, at α (see NodeSets).
// The set is shared: the caller must not modify it.
func (ix *Index) NodeSet(l prob.LabelID, counts []int, alpha float64) NodeSet {
	return ix.sets.Of(l, counts, alpha)
}

// Graph returns the entity graph the index was built over.
func (ix *Index) Graph() *entity.Graph { return ix.g }

// Beta returns the construction threshold β.
func (ix *Index) Beta() float64 { return ix.opt.Beta }

// Gamma returns the probability bucket resolution γ.
func (ix *Index) Gamma() float64 { return ix.opt.Gamma }

// MaxLen returns the maximum indexed path length L.
func (ix *Index) MaxLen() int { return ix.opt.MaxLen }

// buildPaths walks the oriented paths depth first from every (node, label)
// pair that clears β and adds each path's canonical orientation to w as
// soon as the walk reaches it (Section 5.1): the one whose label sequence is
// the smaller of the two readings and, when they are equal, whose first
// node is the smaller. The walk reaches both orientations of every path of
// two or more nodes; only this one is stored. A root's extensions are tried
// in neighbour, then label order, so the paths of each length arrive in the
// lexicographic order of their (node, label) pairs whatever L is: every
// (sequence, bucket) receives its postings in that order, which fixes the
// file's bytes.
func (ix *Index) buildPaths(ctx context.Context, w *packedix.Writer) error {
	ix.stats.EntriesPerLen = make([]uint64, ix.opt.MaxLen+1)
	var err error
	walk := NewWalker(ix.g, ix.opt.Beta, ix.opt.MaxLen+1, nil, nil, nil, func(nodes []entity.ID, labels []prob.LabelID, prle, prn float64) bool {
		n := len(nodes)
		reversed, palin := orientation(labels)
		if reversed || palin && n > 1 && nodes[0] > nodes[n-1] {
			return true
		}
		var lbl [maxNodes]uint16
		var nds [maxNodes]uint32
		for i := range nodes {
			lbl[i], nds[i] = uint16(labels[i]), uint32(nodes[i])
		}
		b := bucketOf(prle*prn, ix.opt.Beta, ix.opt.Gamma)
		if err = w.Add(lbl[:n], int(b), nds[:n], prle, prn); err != nil {
			return false
		}
		ix.stats.Entries++
		ix.stats.EntriesPerLen[n-1]++
		return true
	})
	for v := 0; v < ix.g.NumNodes(); v++ {
		if v%1024 == 0 {
			if err := ctxErr(ctx); err != nil {
				return err
			}
		}
		if !walk.Root(entity.ID(v)) {
			return err
		}
	}
	return nil
}

// Scan streams PIndex(X, α): all paths whose label assignment is X and
// whose probability prob.MayClear admits at α, oriented along X, in storage
// order. When α < β the index is insufficient — it only stores paths of
// probability ≥ β — and is bypassed entirely: the paths are enumerated on
// demand from the graph (the paper's footnote 1). Otherwise the sequence's
// postings from the bucket of MayClear's floor on are decoded straight from
// the mapping into one scratch row, so a scan allocates nothing per record
// and nothing proportional to the posting list. See ScanFunc for the
// aliasing contract.
func (ix *Index) Scan(X []prob.LabelID, alpha float64, fn ScanFunc) error {
	if err := ix.probe(X); err != nil {
		return err
	}
	if alpha < ix.opt.Beta {
		_, err := ix.onDemand(context.TODO(), X, alpha, nil, fn)
		return err
	}
	reversed, palin := orientation(X)
	s, ok := ix.findSeq(X, reversed)
	if !ok {
		return nil
	}
	floor := prob.Floor(alpha, PathFactors(len(X)))
	from := int(bucketOf(floor, ix.opt.Beta, ix.opt.Gamma))
	obs := ix.obs.Load()
	var t0 time.Time
	if obs != nil {
		t0 = time.Now()
	}
	var buf [maxNodes]entity.ID
	err := s.Decode(from, func(_ int, nodes []uint32, prle, prn float64) bool {
		if prle*prn < floor {
			return true // the first bucket reaches below the floor
		}
		row := buf[:len(nodes)]
		for i, n := range nodes {
			row[i] = entity.ID(n)
		}
		return emitOriented(row, prle, prn, reversed, palin, fn)
	})
	if obs != nil {
		(*obs)(float64(time.Since(t0).Nanoseconds()) / 1e3)
	}
	return err
}

// probe validates a scanned label sequence and counts the probe.
func (ix *Index) probe(X []prob.LabelID) error {
	if len(X) == 0 || len(X) > maxNodes {
		return fmt.Errorf("pathindex: label sequence length %d out of range", len(X))
	}
	if len(X)-1 > ix.opt.MaxLen {
		return fmt.Errorf("pathindex: sequence of %d labels exceeds indexed length L=%d", len(X), ix.opt.MaxLen)
	}
	ix.probes.Add(1)
	return nil
}

// rootsPerPoll is how many entity ids an on-demand walk tries as roots
// between two polls of its context: one word of a NodeSet.
const rootsPerPoll = 64

// onDemand enumerates the paths labelled X with probability ≥ alpha
// straight from the graph, for alpha below the construction threshold β
// (footnote 1 of the paper): one guided walk from every entity carrying
// X[0], or, filtered by keep when it is not nil, from every entity of
// keep[0] in ascending id order. The records handed to fn alias the walk's
// path, so nothing is allocated per edge or per match. It reports whether
// the walk ran to its end; it did not when fn stopped it or when ctx ended,
// whose error it then returns.
func (ix *Index) onDemand(ctx context.Context, X []prob.LabelID, alpha float64, keep NodeFilter, fn ScanFunc) (bool, error) {
	g := ix.g
	walk := NewWalker(g, alpha, len(X), X, nil, keep, func(nodes []entity.ID, _ []prob.LabelID, prle, prn float64) bool {
		return fn(nodes, prle, prn)
	})
	if keep != nil {
		for i, word := range keep[0] {
			if err := ctx.Err(); err != nil {
				return false, err
			}
			for ; word != 0; word &= word - 1 {
				if !walk.Root(entity.ID(i*rootsPerPoll + bits.TrailingZeros64(word))) {
					return false, nil
				}
			}
		}
		return true, nil
	}
	for v := 0; v < g.NumNodes(); v++ {
		if v%rootsPerPoll == 0 {
			if err := ctx.Err(); err != nil {
				return false, err
			}
		}
		if g.HasLabel(entity.ID(v), X[0]) && !walk.Root(entity.ID(v)) {
			return false, nil
		}
	}
	return true, nil
}

// countMemoEntries bounds the (label sequence, α) pairs whose below-β
// count an Index remembers.
const countMemoEntries = 1024

func newCountMemo() *lru.Cache[int] { return lru.New[int](countMemoEntries, nil, nil) }

// errStopped marks an on-demand walk its callback stopped: a partial count,
// which the count memo must not store.
var errStopped = errors.New("pathindex: scan stopped")

// ScanCount streams Scan's rows, or a subsequence of them that holds every
// row whose nodes are in keep's sets at their positions, into fn, and returns
// |PIndex(X, α)|. At α ≥ β it is Scan, counting the records it decodes.
// Below β the count comes from a memo of this generation's complete walks:
// on a miss ScanCount walks unfiltered, streaming and counting every row,
// and stores the count only if the walk ran to its end; on a hit it walks
// filtered by keep, cutting every subtree through a node outside keep's
// set at its position. Concurrent misses on one (X, α) walk once; the
// callers waiting on that walk then walk filtered, so fn must not itself
// scan the same (X, α) of this index. When fn stops a walk on a miss the count is that of the rows
// streamed so far; when ctx ends first ScanCount returns its error. A nil fn
// asks for the count alone: a warm memo answers it without a walk.
func (ix *Index) ScanCount(ctx context.Context, X []prob.LabelID, alpha float64, keep NodeFilter, fn ScanFunc) (int, error) {
	if alpha >= ix.opt.Beta {
		return CountScan(ix, X, alpha, fn)
	}
	if err := ix.probe(X); err != nil {
		return 0, err
	}
	n, hit, err := ix.counts.Do(ctx, countKey(X, alpha), func() (int, error) {
		n := 0
		done, err := ix.onDemand(ctx, X, alpha, nil, func(nodes []entity.ID, prle, prn float64) bool {
			n++
			return fn == nil || fn(nodes, prle, prn)
		})
		if err == nil && !done {
			err = errStopped
		}
		return n, err
	})
	switch {
	case errors.Is(err, errStopped):
		return n, nil
	case err != nil:
		return 0, err
	case !hit || fn == nil:
		return n, nil // this call's walk streamed every row, or none is asked for
	}
	_, err = ix.onDemand(ctx, X, alpha, keep, fn)
	return n, err
}

// countKey keys the count memo: X's length and labels, then α's bits.
func countKey(X []prob.LabelID, alpha float64) string {
	var buf [1 + maxNodes*binary.MaxVarintLen32 + 8]byte
	b := append(buf[:0], byte(len(X)))
	for _, l := range X {
		b = binary.AppendUvarint(b, uint64(l))
	}
	return string(binary.LittleEndian.AppendUint64(b, math.Float64bits(alpha)))
}

// findSeq looks up the key-table entry of X's canonical label sequence: X
// itself, or X read backwards when reversed.
func (ix *Index) findSeq(X []prob.LabelID, reversed bool) (packedix.Seq, bool) {
	if len(X) > maxNodes {
		return packedix.Seq{}, false
	}
	var lbl [maxNodes]uint16
	for i, l := range X {
		if reversed {
			i = len(X) - 1 - i
		}
		lbl[i] = uint16(l)
	}
	return ix.packed.FindSeq(lbl[:len(X)])
}

// Lookup returns PIndex(X, α) as caller-owned memory.
func (ix *Index) Lookup(X []prob.LabelID, alpha float64) ([]PathMatch, error) {
	return Collect(ix, X, alpha)
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

// Cardinality estimates |PIndex(X, α)| from the per-bucket posting counts
// stored with every key — the offline histograms of Section 5.2.1
// (palindromic sequences count both orientations). Used by query
// decomposition.
func (ix *Index) Cardinality(X []prob.LabelID, alpha float64) float64 {
	reversed, palin := orientation(X)
	s, ok := ix.findSeq(X, reversed)
	if !ok {
		return 0
	}
	nb := ix.packed.Meta().NBuckets
	cum := func(i int) uint32 {
		var sum uint32
		for j := i; j < nb; j++ {
			sum += s.Count(j)
		}
		return sum
	}
	est := estimateCurve(ix.opt.Beta, ix.opt.Gamma, nb, cum, alpha)
	if palin && len(X) > 1 {
		est *= 2
	}
	return est
}

// estimateCurve is the exponential curve fit of Section 5.2.1: with N(αᵢ)
// and N(αᵢ₊₁) known at the two surrounding grid points,
// N(α) = N(αᵢ) · (N(αᵢ₊₁)/N(αᵢ))^((α−αᵢ)/γ). cum(i) must return the exact
// stored-entry count with probability ≥ β+iγ.
func estimateCurve(beta, gamma float64, nb int, cum func(i int) uint32, alpha float64) float64 {
	if alpha <= beta {
		return float64(cum(0))
	}
	if alpha >= 1 {
		return float64(cum(nb - 1))
	}
	i := int((alpha - beta) / gamma)
	if i >= nb-1 {
		return float64(cum(nb - 1))
	}
	ni := float64(cum(i))
	nj := float64(cum(i + 1))
	if ni == 0 {
		return 0
	}
	frac := (alpha - bucketFloor(uint16(i), beta, gamma)) / gamma
	if nj == 0 {
		// Exponential fit undefined; fall back to a linear ramp to zero,
		// which preserves monotonicity.
		return ni * (1 - frac)
	}
	return ni * math.Pow(nj/ni, frac)
}

func ctxErr(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}

// Sequences returns all canonical label sequences present in the index, for
// diagnostics and tests.
func (ix *Index) Sequences() [][]prob.LabelID {
	var out [][]prob.LabelID
	var buf []uint16
	for l := 0; l <= ix.opt.MaxLen; l++ {
		for i := 0; i < ix.packed.SeqsAtLen(l); i++ {
			buf = ix.packed.SeqAt(l, i).Labels(buf)
			labels := make([]prob.LabelID, len(buf))
			for j, v := range buf {
				labels[j] = prob.LabelID(v)
			}
			out = append(out, labels)
		}
	}
	sort.Slice(out, func(i, j int) bool { return compareLabels(out[i], out[j]) < 0 })
	return out
}
