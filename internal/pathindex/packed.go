package pathindex

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/entity"
	"repro/internal/prob"
	"repro/internal/storage/packedix"
)

// Format selects the on-disk index layout.
type Format int

const (
	// FormatPacked is the v2 single-file packed layout (internal/storage/
	// packedix): mmap'd read-only, postings decoded zero-copy into
	// caller-owned scratch. The zero value, so new builds default to it.
	FormatPacked Format = iota
	// FormatBTree is the v1 layout: hash dictionary + pager-backed B+ tree
	// + separate context/histogram files. Still fully readable and
	// buildable for rolling upgrades.
	FormatBTree
)

func (f Format) String() string {
	switch f {
	case FormatPacked:
		return "v2"
	case FormatBTree:
		return "v1"
	default:
		return fmt.Sprintf("Format(%d)", int(f))
	}
}

// ParseFormat accepts the CLI spellings of a format.
func ParseFormat(s string) (Format, error) {
	switch s {
	case "v2", "packed":
		return FormatPacked, nil
	case "v1", "btree":
		return FormatBTree, nil
	default:
		return 0, fmt.Errorf("pathindex: unknown format %q (want v1 or v2)", s)
	}
}

// buildPacked is the v2 arm of Build: same path enumeration (buildPaths
// routes storeLevel into the packedix writer), then one file write.
func buildPacked(ctx context.Context, g *entity.Graph, opt Options, start time.Time) (*Index, error) {
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
	ix := &Index{opt: opt, g: g, pw: w}

	ctxStart := time.Now()
	ix.ctx = ComputeContext(g, opt.Workers)
	ix.stats.ContextTime = time.Since(ctxStart)

	if err := ix.buildPaths(ctx); err != nil {
		return nil, err
	}
	if err := w.SetContext(ix.ctx.nLabels, ix.ctx.card, ix.ctx.ppu, ix.ctx.fpu); err != nil {
		return nil, err
	}
	path := filepath.Join(opt.Dir, packedix.FileName)
	if _, err := w.WriteFile(path); err != nil {
		return nil, err
	}
	ix.pw = nil
	f, err := packedix.Open(path)
	if err != nil {
		return nil, err
	}
	ix.packed = f
	ix.stats.Sequences = f.NumSeqs()
	ix.stats.Duration = time.Since(start)
	ix.stats.Bytes = dirBytes(opt.Dir)
	return ix, nil
}

// openPacked attaches to a packed.idx in dir. The file is mapped, not
// loaded: cold open touches the header and descriptor pages only, and the
// context tables alias the mapping.
func openPacked(dir string, g *entity.Graph) (*Index, error) {
	f, err := packedix.Open(filepath.Join(dir, packedix.FileName))
	if err != nil {
		return nil, err
	}
	m := f.Meta()
	if m.Nodes != g.NumNodes() || m.Edges != g.NumEdges() {
		f.Close()
		return nil, fmt.Errorf("pathindex: index built for %d nodes/%d edges, graph has %d/%d",
			m.Nodes, m.Edges, g.NumNodes(), g.NumEdges())
	}
	opt := Options{MaxLen: m.MaxLen, Beta: m.Beta, Gamma: m.Gamma, Dir: dir, Format: FormatPacked}
	if err := opt.normalize(); err != nil {
		f.Close()
		return nil, err
	}
	nl, card, ppu, fpu, err := f.Context()
	if err != nil {
		f.Close()
		return nil, err
	}
	ix := &Index{
		opt:    opt,
		g:      g,
		packed: f,
		ctx:    &Context{nLabels: nl, card: card, ppu: ppu, fpu: fpu},
	}
	ix.stats.Entries = m.Entries
	ix.stats.EntriesPerLen = m.EntriesPerLen
	ix.stats.Sequences = f.NumSeqs()
	ix.stats.Bytes = dirBytes(dir)
	return ix, nil
}

// storePacked is storeLevel's v2 sink: one canonical oriented path into the
// packedix writer. Arrival order here is exactly the recno order the v1
// format would assign, so decode order matches across formats.
func (ix *Index) storePacked(canon []prob.LabelID, nodes []entity.ID, prle, prn float64) error {
	var lbl [maxNodes]uint16
	var nds [maxNodes]uint32
	for i, l := range canon {
		lbl[i] = uint16(l)
	}
	for i, n := range nodes {
		nds[i] = uint32(n)
	}
	b := bucketOf(prle*prn, ix.opt.Beta, ix.opt.Gamma)
	return ix.pw.Add(lbl[:len(canon)], int(b), nds[:len(nodes)], prle, prn)
}

// scanPacked is the v2 arm of Scan: the sequence's postings for buckets
// ≥ bucket(α) are decoded straight from the mapping into one scratch row, so
// a scan allocates nothing per record and nothing proportional to the
// posting list — no arena, no decoded cache.
func (ix *Index) scanPacked(X []prob.LabelID, alpha float64, fn ScanFunc) error {
	canon, reversed, palin := canonicalSeq(X)
	var lbl [maxNodes]uint16
	for i, l := range canon {
		lbl[i] = uint16(l)
	}
	s, ok := ix.packed.FindSeq(lbl[:len(canon)])
	if !ok {
		return nil
	}
	from := int(bucketOf(alpha, ix.opt.Beta, ix.opt.Gamma))
	obs := ix.obs.Load()
	var t0 time.Time
	if obs != nil {
		t0 = time.Now()
	}
	var buf [maxNodes]entity.ID
	err := s.Decode(from, func(_ int, nodes []uint32, prle, prn float64) bool {
		if prle*prn+1e-12 < alpha {
			return true // bucket floor below α: filter exactly
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

// estimateCurve is the exponential curve fit of Section 5.2.1, shared by
// both backends so their estimates are bitwise identical. cum(i) must
// return the exact stored-entry count with probability ≥ β+iγ, with v1's
// uint32 accumulation semantics.
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

func (ix *Index) cardinalityPacked(X []prob.LabelID, alpha float64) float64 {
	canon, _, palin := canonicalSeq(X)
	if len(canon) > maxNodes {
		return 0
	}
	var lbl [maxNodes]uint16
	for i, l := range canon {
		lbl[i] = uint16(l)
	}
	s, ok := ix.packed.FindSeq(lbl[:len(canon)])
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

func (ix *Index) sequencesPacked() [][]prob.LabelID {
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
	return out
}

// Repack migrates a v1 (B+-tree) index directory to the packed v2 format
// in place: it writes packed.idx next to the v1 artifacts, which Open then
// prefers. The v1 files are left untouched for rollback; delete them once
// the new file has been validated. Records are re-encoded losslessly —
// same sequences, same buckets, same recno order, same probability bits —
// so the repacked index answers every probe byte-for-byte identically.
func Repack(dir string, g *entity.Graph) (BuildStats, error) {
	packedPath := filepath.Join(dir, packedix.FileName)
	if _, err := os.Stat(packedPath); err == nil {
		return BuildStats{}, fmt.Errorf("pathindex: %s already exists in %s", packedix.FileName, dir)
	}
	ix, err := openBTree(dir, g)
	if err != nil {
		return BuildStats{}, err
	}
	defer ix.Close()
	w, err := packedix.NewWriter(packedix.Meta{
		MaxLen:   ix.opt.MaxLen,
		NLabels:  ix.ctx.nLabels,
		NBuckets: numBuckets(ix.opt.Beta, ix.opt.Gamma),
		Beta:     ix.opt.Beta,
		Gamma:    ix.opt.Gamma,
		Nodes:    g.NumNodes(),
		Edges:    g.NumEdges(),
	})
	if err != nil {
		return BuildStats{}, err
	}
	start := time.Now()
	var scanErr error
	labels := map[uint64][]uint16{}
	var idBuf [maxNodes]entity.ID
	var nodeBuf [maxNodes]uint32
	err = ix.tree.Scan(make([]byte, keyLen), nil, func(k, v []byte) bool {
		if len(k) != keyLen {
			scanErr = fmt.Errorf("pathindex: repack: %d-byte key", len(k))
			return false
		}
		seqID := binary.BigEndian.Uint64(k)
		bucket := binary.BigEndian.Uint16(k[8:])
		lbl, ok := labels[seqID]
		if !ok {
			key, found := ix.dict.Key(seqID)
			if !found {
				scanErr = fmt.Errorf("pathindex: repack: seqID %d not in dictionary", seqID)
				return false
			}
			lbl = make([]uint16, len(key)/2)
			for i := range lbl {
				lbl[i] = binary.BigEndian.Uint16(key[2*i:])
			}
			labels[seqID] = lbl
		}
		ids, prle, prn, err := decodeRecord(v, idBuf[:])
		if err != nil {
			scanErr = err
			return false
		}
		nodes := nodeBuf[:len(ids)]
		for i, n := range ids {
			nodes[i] = uint32(n)
		}
		if err := w.Add(lbl, int(bucket), nodes, prle, prn); err != nil {
			scanErr = err
			return false
		}
		return true
	})
	if err == nil {
		err = scanErr
	}
	if err != nil {
		return BuildStats{}, err
	}
	if err := w.SetContext(ix.ctx.nLabels, ix.ctx.card, ix.ctx.ppu, ix.ctx.fpu); err != nil {
		return BuildStats{}, err
	}
	bytes, err := w.WriteFile(packedPath)
	if err != nil {
		return BuildStats{}, err
	}
	return BuildStats{
		Entries:   ix.stats.Entries,
		Sequences: w.NumSeqs(),
		Bytes:     bytes,
		Duration:  time.Since(start),
	}, nil
}
