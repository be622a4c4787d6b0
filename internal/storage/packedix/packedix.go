// Package packedix implements the packed path-index format: one
// immutable file holding everything a query-time probe needs — a fixed
// header with a section offset table, per-path-length sorted key tables,
// delta+varint-compressed posting blobs, and the per-node context tables —
// written once by a single producer and opened read-only with mmap.
//
// The Writer never holds a posting as a record: Add encodes it at once onto
// the byte run of its (sequence, bucket) pair, and WriteFile lays the runs
// out back to back as the posting blobs. Blob offsets and bucket ends are
// sums of run lengths, so the key tables are written before the postings
// without a second copy of them.
//
// The layout is designed so the read path never materializes the index on
// the heap: key tables are fixed-stride and binary-searched directly in the
// mapping, postings decode into caller-owned scratch, and the context
// arrays alias the mapping in place when alignment allows. The per-bucket
// record counts stored with every key double as the cardinality histogram
// of Section 5.2.1, so no separate histogram file exists.
//
// File layout (integers little-endian unless noted):
//
//	Header (128 B):
//	  [0:4]    magic "PEGX"
//	  [4:6]    version u16 (= 2)
//	  [6:8]    flags u16 (reserved, 0)
//	  [8:12]   maxLen u32          — L, maximum path length in edges
//	  [12:16]  nLabels u32
//	  [16:20]  nBuckets u32        — probability buckets per sequence
//	  [20:24]  pad u32
//	  [24:32]  beta f64 bits
//	  [32:40]  gamma f64 bits
//	  [40:48]  nodes u64           — entity graph the index was built over
//	  [48:56]  edges u64
//	  [56:64]  entries u64         — total stored postings
//	  [64:72]  seqTablesOff u64    — per-length descriptor table
//	  [72:80]  postingsOff u64
//	  [80:88]  postingsLen u64
//	  [88:96]  contextOff u64
//	  [96:104] contextLen u64
//	  [104:112] fileSize u64       — must equal the real size (truncation check)
//	  [112:128] reserved (zero)
//
//	Descriptor table at seqTablesOff: (maxLen+1) × 24 B records:
//	  tableOff u64, seqCount u64, entriesAtLen u64
//
//	Key table for length l: seqCount entries of fixed stride, sorted by
//	label bytes (big-endian u16 labels, so byte order == numeric order):
//	  labels    (l+1)×2 B BE
//	  blobOff   u64  — this sequence's posting blob, relative to postingsOff
//	  per bucket b in 0..nBuckets-1:
//	    count  u32   — records in bucket b (the histogram cell)
//	    endOff u32   — byte offset past bucket b's records, relative to blobOff
//
//	Posting blob for one sequence: buckets ascending, records in insertion
//	order within a bucket:
//	  flags u8             — bit0: prle == 1.0 elided, bit1: prn == 1.0 elided
//	  zigzag-varint node deltas — node[0] vs the previous record's node[0]
//	    (vs 0 at each bucket start), node[i] vs node[i-1] within the record
//	  prle f64 bits (absent when bit0), prn f64 bits (absent when bit1)
//
//	Context section at contextOff (8-aligned):
//	  card  cells×i32, pad to 8, ppu cells×f64, fpu cells×f64
//	  where cells = nodes × nLabels
package packedix

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"repro/internal/storage"
)

// Version is the format version this package reads and writes.
const Version = 2

// FileName is the packed index file inside an index directory.
const FileName = "packed.idx"

// ErrCorrupt is the base error for every structural validation failure:
// wrong magic, bad version, truncated sections, out-of-range offsets,
// posting blobs that decode past their bounds. Callers gate on
// errors.Is(err, ErrCorrupt).
var ErrCorrupt = errors.New("packedix: corrupt index")

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

const (
	headerSize     = 128
	descriptorSize = 24 // tableOff, seqCount, entriesAtLen

	// maxSupportedLen bounds maxLen at the format level so a corrupt header
	// cannot make per-record scratch arrays overflow.
	maxSupportedLen = 15
	maxPathNodes    = maxSupportedLen + 1
	maxLabels       = 1 << 20
	maxBuckets      = 1 << 16
)

// Meta is the self-describing header content of a packed index.
type Meta struct {
	MaxLen   int
	NLabels  int
	NBuckets int
	Beta     float64
	Gamma    float64
	Nodes    int
	Edges    int
	Entries  uint64
	// EntriesPerLen holds the stored entry count per path length 0..MaxLen.
	EntriesPerLen []uint64
}

// labelKey is a sequence's labels, zero-padded: the Writer's map key.
type labelKey [maxPathNodes]uint16

// run is one (sequence, bucket) pair's postings, encoded as they arrive:
// enc holds exactly the bytes the bucket occupies in the sequence's blob.
type run struct {
	enc   []byte
	count uint32
	prev0 uint32 // node[0] of the last record, the next record's delta base
}

// Writer encodes postings as they arrive and emits the packed file in one
// shot. Each (sequence, bucket) pair keeps one encoded run, so nothing is
// held per posting beyond its bytes in the file. There is exactly one
// producer (the offline build or the compactor), so no concurrency support
// is needed.
type Writer struct {
	meta  Meta
	byLen []map[labelKey][]run // per path length: one run per bucket

	ctxLabels int
	card      []int32
	ppu, fpu  []float64
	hasCtx    bool
}

// NewWriter starts a packed index with the given metadata. EntriesPerLen
// and Entries are counted by Add and may be left zero.
func NewWriter(m Meta) (*Writer, error) {
	if m.MaxLen < 0 || m.MaxLen > maxSupportedLen {
		return nil, fmt.Errorf("packedix: MaxLen %d out of range [0,%d]", m.MaxLen, maxSupportedLen)
	}
	if m.NLabels < 1 || m.NLabels > maxLabels {
		return nil, fmt.Errorf("packedix: NLabels %d out of range", m.NLabels)
	}
	if m.NBuckets < 1 || m.NBuckets > maxBuckets {
		return nil, fmt.Errorf("packedix: NBuckets %d out of range", m.NBuckets)
	}
	byLen := make([]map[labelKey][]run, m.MaxLen+1)
	for i := range byLen {
		byLen[i] = make(map[labelKey][]run)
	}
	m.Entries = 0
	m.EntriesPerLen = make([]uint64, m.MaxLen+1)
	return &Writer{meta: m, byLen: byLen}, nil
}

// labelBytes encodes labels big-endian so byte order equals numeric order.
func labelBytes(dst []byte, labels []uint16) []byte {
	for _, l := range labels {
		dst = append(dst, byte(l>>8), byte(l))
	}
	return dst
}

// Add records one posting: an oriented path of len(labels) nodes whose
// canonical label sequence is labels, in probability bucket b. The posting
// is encoded onto its (sequence, bucket) run at once. Postings of one
// (sequence, bucket) are stored in arrival order, which the reader
// preserves, so a scan's record order is the build's enumeration order.
func (w *Writer) Add(labels []uint16, bucket int, nodes []uint32, prle, prn float64) error {
	if len(labels) == 0 || len(labels)-1 > w.meta.MaxLen {
		return fmt.Errorf("packedix: sequence of %d labels exceeds L=%d", len(labels), w.meta.MaxLen)
	}
	if len(nodes) != len(labels) {
		return fmt.Errorf("packedix: %d nodes for %d labels", len(nodes), len(labels))
	}
	if bucket < 0 || bucket >= w.meta.NBuckets {
		return fmt.Errorf("packedix: bucket %d out of range [0,%d)", bucket, w.meta.NBuckets)
	}
	for i := range labels {
		if int(labels[i]) >= w.meta.NLabels || uint64(nodes[i]) >= uint64(w.meta.Nodes) {
			return fmt.Errorf("packedix: node %d label %d outside %d nodes/%d labels",
				nodes[i], labels[i], w.meta.Nodes, w.meta.NLabels)
		}
	}
	l := len(labels) - 1
	var key labelKey
	copy(key[:], labels)
	runs := w.byLen[l][key]
	if runs == nil {
		runs = make([]run, w.meta.NBuckets)
		w.byLen[l][key] = runs
	}
	r := &runs[bucket]
	flags := byte(0)
	if prle == 1.0 {
		flags |= 1
	}
	if prn == 1.0 {
		flags |= 2
	}
	r.enc = append(r.enc, flags)
	// The delta chain of node[0] restarts at each bucket boundary.
	r.enc = putZigzag(r.enc, int64(nodes[0])-int64(r.prev0))
	r.prev0 = nodes[0]
	for i := 1; i < len(nodes); i++ {
		r.enc = putZigzag(r.enc, int64(nodes[i])-int64(nodes[i-1]))
	}
	if flags&1 == 0 {
		r.enc = binary.LittleEndian.AppendUint64(r.enc, math.Float64bits(prle))
	}
	if flags&2 == 0 {
		r.enc = binary.LittleEndian.AppendUint64(r.enc, math.Float64bits(prn))
	}
	r.count++
	w.meta.Entries++
	w.meta.EntriesPerLen[l]++
	return nil
}

// SetContext attaches the per-node context tables; all three slices must
// hold nodes×nLabels cells.
func (w *Writer) SetContext(nLabels int, card []int32, ppu, fpu []float64) error {
	cells := w.meta.Nodes * nLabels
	if len(card) != cells || len(ppu) != cells || len(fpu) != cells {
		return fmt.Errorf("packedix: context tables hold %d/%d/%d cells, want %d",
			len(card), len(ppu), len(fpu), cells)
	}
	w.ctxLabels, w.card, w.ppu, w.fpu, w.hasCtx = nLabels, card, ppu, fpu, true
	return nil
}

func putZigzag(dst []byte, v int64) []byte {
	return binary.AppendUvarint(dst, uint64(v<<1)^uint64(v>>63))
}

// entryStride is the fixed key-table entry size for path length l.
func entryStride(l, nBuckets int) int {
	return 2*(l+1) + 8 + 8*nBuckets
}

// WriteFile assembles and writes the packed file through storage.WriteFile,
// so a crash leaves either no file or a complete one. Returns the file size.
func (w *Writer) WriteFile(path string) (int64, error) {
	if !w.hasCtx {
		return 0, fmt.Errorf("packedix: context tables not set")
	}
	nb := w.meta.NBuckets
	nLens := w.meta.MaxLen + 1

	// Sort each length's sequences by label. A blob is its sequence's runs
	// back to back, so blob offsets and bucket ends are sums of run lengths,
	// known before a posting byte is written.
	keys := make([][]labelKey, nLens)
	var postingsLen uint64
	for l := range keys {
		for k, runs := range w.byLen[l] {
			keys[l] = append(keys[l], k)
			var blob uint64
			for _, r := range runs {
				blob += uint64(len(r.enc))
			}
			if blob > math.MaxUint32 {
				return 0, fmt.Errorf("packedix: sequence blob exceeds 4 GiB")
			}
			postingsLen += blob
		}
		slices.SortFunc(keys[l], func(a, b labelKey) int { return slices.Compare(a[:], b[:]) })
	}

	// Section offsets.
	seqTablesOff := uint64(headerSize)
	off := seqTablesOff + uint64(nLens*descriptorSize)
	tableOffs := make([]uint64, nLens)
	for l := 0; l < nLens; l++ {
		tableOffs[l] = off
		off += uint64(len(keys[l]) * entryStride(l, nb))
	}
	postingsOff := off
	off += postingsLen
	contextOff := (off + 7) &^ 7 // 8-aligned so the float tables can alias the mapping
	cells := w.meta.Nodes * w.ctxLabels
	cardLen := uint64(4 * cells)
	ctxPad := (8 - cardLen%8) % 8
	contextLen := 8 + cardLen + ctxPad + uint64(16*cells) // nLabels u32 + pad u32 first
	fileSize := contextOff + contextLen

	err := storage.WriteFile(storage.OS, path, func(f io.Writer) error {
		bw := bufio.NewWriterSize(f, 1<<20)

		// Header.
		hdr := make([]byte, headerSize)
		copy(hdr, "PEGX")
		binary.LittleEndian.PutUint16(hdr[4:], Version)
		binary.LittleEndian.PutUint32(hdr[8:], uint32(w.meta.MaxLen))
		binary.LittleEndian.PutUint32(hdr[12:], uint32(w.meta.NLabels))
		binary.LittleEndian.PutUint32(hdr[16:], uint32(nb))
		binary.LittleEndian.PutUint64(hdr[24:], math.Float64bits(w.meta.Beta))
		binary.LittleEndian.PutUint64(hdr[32:], math.Float64bits(w.meta.Gamma))
		binary.LittleEndian.PutUint64(hdr[40:], uint64(w.meta.Nodes))
		binary.LittleEndian.PutUint64(hdr[48:], uint64(w.meta.Edges))
		binary.LittleEndian.PutUint64(hdr[56:], w.meta.Entries)
		binary.LittleEndian.PutUint64(hdr[64:], seqTablesOff)
		binary.LittleEndian.PutUint64(hdr[72:], postingsOff)
		binary.LittleEndian.PutUint64(hdr[80:], postingsLen)
		binary.LittleEndian.PutUint64(hdr[88:], contextOff)
		binary.LittleEndian.PutUint64(hdr[96:], contextLen)
		binary.LittleEndian.PutUint64(hdr[104:], fileSize)
		bw.Write(hdr)

		// Descriptor table.
		var u64 [8]byte
		wr64 := func(v uint64) {
			binary.LittleEndian.PutUint64(u64[:], v)
			bw.Write(u64[:])
		}
		for l := 0; l < nLens; l++ {
			wr64(tableOffs[l])
			wr64(uint64(len(keys[l])))
			wr64(w.meta.EntriesPerLen[l])
		}

		// Key tables.
		var u32 [4]byte
		wr32 := func(v uint32) {
			binary.LittleEndian.PutUint32(u32[:], v)
			bw.Write(u32[:])
		}
		var lbl [2 * maxPathNodes]byte
		var blobOff uint64
		for l := 0; l < nLens; l++ {
			for _, k := range keys[l] {
				bw.Write(labelBytes(lbl[:0], k[:l+1]))
				wr64(blobOff)
				var end uint32
				for _, r := range w.byLen[l][k] {
					end += uint32(len(r.enc))
					wr32(r.count)
					wr32(end)
				}
				blobOff += uint64(end)
			}
		}

		// Posting blobs.
		for l := 0; l < nLens; l++ {
			for _, k := range keys[l] {
				for _, r := range w.byLen[l][k] {
					bw.Write(r.enc)
				}
			}
		}
		for pad := contextOff - off; pad > 0; pad-- {
			bw.WriteByte(0)
		}

		// Context section.
		wr32(uint32(w.ctxLabels))
		wr32(0)
		for _, v := range w.card {
			wr32(uint32(v))
		}
		for pad := ctxPad; pad > 0; pad-- {
			bw.WriteByte(0)
		}
		for _, v := range w.ppu {
			wr64(math.Float64bits(v))
		}
		for _, v := range w.fpu {
			wr64(math.Float64bits(v))
		}
		return bw.Flush()
	})
	if err != nil {
		return 0, err
	}
	return int64(fileSize), nil
}
