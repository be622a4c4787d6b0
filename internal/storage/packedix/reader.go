package packedix

import (
	"bytes"
	"encoding/binary"
	"math"
	"sort"
	"unsafe"
)

// File is an opened packed index. All probe methods are safe for concurrent
// use: they read the immutable mapping and write only caller-owned scratch.
type File struct {
	data   []byte
	mapped bool // data is an mmap'd region (munmap on Close)

	meta    Meta
	flags   uint16
	tables  []tableDesc // one per path length 0..MaxLen
	posts   []byte      // postings section
	ctx     []byte      // context section
	binding string      // "mmap" or "heap", for observability
}

type tableDesc struct {
	entries []byte // the raw key table
	count   int
	stride  int
	keyLen  int // 2*(l+1) label bytes
}

// Open maps the packed file at path read-only and validates its structure.
// The mapping is lazy: open cost is header + descriptor validation, not
// file size.
func Open(path string) (*File, error) {
	data, mapped, err := mapFile(path)
	if err != nil {
		return nil, err
	}
	f, err := open(data, mapped)
	if err != nil {
		if mapped {
			unmap(data)
		}
		return nil, err
	}
	return f, nil
}

// OpenBytes opens a packed index held in memory. Used by tests and the fuzz
// target; Close never unmaps.
func OpenBytes(data []byte) (*File, error) {
	return open(data, false)
}

func open(data []byte, mapped bool) (*File, error) {
	if len(data) < headerSize {
		return nil, corruptf("file of %d bytes is smaller than the %d-byte header", len(data), headerSize)
	}
	if !bytes.Equal(data[:4], []byte("PEGX")) {
		return nil, corruptf("bad magic %q", data[:4])
	}
	if v := binary.LittleEndian.Uint16(data[4:]); v != Version {
		return nil, corruptf("format version %d, this build reads %d", v, Version)
	}
	f := &File{data: data, mapped: mapped, binding: "heap"}
	if mapped {
		f.binding = "mmap"
	}
	f.flags = binary.LittleEndian.Uint16(data[6:])
	maxLen := binary.LittleEndian.Uint32(data[8:])
	nLabels := binary.LittleEndian.Uint32(data[12:])
	nBuckets := binary.LittleEndian.Uint32(data[16:])
	if maxLen > maxSupportedLen {
		return nil, corruptf("maxLen %d exceeds supported %d", maxLen, maxSupportedLen)
	}
	if nLabels < 1 || nLabels > maxLabels {
		return nil, corruptf("nLabels %d out of range", nLabels)
	}
	if nBuckets < 1 || nBuckets > maxBuckets {
		return nil, corruptf("nBuckets %d out of range", nBuckets)
	}
	f.meta = Meta{
		MaxLen:   int(maxLen),
		NLabels:  int(nLabels),
		NBuckets: int(nBuckets),
		Beta:     math.Float64frombits(binary.LittleEndian.Uint64(data[24:])),
		Gamma:    math.Float64frombits(binary.LittleEndian.Uint64(data[32:])),
	}
	nodes := binary.LittleEndian.Uint64(data[40:])
	edges := binary.LittleEndian.Uint64(data[48:])
	const maxCount = 1 << 40
	if nodes > maxCount || edges > maxCount {
		return nil, corruptf("node/edge counts %d/%d implausible", nodes, edges)
	}
	f.meta.Nodes = int(nodes)
	f.meta.Edges = int(edges)
	f.meta.Entries = binary.LittleEndian.Uint64(data[56:])
	seqTablesOff := binary.LittleEndian.Uint64(data[64:])
	postingsOff := binary.LittleEndian.Uint64(data[72:])
	postingsLen := binary.LittleEndian.Uint64(data[80:])
	contextOff := binary.LittleEndian.Uint64(data[88:])
	contextLen := binary.LittleEndian.Uint64(data[96:])
	fileSize := binary.LittleEndian.Uint64(data[104:])
	if fileSize != uint64(len(data)) {
		return nil, corruptf("header says %d bytes, file has %d (truncated?)", fileSize, len(data))
	}
	sect := func(name string, off, n uint64) ([]byte, error) {
		if off > uint64(len(data)) || n > uint64(len(data))-off {
			return nil, corruptf("%s section [%d,+%d) outside %d-byte file", name, off, n, len(data))
		}
		return data[off : off+n : off+n], nil
	}
	var err error
	if f.posts, err = sect("postings", postingsOff, postingsLen); err != nil {
		return nil, err
	}
	if f.ctx, err = sect("context", contextOff, contextLen); err != nil {
		return nil, err
	}
	nLens := f.meta.MaxLen + 1
	desc, err := sect("descriptor", seqTablesOff, uint64(nLens*descriptorSize))
	if err != nil {
		return nil, err
	}
	f.meta.EntriesPerLen = make([]uint64, nLens)
	f.tables = make([]tableDesc, nLens)
	for l := 0; l < nLens; l++ {
		d := desc[l*descriptorSize:]
		tableOff := binary.LittleEndian.Uint64(d)
		seqCount := binary.LittleEndian.Uint64(d[8:])
		f.meta.EntriesPerLen[l] = binary.LittleEndian.Uint64(d[16:])
		stride := uint64(entryStride(l, f.meta.NBuckets))
		if seqCount > uint64(len(data))/stride {
			return nil, corruptf("length-%d table claims %d sequences", l, seqCount)
		}
		tbl, err := sect("key table", tableOff, seqCount*stride)
		if err != nil {
			return nil, err
		}
		f.tables[l] = tableDesc{entries: tbl, count: int(seqCount), stride: int(stride), keyLen: 2 * (l + 1)}
	}
	return f, nil
}

// Meta returns the header metadata.
func (f *File) Meta() Meta { return f.meta }

// Binding reports how the file is held: "mmap" or "heap".
func (f *File) Binding() string { return f.binding }

// MappedBytes is the size of the backing region (mapped or copied).
func (f *File) MappedBytes() int64 { return int64(len(f.data)) }

// NumSeqs returns the number of distinct sequences in the file.
func (f *File) NumSeqs() int {
	n := 0
	for _, t := range f.tables {
		n += t.count
	}
	return n
}

// Close releases the mapping. Outstanding zero-copy views (context slices,
// in-flight Decode callbacks) must not be used afterwards.
func (f *File) Close() error {
	data := f.data
	f.data, f.posts, f.ctx, f.tables = nil, nil, nil, nil
	if f.mapped {
		f.mapped = false
		return unmap(data)
	}
	return nil
}

// Seq is a handle on one sequence's key-table entry. Valid until Close.
type Seq struct {
	f     *File
	entry []byte
	n     int // labels in the sequence
}

// FindSeq binary-searches the length-(len(labels)-1) key table. The bool
// reports presence.
func (f *File) FindSeq(labels []uint16) (Seq, bool) {
	l := len(labels) - 1
	if l < 0 || l >= len(f.tables) {
		return Seq{}, false
	}
	t := &f.tables[l]
	var keyBuf [2 * maxPathNodes]byte
	key := labelBytes(keyBuf[:0], labels)
	i := sort.Search(t.count, func(i int) bool {
		return bytes.Compare(t.entries[i*t.stride:i*t.stride+t.keyLen], key) >= 0
	})
	if i >= t.count || !bytes.Equal(t.entries[i*t.stride:i*t.stride+t.keyLen], key) {
		return Seq{}, false
	}
	return Seq{f: f, entry: t.entries[i*t.stride : (i+1)*t.stride], n: l + 1}, true
}

// SeqAt returns the i-th sequence (label order) of path length l.
func (f *File) SeqAt(l, i int) Seq {
	t := &f.tables[l]
	return Seq{f: f, entry: t.entries[i*t.stride : (i+1)*t.stride], n: l + 1}
}

// SeqsAtLen returns how many sequences of path length l are stored.
func (f *File) SeqsAtLen(l int) int {
	if l < 0 || l >= len(f.tables) {
		return 0
	}
	return f.tables[l].count
}

// Labels decodes the sequence's labels into dst (reused if cap suffices).
func (s Seq) Labels(dst []uint16) []uint16 {
	dst = dst[:0]
	for i := 0; i < s.n; i++ {
		dst = append(dst, binary.BigEndian.Uint16(s.entry[2*i:]))
	}
	return dst
}

// Count returns the stored record count of bucket b — the histogram cell.
func (s Seq) Count(b int) uint32 {
	return binary.LittleEndian.Uint32(s.entry[2*s.n+8+8*b:])
}

func (s Seq) end(b int) uint32 {
	return binary.LittleEndian.Uint32(s.entry[2*s.n+8+8*b+4:])
}

// Decode streams the sequence's records for buckets fromBucket..NBuckets-1
// in storage order (bucket ascending, insertion order within a bucket). The
// nodes slice passed to fn aliases scratch owned by Decode and is only
// valid during the call; fn returns false to stop early. Every offset and
// varint is bounds-checked against the blob and every node id against the
// header's node count, so a corrupt file yields ErrCorrupt, never a panic,
// an out-of-bounds read or an id outside the graph.
func (s Seq) Decode(fromBucket int, fn func(bucket int, nodes []uint32, prle, prn float64) bool) error {
	f := s.f
	nb := f.meta.NBuckets
	if fromBucket < 0 {
		fromBucket = 0
	}
	if fromBucket >= nb {
		return nil
	}
	blobOff := binary.LittleEndian.Uint64(s.entry[2*s.n:])
	blobEnd := uint64(s.end(nb - 1))
	if blobOff > uint64(len(f.posts)) || blobEnd > uint64(len(f.posts))-blobOff {
		return corruptf("posting blob [%d,+%d) outside postings section", blobOff, blobEnd)
	}
	blob := f.posts[blobOff : blobOff+blobEnd]

	// Node ids index graph columns downstream: one at or past the header's
	// node count is corruption, not a path.
	idLimit := min(int64(f.meta.Nodes), math.MaxUint32+1)
	var nodes [maxPathNodes]uint32
	prevEnd := uint32(0)
	if fromBucket > 0 {
		prevEnd = s.end(fromBucket - 1)
	}
	for b := fromBucket; b < nb; b++ {
		end := s.end(b)
		if end < prevEnd || uint64(end) > uint64(len(blob)) {
			return corruptf("bucket %d range [%d,%d) not monotone within %d-byte blob", b, prevEnd, end, len(blob))
		}
		cnt := s.Count(b)
		p := blob[prevEnd:end]
		var prev0 uint32
		for r := uint32(0); r < cnt; r++ {
			if len(p) < 1 {
				return corruptf("bucket %d truncated at record %d/%d", b, r, cnt)
			}
			flags := p[0]
			p = p[1:]
			d, w := binary.Varint(p)
			if w <= 0 {
				return corruptf("bad node[0] varint in bucket %d", b)
			}
			p = p[w:]
			v := int64(prev0) + d
			if v < 0 || v >= idLimit {
				return corruptf("node[0] %d outside the %d-node graph in bucket %d", v, f.meta.Nodes, b)
			}
			nodes[0] = uint32(v)
			prev0 = nodes[0]
			for i := 1; i < s.n; i++ {
				d, w := binary.Varint(p)
				if w <= 0 {
					return corruptf("bad node[%d] varint in bucket %d", i, b)
				}
				p = p[w:]
				v := int64(nodes[i-1]) + d
				if v < 0 || v >= idLimit {
					return corruptf("node[%d] %d outside the %d-node graph in bucket %d", i, v, f.meta.Nodes, b)
				}
				nodes[i] = uint32(v)
			}
			prle, prn := 1.0, 1.0
			if flags&1 == 0 {
				if len(p) < 8 {
					return corruptf("bucket %d record %d truncated before prle", b, r)
				}
				prle = math.Float64frombits(binary.LittleEndian.Uint64(p))
				p = p[8:]
			}
			if flags&2 == 0 {
				if len(p) < 8 {
					return corruptf("bucket %d record %d truncated before prn", b, r)
				}
				prn = math.Float64frombits(binary.LittleEndian.Uint64(p))
				p = p[8:]
			}
			if !fn(b, nodes[:s.n], prle, prn) {
				return nil
			}
		}
		prevEnd = end
	}
	return nil
}

// Context returns the embedded context tables. When the mapping is 8-byte
// aligned (always true for mmap; page-aligned base) the returned slices
// alias the file — zero copies, zero heap. An unaligned heap buffer (fuzz
// inputs) falls back to decoding copies.
func (f *File) Context() (nLabels int, card []int32, ppu, fpu []float64, err error) {
	c := f.ctx
	if len(c) < 8 {
		return 0, nil, nil, nil, corruptf("context section of %d bytes lacks header", len(c))
	}
	nLabels = int(binary.LittleEndian.Uint32(c))
	if nLabels < 1 || nLabels > maxLabels {
		return 0, nil, nil, nil, corruptf("context nLabels %d out of range", nLabels)
	}
	cells := f.meta.Nodes * nLabels
	cardLen := uint64(4 * cells)
	pad := (8 - cardLen%8) % 8
	want := 8 + cardLen + pad + uint64(16*cells)
	if uint64(len(c)) != want {
		return 0, nil, nil, nil, corruptf("context section is %d bytes, want %d for %d cells", len(c), want, cells)
	}
	cardB := c[8 : 8+cardLen]
	ppuB := c[8+cardLen+pad : 8+cardLen+pad+uint64(8*cells)]
	fpuB := c[8+cardLen+pad+uint64(8*cells):]
	if cells == 0 {
		return nLabels, []int32{}, []float64{}, []float64{}, nil
	}
	if uintptr(unsafe.Pointer(&ppuB[0]))%8 == 0 && uintptr(unsafe.Pointer(&cardB[0]))%4 == 0 {
		card = unsafe.Slice((*int32)(unsafe.Pointer(&cardB[0])), cells)
		ppu = unsafe.Slice((*float64)(unsafe.Pointer(&ppuB[0])), cells)
		fpu = unsafe.Slice((*float64)(unsafe.Pointer(&fpuB[0])), cells)
		return nLabels, card, ppu, fpu, nil
	}
	card = make([]int32, cells)
	ppu = make([]float64, cells)
	fpu = make([]float64, cells)
	for i := 0; i < cells; i++ {
		card[i] = int32(binary.LittleEndian.Uint32(cardB[4*i:]))
		ppu[i] = math.Float64frombits(binary.LittleEndian.Uint64(ppuB[8*i:]))
		fpu[i] = math.Float64frombits(binary.LittleEndian.Uint64(fpuB[8*i:]))
	}
	return nLabels, card, ppu, fpu, nil
}
