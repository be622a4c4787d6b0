// Package binio provides small error-accumulating binary readers and
// writers: the one codec behind the PGD snapshot and the WAL. All integers
// are little-endian; strings are length-prefixed.
package binio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// MaxStringLen bounds length-prefixed reads so corrupt files cannot force
// huge allocations.
const MaxStringLen = 1 << 20

// Writer accumulates the first error and turns subsequent writes into
// no-ops, so call sites stay linear.
type Writer struct {
	w   *bufio.Writer
	err error
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: bufio.NewWriter(w)} }

// Err returns the first error encountered.
func (b *Writer) Err() error { return b.err }

// Flush flushes the underlying buffer and returns the first error.
func (b *Writer) Flush() error {
	if b.err != nil {
		return b.err
	}
	return b.w.Flush()
}

// U8 writes one byte.
func (b *Writer) U8(v uint8) {
	if b.err == nil {
		b.err = b.w.WriteByte(v)
	}
}

// U32 writes a 32-bit integer.
func (b *Writer) U32(v uint32) {
	if b.err == nil {
		var buf [4]byte
		binary.LittleEndian.PutUint32(buf[:], v)
		_, b.err = b.w.Write(buf[:])
	}
}

// U64 writes a 64-bit integer.
func (b *Writer) U64(v uint64) {
	if b.err == nil {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], v)
		_, b.err = b.w.Write(buf[:])
	}
}

// F64 writes a float64.
func (b *Writer) F64(v float64) { b.U64(math.Float64bits(v)) }

// Str writes a length-prefixed string.
func (b *Writer) Str(s string) {
	b.U32(uint32(len(s)))
	if b.err == nil {
		_, b.err = b.w.WriteString(s)
	}
}

// Reader accumulates the first error and returns zero values afterwards.
type Reader struct {
	r   *bufio.Reader
	err error
}

// NewReader wraps r.
func NewReader(r io.Reader) *Reader { return &Reader{r: bufio.NewReader(r)} }

// Err returns the first error encountered.
func (b *Reader) Err() error { return b.err }

// U8 reads one byte.
func (b *Reader) U8() uint8 {
	if b.err != nil {
		return 0
	}
	v, err := b.r.ReadByte()
	b.err = err
	return v
}

// U32 reads a 32-bit integer.
func (b *Reader) U32() uint32 {
	if b.err != nil {
		return 0
	}
	var buf [4]byte
	_, b.err = io.ReadFull(b.r, buf[:])
	return binary.LittleEndian.Uint32(buf[:])
}

// U64 reads a 64-bit integer.
func (b *Reader) U64() uint64 {
	if b.err != nil {
		return 0
	}
	var buf [8]byte
	_, b.err = io.ReadFull(b.r, buf[:])
	return binary.LittleEndian.Uint64(buf[:])
}

// F64 reads a float64.
func (b *Reader) F64() float64 { return math.Float64frombits(b.U64()) }

// Str reads a length-prefixed string.
func (b *Reader) Str() string {
	n := b.U32()
	if b.err != nil {
		return ""
	}
	if n > MaxStringLen {
		b.err = fmt.Errorf("binio: string length %d too large", n)
		return ""
	}
	buf := make([]byte, n)
	_, b.err = io.ReadFull(b.r, buf)
	return string(buf)
}
