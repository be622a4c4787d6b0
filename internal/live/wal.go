package live

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"

	"repro/internal/storage"
	"repro/internal/storage/binio"
)

// The write-ahead log is an append-only record log with its own framing: a
// 4-byte magic, then per record crc32(payload) ‖ len(payload) ‖ payload. One record carries one whole
// mutation batch (a count followed by length-prefixed mutations), so the
// unit of durability equals the unit of acknowledgment: replay loads
// records until EOF or the first corrupt record and truncates the torn
// tail, and a crash mid-append can never resurrect a prefix of an
// unacknowledged batch.
const (
	walMagic     = "PEGW"
	walRecHeader = 4 + 4
	// walMaxPayload bounds one batch record; generous because a record now
	// carries a whole ingest batch (up to thousands of mutations).
	walMaxPayload = 1 << 26
)

type wal struct {
	f    storage.File
	path string
	// size is the known-good end of the log: everything below it is
	// acknowledged, everything above is garbage from a failed append. A
	// failed append truncates back to it so torn bytes can never sit in
	// front of (and at recovery swallow) later acknowledged records.
	size int64
	// broken is set when the log refuses further appends: even the rollback
	// truncate failed, so it can no longer guarantee its invariant, or the
	// generation flip meant to retire it failed after its rename, so a power
	// cut may leave either this log or the new one named by MANIFEST.json.
	broken error
}

// createWAL creates a log (truncating any previous file) holding ms as its
// first batch, if any: compaction rotates the tail of the old log into the
// new generation's this way.
func createWAL(fs storage.FS, path string, ms []Mutation) (*wal, error) {
	f, err := fs.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("live: wal: %w", err)
	}
	if _, err = f.Write([]byte(walMagic)); err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("live: wal: %w", err)
	}
	w := &wal{f: f, path: path, size: int64(len(walMagic))}
	if len(ms) > 0 {
		if err := w.append(ms); err != nil {
			f.Close()
			return nil, err
		}
	}
	return w, nil
}

// openWAL opens an existing log, replaying its mutations and truncating any
// corrupt tail. Both it and createWAL open the file O_APPEND, so every
// write lands at the end, also after a rollback truncate.
func openWAL(fs storage.FS, path string) (*wal, []Mutation, error) {
	f, err := fs.OpenFile(path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("live: wal: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("live: wal: %w", err)
	}
	size := st.Size()
	hdr := make([]byte, len(walMagic))
	if _, err := f.ReadAt(hdr, 0); err != nil || string(hdr) != walMagic {
		f.Close()
		return nil, nil, fmt.Errorf("live: wal: bad magic %q", hdr)
	}
	var (
		muts []Mutation
		off  = int64(len(walMagic))
		rec  [walRecHeader]byte
	)
	for off < size {
		if _, err := f.ReadAt(rec[:], off); err != nil {
			break
		}
		want := binary.LittleEndian.Uint32(rec[0:])
		plen := binary.LittleEndian.Uint32(rec[4:])
		if plen == 0 || plen > walMaxPayload || off+walRecHeader+int64(plen) > size {
			break
		}
		payload := make([]byte, plen)
		if _, err := f.ReadAt(payload, off+walRecHeader); err != nil {
			break
		}
		if crc32.ChecksumIEEE(payload) != want {
			break
		}
		batch, err := decodeBatch(payload)
		if err != nil {
			break
		}
		muts = append(muts, batch...)
		off += walRecHeader + int64(plen)
	}
	if off < size {
		if err := f.Truncate(off); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("live: wal: truncate corrupt tail: %w", err)
		}
	}
	return &wal{f: f, path: path, size: off}, muts, nil
}

// encodeBatch serializes a mutation batch as one WAL record payload:
// count ‖ (len ‖ mutation)×count. Every mutation goes through one writer
// into one buffer; each length prefix is written once its mutation is.
func encodeBatch(ms []Mutation) ([]byte, error) {
	var buf bytes.Buffer
	w := binio.NewWriter(&buf)
	w.U32(uint32(len(ms)))
	for i := range ms {
		w.U32(0)
		if err := w.Flush(); err != nil {
			return nil, err
		}
		start := buf.Len()
		if err := ms[i].encode(w); err != nil {
			return nil, err
		}
		if err := w.Flush(); err != nil {
			return nil, err
		}
		binary.LittleEndian.PutUint32(buf.Bytes()[start-4:], uint32(buf.Len()-start))
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	if buf.Len() > walMaxPayload {
		return nil, fmt.Errorf("live: wal batch of %d bytes too large", buf.Len())
	}
	return buf.Bytes(), nil
}

// decodeBatch parses one WAL record payload back into its mutation batch.
func decodeBatch(payload []byte) ([]Mutation, error) {
	if len(payload) < 4 {
		return nil, fmt.Errorf("live: wal batch too short")
	}
	count := binary.LittleEndian.Uint32(payload)
	payload = payload[4:]
	// A mutation takes at least its length prefix and tag: a count the
	// payload cannot back must not size the allocation.
	ms := make([]Mutation, 0, min(count, uint32(len(payload)/5)))
	for i := uint32(0); i < count; i++ {
		if len(payload) < 4 {
			return nil, fmt.Errorf("live: wal batch truncated at mutation %d", i)
		}
		mlen := binary.LittleEndian.Uint32(payload)
		payload = payload[4:]
		if uint32(len(payload)) < mlen {
			return nil, fmt.Errorf("live: wal batch truncated at mutation %d", i)
		}
		m, err := decodeMutation(payload[:mlen])
		if err != nil {
			return nil, err
		}
		ms = append(ms, m)
		payload = payload[mlen:]
	}
	if len(payload) != 0 {
		return nil, fmt.Errorf("live: wal batch has %d trailing bytes", len(payload))
	}
	return ms, nil
}

// append writes one mutation batch as a single fsynced record, so a batch
// is durable exactly when it is acknowledged — all of it or none of it. On
// any failure the log is rolled back to its last known-good end: a partial
// record must not linger (recovery would truncate at it, swallowing later
// acknowledged batches), and a fully written but unacknowledged record must
// not replay (the client was told the batch failed).
func (w *wal) append(ms []Mutation) error {
	if w.broken != nil {
		return w.broken
	}
	payload, err := encodeBatch(ms)
	if err != nil {
		return err
	}
	buf := make([]byte, 0, walRecHeader+len(payload))
	var hdr [walRecHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:], crc32.ChecksumIEEE(payload))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(payload)))
	buf = append(buf, hdr[:]...)
	buf = append(buf, payload...)
	fail := func(op string, err error) error {
		if w.f.Truncate(w.size) != nil {
			w.broken = errors.New("live: wal unusable after failed rollback")
		}
		return fmt.Errorf("live: wal %s: %w", op, err)
	}
	if _, err := w.f.Write(buf); err != nil {
		return fail("append", err)
	}
	if err := w.f.Sync(); err != nil {
		return fail("sync", err)
	}
	w.size += int64(len(buf))
	return nil
}

// Close syncs and closes the log.
func (w *wal) Close() error {
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}
