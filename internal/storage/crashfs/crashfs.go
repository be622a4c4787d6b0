// Package crashfs is a storage.FS for tests that fails calls on demand and
// models a power cut over a real directory tree.
//
// Calls go through to the operating system, so the code under test reads
// and writes real files, while the model tracks what a power cut would
// leave: a file's bytes as of its last Sync, and a directory's entries
// (creates, renames, removes) as of its last SyncDir. PowerCut rewrites the
// tree to that state. Only files reached through the FS are modelled; a
// file the FS first meets already on disk counts as durable as it is, and
// directories (made with os.MkdirAll) count as durable once made.
package crashfs

import (
	"errors"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/storage"
)

// ErrPowerCut is the error a test's Fail hook returns for the calls after
// the power went out.
var ErrPowerCut = errors.New("crashfs: power cut")

// The operations Fail is asked about.
const (
	OpOpen     = "open"
	OpWrite    = "write"
	OpReadAt   = "readat"
	OpSync     = "sync"
	OpTruncate = "truncate"
	OpStat     = "stat"
	OpClose    = "close"
	OpRename   = "rename"
	OpRemove   = "remove"
	OpSyncDir  = "syncdir"
)

// FS is the modelled filesystem. The zero value is ready to use.
type FS struct {
	// Fail, when set, is asked before every call of the FS and of its
	// files, numbered from 1, with the operation and the path it acts on
	// (the name a file was opened under, the old name of a rename). A
	// non-nil result fails the call without effect; a failed Close still
	// releases the descriptor.
	Fail func(call int, op, path string) error

	mu    sync.Mutex
	calls int
	// names is what each modelled path holds now, durable what a power cut
	// would leave there; a nil durable entry is a path a cut removes.
	names   map[string]*inode
	durable map[string]*inode
}

// inode is one file's content as of its last Sync.
type inode struct{ synced []byte }

var _ storage.FS = (*FS)(nil)

// Calls returns the number of calls made so far.
func (fs *FS) Calls() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.calls
}

// enter counts a call and asks Fail about it; it returns with fs.mu held
// when the call may go ahead.
func (fs *FS) enter(op, path string) error {
	fs.mu.Lock()
	fs.calls++
	if fs.Fail != nil {
		if err := fs.Fail(fs.calls, op, path); err != nil {
			fs.mu.Unlock()
			return &os.PathError{Op: op, Path: path, Err: err}
		}
	}
	return nil
}

// track starts modelling path, as durable as the disk holds it now.
func (fs *FS) track(path string) {
	if fs.names == nil {
		fs.names, fs.durable = map[string]*inode{}, map[string]*inode{}
	}
	if _, ok := fs.durable[path]; ok {
		return
	}
	if _, ok := fs.names[path]; ok {
		return
	}
	if b, err := os.ReadFile(path); err == nil {
		ino := &inode{synced: b}
		fs.names[path], fs.durable[path] = ino, ino
	} else {
		fs.durable[path] = nil
	}
}

// OpenFile opens name read-write whatever flag asks, so Sync can read the
// content back through the descriptor.
func (fs *FS) OpenFile(name string, flag int, perm os.FileMode) (storage.File, error) {
	name = filepath.Clean(name)
	if err := fs.enter(OpOpen, name); err != nil {
		return nil, err
	}
	defer fs.mu.Unlock()
	fs.track(name)
	f, err := os.OpenFile(name, flag&^os.O_WRONLY|os.O_RDWR, perm)
	if err != nil {
		return nil, err
	}
	ino := fs.names[name]
	if ino == nil {
		ino = &inode{}
		fs.names[name] = ino
	}
	return &file{fs: fs, f: f, name: name, ino: ino}, nil
}

// Rename renames oldpath to newpath; a cut undoes it unless both
// directories were synced after it.
func (fs *FS) Rename(oldpath, newpath string) error {
	oldpath, newpath = filepath.Clean(oldpath), filepath.Clean(newpath)
	if err := fs.enter(OpRename, oldpath); err != nil {
		return err
	}
	defer fs.mu.Unlock()
	fs.track(oldpath)
	fs.track(newpath)
	if err := os.Rename(oldpath, newpath); err != nil {
		return err
	}
	fs.names[newpath] = fs.names[oldpath]
	delete(fs.names, oldpath)
	return nil
}

// Remove removes name; a cut undoes it unless its directory was synced
// after it.
func (fs *FS) Remove(name string) error {
	name = filepath.Clean(name)
	if err := fs.enter(OpRemove, name); err != nil {
		return err
	}
	defer fs.mu.Unlock()
	fs.track(name)
	if err := os.Remove(name); err != nil {
		return err
	}
	delete(fs.names, name)
	return nil
}

// SyncDir makes every modelled entry of dir durable as it stands.
func (fs *FS) SyncDir(dir string) error {
	dir = filepath.Clean(dir)
	if err := fs.enter(OpSyncDir, dir); err != nil {
		return err
	}
	defer fs.mu.Unlock()
	for p := range fs.durable {
		if filepath.Dir(p) == dir {
			fs.durable[p] = fs.names[p]
		}
	}
	for p, ino := range fs.names {
		if filepath.Dir(p) == dir {
			fs.durable[p] = ino
		}
	}
	return nil
}

// PowerCut rewrites every modelled path to what a power cut at this moment
// leaves: synced bytes under synced names, nothing else. A path whose
// directory is gone stays gone. The model then goes on from that state;
// files still open through the FS must not be used again.
func (fs *FS) PowerCut() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for p := range fs.names {
		if _, ok := fs.durable[p]; !ok {
			fs.durable[p] = nil
		}
	}
	for p, ino := range fs.durable {
		if ino == nil {
			if err := os.Remove(p); err != nil && !errors.Is(err, os.ErrNotExist) {
				return err
			}
			delete(fs.names, p)
			continue
		}
		if _, err := os.Stat(filepath.Dir(p)); errors.Is(err, os.ErrNotExist) {
			delete(fs.names, p)
			delete(fs.durable, p)
			continue
		}
		if err := os.WriteFile(p, ino.synced, 0o644); err != nil {
			return err
		}
		fs.names[p] = ino
	}
	return nil
}

type file struct {
	fs   *FS
	f    *os.File
	name string
	ino  *inode
}

func (f *file) Write(b []byte) (int, error) {
	if err := f.fs.enter(OpWrite, f.name); err != nil {
		return 0, err
	}
	defer f.fs.mu.Unlock()
	return f.f.Write(b)
}

func (f *file) ReadAt(b []byte, off int64) (int, error) {
	if err := f.fs.enter(OpReadAt, f.name); err != nil {
		return 0, err
	}
	defer f.fs.mu.Unlock()
	return f.f.ReadAt(b, off)
}

func (f *file) Truncate(size int64) error {
	if err := f.fs.enter(OpTruncate, f.name); err != nil {
		return err
	}
	defer f.fs.mu.Unlock()
	return f.f.Truncate(size)
}

func (f *file) Stat() (os.FileInfo, error) {
	if err := f.fs.enter(OpStat, f.name); err != nil {
		return nil, err
	}
	defer f.fs.mu.Unlock()
	return f.f.Stat()
}

// Sync makes the file's current content what a cut leaves in it.
func (f *file) Sync() error {
	if err := f.fs.enter(OpSync, f.name); err != nil {
		return err
	}
	defer f.fs.mu.Unlock()
	st, err := f.f.Stat()
	if err != nil {
		return err
	}
	b := make([]byte, st.Size())
	if _, err := f.f.ReadAt(b, 0); err != nil {
		return err
	}
	f.ino.synced = b
	return nil
}

func (f *file) Close() error {
	if err := f.fs.enter(OpClose, f.name); err != nil {
		f.f.Close()
		return err
	}
	defer f.fs.mu.Unlock()
	return f.f.Close()
}
