// Package storage holds the one durable-write protocol for persisted files
// and the filesystem it and the live WAL go through, which tests replace.
package storage

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// File is what the durable writers and the WAL use of an open file.
type File interface {
	io.WriteCloser
	io.ReaderAt
	Sync() error
	Truncate(size int64) error
	Stat() (os.FileInfo, error)
}

// FS is the filesystem the durable writers and the WAL go through. SyncDir
// fsyncs a directory, so that its creates, renames and removes survive a
// power cut.
type FS interface {
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	SyncDir(dir string) error
}

// OS is the operating system's filesystem.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err // not a nil *os.File in a non-nil File
	}
	return f, nil
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error             { return os.Remove(name) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// ErrRenamed marks a WriteFile that failed after its rename returned: path
// names the new bytes, but a power cut may still bring the old ones back.
var ErrRenamed = errors.New("storage: renamed, directory not synced")

// WriteFile replaces path with what write produces, durably: a temp file
// in the same directory is written, fsynced, closed and renamed over path,
// then the directory is fsynced. A power cut leaves the old file or the
// whole new one. A failure before the rename removes the temp file; one
// after it wraps ErrRenamed.
func WriteFile(fs FS, path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := fs.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fs.Rename(tmp, path)
	}
	if err != nil {
		fs.Remove(tmp)
		return err
	}
	if err := fs.SyncDir(filepath.Dir(path)); err != nil {
		return fmt.Errorf("%w: %w", ErrRenamed, err)
	}
	return nil
}
