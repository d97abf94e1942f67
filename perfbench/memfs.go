package main

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/oblivfd/oblivfd/internal/store"
)

// memFS is an in-memory store.FS: the benchmark's tmpfs. fsync returns at
// once. Files written in place (snapshots, FENCE) keep their bytes. A file
// opened for appending (the WAL) keeps only its size: nothing reads a WAL
// back within a run, and a durable discovery appends about 450 MB across
// primary and replica, so a read of it fails rather than return made-up
// bytes. It supports what the durable store does on a fresh directory:
// appends, temp-file-and-rename snapshots, truncation and listing. Safe for
// concurrent use.
type memFS struct {
	mu    sync.Mutex
	files map[string]*memData
	dirs  map[string]bool
	temps int
}

type memData struct {
	mu   sync.Mutex
	data []byte
	sink bool  // append-only: bytes are counted in n, not kept
	n    int64 // size of a sink
}

func newMemFS() *memFS {
	return &memFS{files: map[string]*memData{}, dirs: map[string]bool{"/": true, ".": true}}
}

var _ store.FS = (*memFS)(nil)

func notExist(op, name string) error {
	return &fs.PathError{Op: op, Path: name, Err: fs.ErrNotExist}
}

func (m *memFS) MkdirAll(path string, _ os.FileMode) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for p := filepath.Clean(path); ; p = filepath.Dir(p) {
		m.dirs[p] = true
		if p == filepath.Dir(p) {
			return nil
		}
	}
}

func (m *memFS) Open(name string) (store.File, error) {
	return m.OpenFile(name, os.O_RDONLY, 0)
}

func (m *memFS) OpenFile(name string, flag int, _ os.FileMode) (store.File, error) {
	name = filepath.Clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.dirs[name] {
		return &memFile{name: name}, nil
	}
	d, ok := m.files[name]
	if !ok {
		if flag&os.O_CREATE == 0 {
			return nil, notExist("open", name)
		}
		if !m.dirs[filepath.Dir(name)] {
			return nil, notExist("open", name)
		}
		d = &memData{}
		m.files[name] = d
	}
	if flag&os.O_TRUNC != 0 {
		if err := d.truncate(0); err != nil {
			return nil, err
		}
	}
	if flag&os.O_APPEND != 0 {
		d.mu.Lock()
		d.sink = d.sink || len(d.data) == 0
		d.mu.Unlock()
	}
	return &memFile{name: name, d: d}, nil
}

func (m *memFS) CreateTemp(dir, pattern string) (store.File, error) {
	m.mu.Lock()
	m.temps++
	n := m.temps
	m.mu.Unlock()
	name := strings.Replace(pattern, "*", fmt.Sprint(n), 1)
	if !strings.Contains(pattern, "*") {
		name = pattern + fmt.Sprint(n)
	}
	return m.OpenFile(filepath.Join(dir, name), os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o600)
}

func (m *memFS) ReadDir(name string) ([]os.DirEntry, error) {
	name = filepath.Clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.dirs[name] {
		return nil, notExist("readdir", name)
	}
	var out []os.DirEntry
	for p, d := range m.files {
		if filepath.Dir(p) == name {
			out = append(out, memEntry{name: filepath.Base(p), size: d.size()})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out, nil
}

func (m *memFS) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	d, ok := m.files[filepath.Clean(name)]
	m.mu.Unlock()
	if !ok {
		return nil, notExist("read", name)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.sink {
		return nil, errSink
	}
	return append([]byte(nil), d.data...), nil
}

func (m *memFS) Rename(oldpath, newpath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	d, ok := m.files[filepath.Clean(oldpath)]
	if !ok {
		return notExist("rename", oldpath)
	}
	delete(m.files, filepath.Clean(oldpath))
	m.files[filepath.Clean(newpath)] = d
	return nil
}

func (m *memFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[filepath.Clean(name)]; !ok {
		return notExist("remove", name)
	}
	delete(m.files, filepath.Clean(name))
	return nil
}

func (m *memFS) Truncate(name string, size int64) error {
	m.mu.Lock()
	d, ok := m.files[filepath.Clean(name)]
	m.mu.Unlock()
	if !ok {
		return notExist("truncate", name)
	}
	return d.truncate(size)
}

var errSink = errors.New("memfs: contents of an append-only file are not kept")

func (d *memData) size() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.sink {
		return d.n
	}
	return int64(len(d.data))
}

func (d *memData) truncate(size int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	switch {
	case size < 0:
		return errors.New("memfs: negative truncate")
	case d.sink:
		if size > d.n {
			return errSink
		}
		d.n = size
	case size <= int64(len(d.data)):
		d.data = d.data[:size]
	default:
		d.data = append(d.data, make([]byte, size-int64(len(d.data)))...)
	}
	return nil
}

// memFile is an open handle; a nil d is a directory (opened for fsync).
type memFile struct {
	name string
	d    *memData
	pos  int64
}

func (f *memFile) Name() string { return f.name }
func (f *memFile) Sync() error  { return nil }
func (f *memFile) Close() error { return nil }

func (f *memFile) Read(p []byte) (int, error) {
	if f.d == nil {
		return 0, io.EOF
	}
	f.d.mu.Lock()
	defer f.d.mu.Unlock()
	if f.d.sink {
		return 0, errSink
	}
	if f.pos >= int64(len(f.d.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.d.data[f.pos:])
	f.pos += int64(n)
	return n, nil
}

func (f *memFile) Write(p []byte) (int, error) {
	if f.d == nil {
		return 0, errors.New("memfs: write to directory")
	}
	f.d.mu.Lock()
	defer f.d.mu.Unlock()
	if f.d.sink {
		f.d.n += int64(len(p))
		return len(p), nil
	}
	if f.pos == int64(len(f.d.data)) {
		f.d.data = append(f.d.data, p...)
	} else {
		if end := f.pos + int64(len(p)); end > int64(len(f.d.data)) {
			f.d.data = append(f.d.data, make([]byte, end-int64(len(f.d.data)))...)
		}
		copy(f.d.data[f.pos:], p)
	}
	f.pos += int64(len(p))
	return len(p), nil
}

func (f *memFile) Seek(offset int64, whence int) (int64, error) {
	var base int64
	switch whence {
	case io.SeekCurrent:
		base = f.pos
	case io.SeekEnd:
		if f.d != nil {
			base = f.d.size()
		}
	}
	if base+offset < 0 {
		return 0, errors.New("memfs: negative seek")
	}
	f.pos = base + offset
	return f.pos, nil
}

func (f *memFile) Truncate(size int64) error {
	if f.d == nil {
		return errors.New("memfs: truncate directory")
	}
	return f.d.truncate(size)
}

func (f *memFile) Stat() (os.FileInfo, error) {
	var size int64
	if f.d != nil {
		size = f.d.size()
	}
	return memEntry{name: filepath.Base(f.name), size: size, dir: f.d == nil}, nil
}

// memEntry is both the fs.DirEntry and the fs.FileInfo of a memFS file.
type memEntry struct {
	name string
	size int64
	dir  bool
}

func (e memEntry) Name() string               { return e.name }
func (e memEntry) IsDir() bool                { return e.dir }
func (e memEntry) Type() fs.FileMode          { return e.Mode().Type() }
func (e memEntry) Info() (fs.FileInfo, error) { return e, nil }
func (e memEntry) Size() int64                { return e.size }
func (e memEntry) ModTime() time.Time         { return time.Time{} }
func (e memEntry) Sys() any                   { return nil }
func (e memEntry) Mode() fs.FileMode {
	if e.dir {
		return fs.ModeDir | 0o755
	}
	return 0o644
}
