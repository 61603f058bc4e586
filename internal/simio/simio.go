// Package simio is an in-memory simulated filesystem implementing the OS
// surface internal/durable performs its I/O through (durable.Fs), built for
// model-checking the durable recovery path the way internal/explore
// model-checks the NVM primitives.
//
// The simulation keeps two views of the world. The live view is what the
// running process observes: writes are visible to reads immediately, files
// appear in their directory as soon as they are created. The persistence
// journal records every mutating operation — writes, truncates, fsyncs,
// creates, renames, removes, directory syncs — in issue order, and is the
// ground truth for what a crash could leave behind: data written but not
// fsynced may be lost, partially written back, or torn mid-record;
// directory entries created or renamed but not dir-synced may vanish,
// resurrecting the file the rename replaced or dropping a freshly created
// log wholesale.
//
// image.go reconstructs, for every crash point k (crash strikes after the
// first k journaled operations were issued), the full set of byte images
// the model admits: per file, any prefix of its unsynced writes may have
// reached the medium, optionally with a torn tail of the first dropped
// write; per directory, any prefix of its unsynced entry operations.
// sweep.go runs a durable workload against the simulation, enumerates
// every crash point × image variant, recovers from each image via
// durable.OpenFs, and checks detectability plus the hash-pinned purity and
// idempotence of recovery (durable.StateHash).
package simio

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"detectable/internal/durable"
)

// OpKind enumerates the journaled mutating operations.
type OpKind uint8

const (
	// OpMkdir creates directory Path (entry staged in its parent).
	OpMkdir OpKind = iota + 1
	// OpCreate creates file Path with identity File (entry staged in its
	// parent directory until that directory is synced).
	OpCreate
	// OpWrite writes Data at Off into file File (staged until OpFsync).
	OpWrite
	// OpTruncate sets file File's length to Size (staged until OpFsync).
	OpTruncate
	// OpFsync makes every staged write/truncate of file File durable.
	OpFsync
	// OpRename atomically renames Path to To (entry change staged in the
	// parent directory until OpSyncDir).
	OpRename
	// OpRemove unlinks Path (staged in the parent directory).
	OpRemove
	// OpSyncDir makes every staged entry operation of directory Path
	// durable.
	OpSyncDir
)

var opNames = [...]string{OpMkdir: "mkdir", OpCreate: "create", OpWrite: "write", OpTruncate: "truncate",
	OpFsync: "fsync", OpRename: "rename", OpRemove: "remove", OpSyncDir: "syncdir"}

func (k OpKind) String() string {
	if k > 0 && int(k) < len(opNames) {
		return opNames[k]
	}
	return fmt.Sprintf("op(%d)", uint8(k))
}

// Op is one journaled mutating operation.
type Op struct {
	Kind OpKind
	Path string // file or directory the op targets
	To   string // rename destination
	File int    // file identity (stable across rename)
	Off  int64  // write offset
	Size int64  // truncate length
	Data []byte // written bytes (copied at journal time)
}

// entry is one live directory entry.
type entry struct {
	id    int
	isDir bool
}

// memFile is one live file's content, identified stably across renames.
type memFile struct {
	id   int
	path string
	data []byte
}

// Fs is the simulated filesystem. It implements durable.Fs; obtain one
// with New and pass it to durable.OpenFs. All methods are safe for
// concurrent use.
type Fs struct {
	mu      sync.Mutex
	nextID  int
	tree    map[string]entry // live path → entry (files and directories)
	files   map[int]*memFile // live content by file identity
	locked  map[string]bool
	journal []Op
}

// New returns an empty simulated filesystem with the roots "/" and "."
// pre-existing (and durable — the simulation models crashes of the store,
// not of the machine's root filesystem).
func New() *Fs {
	return &Fs{
		tree:   map[string]entry{"/": {isDir: true}, ".": {isDir: true}},
		files:  map[int]*memFile{},
		locked: map[string]bool{},
	}
}

func notExist(op, path string) error {
	return &fs.PathError{Op: op, Path: path, Err: fs.ErrNotExist}
}

func (f *Fs) log(op Op) { f.journal = append(f.journal, op) }

// Ops returns the number of journaled mutating operations so far — the
// crash-point space is [0, Ops()].
func (f *Fs) Ops() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.journal)
}

// Journal returns a copy of the persistence journal.
func (f *Fs) Journal() []Op {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]Op(nil), f.journal...)
}

// File is one open handle. Sequential Writes advance a private offset from
// zero (the freshly-created temporary-file pattern is the only sequential
// writer durable has); WriteAt is positional.
type File struct {
	fs  *Fs
	mf  *memFile
	off int64
}

// OpenFile implements durable.Fs.
func (f *Fs) OpenFile(path string, flag int, perm os.FileMode) (durable.File, error) {
	path = filepath.Clean(path)
	f.mu.Lock()
	defer f.mu.Unlock()
	e, ok := f.tree[path]
	if ok && e.isDir {
		return nil, &fs.PathError{Op: "open", Path: path, Err: fmt.Errorf("is a directory")}
	}
	if ok && flag&os.O_CREATE != 0 && flag&os.O_EXCL != 0 {
		return nil, &fs.PathError{Op: "open", Path: path, Err: fs.ErrExist}
	}
	if !ok {
		if flag&os.O_CREATE == 0 {
			return nil, notExist("open", path)
		}
		parent := filepath.Dir(path)
		if pe, pok := f.tree[parent]; !pok || !pe.isDir {
			return nil, notExist("open", path)
		}
		f.nextID++
		mf := &memFile{id: f.nextID, path: path}
		f.files[mf.id] = mf
		f.tree[path] = entry{id: mf.id}
		f.log(Op{Kind: OpCreate, Path: path, File: mf.id})
		return &File{fs: f, mf: mf}, nil
	}
	mf := f.files[e.id]
	if flag&os.O_TRUNC != 0 && len(mf.data) > 0 {
		mf.data = nil
		f.log(Op{Kind: OpTruncate, Path: mf.path, File: mf.id, Size: 0})
	}
	return &File{fs: f, mf: mf}, nil
}

// Name returns the path the file currently has.
func (h *File) Name() string {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	return h.mf.path
}

// ReadAt implements positional reads with os.File semantics: a short read
// returns io.EOF.
func (h *File) ReadAt(p []byte, off int64) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if off < 0 {
		return 0, &fs.PathError{Op: "read", Path: h.mf.path, Err: fmt.Errorf("negative offset")}
	}
	if off >= int64(len(h.mf.data)) {
		if len(p) == 0 {
			return 0, nil
		}
		return 0, io.EOF
	}
	n := copy(p, h.mf.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// WriteAt writes p at off: visible to reads immediately, durable only
// after Sync.
func (h *File) WriteAt(p []byte, off int64) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if off < 0 {
		return 0, &fs.PathError{Op: "write", Path: h.mf.path, Err: fmt.Errorf("negative offset")}
	}
	h.mf.data = applyWrite(h.mf.data, off, p)
	h.fs.log(Op{Kind: OpWrite, Path: h.mf.path, File: h.mf.id, Off: off, Data: append([]byte(nil), p...)})
	return len(p), nil
}

// Write writes at the handle's private sequential offset.
func (h *File) Write(p []byte) (int, error) {
	n, err := h.WriteAt(p, h.off)
	h.off += int64(n)
	return n, err
}

// Truncate sets the file length.
func (h *File) Truncate(size int64) error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if size < 0 {
		return &fs.PathError{Op: "truncate", Path: h.mf.path, Err: fmt.Errorf("negative size")}
	}
	h.mf.data = applyTruncate(h.mf.data, size)
	h.fs.log(Op{Kind: OpTruncate, Path: h.mf.path, File: h.mf.id, Size: size})
	return nil
}

// Sync is the file durability barrier: every staged write/truncate of this
// file survives any later crash.
func (h *File) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	h.fs.log(Op{Kind: OpFsync, Path: h.mf.path, File: h.mf.id})
	return nil
}

// Size returns the live length.
func (h *File) Size() (int64, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	return int64(len(h.mf.data)), nil
}

// Close releases the handle. The content object stays reachable through
// the tree (or the journal, for unlinked files).
func (h *File) Close() error { return nil }

// ReadFile implements durable.Fs.
func (f *Fs) ReadFile(path string) ([]byte, error) {
	path = filepath.Clean(path)
	f.mu.Lock()
	defer f.mu.Unlock()
	e, ok := f.tree[path]
	if !ok || e.isDir {
		return nil, notExist("open", path)
	}
	return append([]byte(nil), f.files[e.id].data...), nil
}

// MkdirAll implements durable.Fs: every missing component is created (and
// journaled — the entries are not durable until the parent is synced).
func (f *Fs) MkdirAll(path string, perm os.FileMode) error {
	path = filepath.Clean(path)
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.mkdirAllLocked(path)
}

func (f *Fs) mkdirAllLocked(path string) error {
	if e, ok := f.tree[path]; ok {
		if !e.isDir {
			return &fs.PathError{Op: "mkdir", Path: path, Err: fmt.Errorf("not a directory")}
		}
		return nil
	}
	parent := filepath.Dir(path)
	if parent != path {
		if err := f.mkdirAllLocked(parent); err != nil {
			return err
		}
	}
	f.tree[path] = entry{isDir: true}
	f.log(Op{Kind: OpMkdir, Path: path})
	return nil
}

// Exists implements durable.Fs.
func (f *Fs) Exists(path string) (bool, error) {
	path = filepath.Clean(path)
	f.mu.Lock()
	defer f.mu.Unlock()
	_, ok := f.tree[path]
	return ok, nil
}

// Rename implements durable.Fs for same-directory renames (the only kind
// durable performs: tmp → final during atomic replacement). An existing
// target is replaced, and the replacement is not durable until the
// directory is synced — until then a crash can resurrect the old file.
func (f *Fs) Rename(oldpath, newpath string) error {
	oldpath, newpath = filepath.Clean(oldpath), filepath.Clean(newpath)
	if filepath.Dir(oldpath) != filepath.Dir(newpath) {
		return fmt.Errorf("simio: cross-directory rename %s → %s not supported", oldpath, newpath)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	e, ok := f.tree[oldpath]
	if !ok || e.isDir {
		return notExist("rename", oldpath)
	}
	f.log(Op{Kind: OpRename, Path: oldpath, To: newpath, File: e.id})
	delete(f.tree, oldpath)
	f.tree[newpath] = e
	f.files[e.id].path = newpath
	return nil
}

// Remove implements durable.Fs.
func (f *Fs) Remove(path string) error {
	path = filepath.Clean(path)
	f.mu.Lock()
	defer f.mu.Unlock()
	e, ok := f.tree[path]
	if !ok {
		return notExist("remove", path)
	}
	if e.isDir {
		return &fs.PathError{Op: "remove", Path: path, Err: fmt.Errorf("is a directory")}
	}
	f.log(Op{Kind: OpRemove, Path: path, File: e.id})
	delete(f.tree, path)
	return nil
}

// SyncDir implements durable.Fs: the directory durability barrier.
func (f *Fs) SyncDir(dir string) error {
	dir = filepath.Clean(dir)
	f.mu.Lock()
	defer f.mu.Unlock()
	e, ok := f.tree[dir]
	if !ok || !e.isDir {
		return notExist("syncdir", dir)
	}
	f.log(Op{Kind: OpSyncDir, Path: dir})
	return nil
}

// Lock implements durable.Fs: a process-level exclusive lock (no LOCK file
// is materialized — the real flock dies with its holder, so it is
// invisible to crash images by construction).
func (f *Fs) Lock(dir string) (func(), error) {
	dir = filepath.Clean(dir)
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.locked[dir] {
		return nil, fmt.Errorf("simio: %s is already locked", dir)
	}
	f.locked[dir] = true
	return func() {
		f.mu.Lock()
		defer f.mu.Unlock()
		delete(f.locked, dir)
	}, nil
}

// Image is one complete byte image a crash could leave behind: the
// reachable directories and every reachable file's content.
type Image struct {
	Dirs  []string          `json:"dirs"`
	Files map[string][]byte `json:"files"`
}

// Clone deep-copies the image (violation reports retain images after the
// enumeration moves on).
func (img Image) Clone() Image {
	cp := Image{Dirs: append([]string(nil), img.Dirs...), Files: make(map[string][]byte, len(img.Files))}
	for p, b := range img.Files {
		cp.Files[p] = append([]byte(nil), b...)
	}
	return cp
}

// FromImage returns a fresh live filesystem seeded with img, as a machine
// rebooting onto that disk state would see it. Its journal starts empty.
func FromImage(img Image) *Fs {
	f := New()
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, d := range img.Dirs {
		f.seedDirLocked(filepath.Clean(d))
	}
	paths := make([]string, 0, len(img.Files))
	for p := range img.Files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		p = filepath.Clean(p)
		f.seedDirLocked(filepath.Dir(p))
		f.nextID++
		mf := &memFile{id: f.nextID, path: p, data: append([]byte(nil), img.Files[p]...)}
		f.files[mf.id] = mf
		f.tree[p] = entry{id: mf.id}
	}
	// Seeding is initial state, not activity: the journal models what the
	// process does from here.
	f.journal = nil
	return f
}

func (f *Fs) seedDirLocked(dir string) {
	if e, ok := f.tree[dir]; ok && e.isDir {
		return
	}
	parent := filepath.Dir(dir)
	if parent != dir {
		f.seedDirLocked(parent)
	}
	f.tree[dir] = entry{isDir: true}
}

// LiveImage captures the current live tree as an image — the disk state
// after a clean shutdown where everything was synced. Recovering from
// LiveImage of a just-recovered filesystem is how the sweep pins replay
// idempotence (recover ×2 ≡ ×1).
func (f *Fs) LiveImage() Image {
	f.mu.Lock()
	defer f.mu.Unlock()
	img := Image{Files: map[string][]byte{}}
	paths := make([]string, 0, len(f.tree))
	for p := range f.tree {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		e := f.tree[p]
		if e.isDir {
			img.Dirs = append(img.Dirs, p)
		} else {
			img.Files[p] = append([]byte(nil), f.files[e.id].data...)
		}
	}
	return img
}

// applyWrite returns data with p written at off, zero-filling any gap.
func applyWrite(data []byte, off int64, p []byte) []byte {
	end := off + int64(len(p))
	if int64(len(data)) < end {
		grown := make([]byte, end)
		copy(grown, data)
		data = grown
	}
	copy(data[off:end], p)
	return data
}

// applyTruncate returns data at exactly size bytes, zero-filling growth.
func applyTruncate(data []byte, size int64) []byte {
	if int64(len(data)) >= size {
		return data[:size]
	}
	grown := make([]byte, size)
	copy(grown, data)
	return grown
}
