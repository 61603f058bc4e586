package simio

import (
	"path/filepath"
	"sort"
)

// Crash-image reconstruction. The journal is replayed up to a crash point
// with persistence semantics: a write/truncate is *staged* on its file
// until that file's fsync applies it; an entry create/rename/remove is
// *staged* on its directory until that directory's sync applies it. What
// is applied at the crash point is guaranteed durable. What is still
// staged may or may not have been written back by the kernel — so the
// enumerator emits one image per admissible combination:
//
//   - per file: any prefix of its staged operations applied (the medium
//     writes a single file's data back in issue order), plus torn variants
//     where the first dropped write is partially applied at caller-chosen
//     cut offsets (record-granularity tears, mid-record corruption);
//   - per directory: any prefix of its staged entry operations applied;
//   - choices compose freely across files and directories (the kernel
//     makes no cross-file ordering promises without fsync).
//
// This is the same discipline internal/explore applies to NVM primitives —
// exhaustive enumeration of everything the model admits — lifted to the
// write/fsync/rename surface.

// CutFunc returns the torn-write cut offsets to try for an unsynced write
// of data to path: for each returned c (0 < c < len(data)), an image is
// emitted where only data[:c] reached the medium. Nil tries no cuts.
type CutFunc func(path string, data []byte) []int

// pfile is one file's persistent state during replay.
type pfile struct {
	path    string // path at creation (diagnostic only)
	durable []byte
	staged  []Op // OpWrite / OpTruncate in issue order
}

// pdir is one directory's persistent state during replay.
type pdir struct {
	durable map[string]entry // entry name → file/dir identity
	staged  []Op             // OpMkdir / OpCreate / OpRename / OpRemove
}

// pstate is the whole persistent state at a crash point.
type pstate struct {
	dirs  map[string]*pdir
	files map[int]*pfile
}

func newPstate() *pstate {
	return &pstate{
		dirs: map[string]*pdir{
			"/": {durable: map[string]entry{}},
			".": {durable: map[string]entry{}},
		},
		files: map[int]*pfile{},
	}
}

func (ps *pstate) dir(path string) *pdir {
	d, ok := ps.dirs[path]
	if !ok {
		d = &pdir{durable: map[string]entry{}}
		ps.dirs[path] = d
	}
	return d
}

// applyOp applies one journaled op with persistence semantics.
func (ps *pstate) applyOp(op Op) {
	switch op.Kind {
	case OpMkdir:
		ps.dir(op.Path) // materialize the dir object; visibility is gated by the entry
		parent := ps.dir(filepath.Dir(op.Path))
		parent.staged = append(parent.staged, op)
	case OpCreate:
		ps.files[op.File] = &pfile{path: op.Path}
		parent := ps.dir(filepath.Dir(op.Path))
		parent.staged = append(parent.staged, op)
	case OpWrite, OpTruncate:
		pf := ps.files[op.File]
		pf.staged = append(pf.staged, op)
	case OpFsync:
		pf := ps.files[op.File]
		for _, s := range pf.staged {
			pf.durable = applyFileOp(pf.durable, s, -1)
		}
		pf.staged = nil
	case OpRename, OpRemove:
		parent := ps.dir(filepath.Dir(op.Path))
		parent.staged = append(parent.staged, op)
	case OpSyncDir:
		d := ps.dir(op.Path)
		for _, s := range d.staged {
			applyDirOp(d.durable, s)
		}
		d.staged = nil
	}
}

// applyFileOp applies one staged write/truncate to content. cut ≥ 0 applies
// only the first cut bytes of a write (a torn write-back).
func applyFileOp(data []byte, op Op, cut int) []byte {
	switch op.Kind {
	case OpWrite:
		b := op.Data
		if cut >= 0 && cut < len(b) {
			b = b[:cut]
		}
		return applyWrite(data, op.Off, b)
	case OpTruncate:
		return applyTruncate(data, op.Size)
	}
	return data
}

// applyDirOp applies one staged entry op to a directory's entry map.
func applyDirOp(entries map[string]entry, op Op) {
	switch op.Kind {
	case OpMkdir:
		entries[filepath.Base(op.Path)] = entry{isDir: true}
	case OpCreate:
		entries[filepath.Base(op.Path)] = entry{id: op.File}
	case OpRename:
		entries[filepath.Base(op.To)] = entry{id: op.File}
		delete(entries, filepath.Base(op.Path))
	case OpRemove:
		delete(entries, filepath.Base(op.Path))
	}
}

// replayTo returns the persistent state after the first k journal ops.
func replayTo(journal []Op, k int) *pstate {
	ps := newPstate()
	for _, op := range journal[:k] {
		ps.applyOp(op)
	}
	return ps
}

// fileChoice is one per-file write-back decision: applied staged-op prefix
// length, and an optional torn cut into the first dropped op.
type fileChoice struct {
	prefix int
	cut    int // -1: none
}

// EnumerateImages reconstructs the persistent state at crash point k
// (after the first k ops of journal were issued) and visits every
// admissible byte image. cuts chooses torn-write offsets (nil for none).
// max > 0 caps the number of visited images per call; the return reports
// how many were visited and whether the cap cut enumeration short. visit
// returning false stops early (counts as capped: coverage is incomplete).
func EnumerateImages(journal []Op, k int, cuts CutFunc, max int, visit func(Image) bool) (visited int, capped bool) {
	ps := replayTo(journal, k)

	// Deterministic ordering of the choice dimensions.
	var dirtyDirs []string
	for p, d := range ps.dirs {
		if len(d.staged) > 0 {
			dirtyDirs = append(dirtyDirs, p)
		}
	}
	sort.Strings(dirtyDirs)
	var dirtyFiles []int
	for id, pf := range ps.files {
		if len(pf.staged) > 0 {
			dirtyFiles = append(dirtyFiles, id)
		}
	}
	sort.Ints(dirtyFiles)

	dirPick := make([]int, len(dirtyDirs))
	filePick := make([]fileChoice, len(dirtyFiles))

	stop := false
	var rec func(dim int)
	rec = func(dim int) {
		if stop {
			return
		}
		if dim == len(dirtyDirs)+len(dirtyFiles) {
			if max > 0 && visited >= max {
				stop, capped = true, true
				return
			}
			visited++
			if !visit(materialize(ps, dirtyDirs, dirPick, dirtyFiles, filePick)) {
				stop, capped = true, true
			}
			return
		}
		if dim < len(dirtyDirs) {
			d := ps.dirs[dirtyDirs[dim]]
			for c := 0; c <= len(d.staged) && !stop; c++ {
				dirPick[dim] = c
				rec(dim + 1)
			}
			return
		}
		fi := dim - len(dirtyDirs)
		pf := ps.files[dirtyFiles[fi]]
		for c := 0; c <= len(pf.staged) && !stop; c++ {
			filePick[fi] = fileChoice{prefix: c, cut: -1}
			rec(dim + 1)
			// Torn variants of the first dropped op, when it is a write.
			if c == len(pf.staged) || cuts == nil {
				continue
			}
			next := pf.staged[c]
			if next.Kind != OpWrite || len(next.Data) == 0 {
				continue
			}
			for _, cut := range cuts(pf.path, next.Data) {
				if cut <= 0 || cut >= len(next.Data) || stop {
					continue
				}
				filePick[fi] = fileChoice{prefix: c, cut: cut}
				rec(dim + 1)
			}
		}
	}
	rec(0)
	return visited, capped
}

// DurableImage returns the image holding exactly what is durable after the
// first k ops of journal, with no unsynced byte written back — the first
// one EnumerateImages visits.
func DurableImage(journal []Op, k int) (img Image) {
	EnumerateImages(journal, k, nil, 1, func(i Image) bool { img = i.Clone(); return false })
	return img
}

// materialize builds the byte image for one choice combination: each dirty
// directory's entries get its chosen staged prefix, each dirty file's
// content gets its chosen staged prefix plus optional torn tail, then the
// reachable tree is walked from the roots.
func materialize(ps *pstate, dirtyDirs []string, dirPick []int, dirtyFiles []int, filePick []fileChoice) Image {
	entries := map[string]map[string]entry{}
	for p, d := range ps.dirs {
		m := make(map[string]entry, len(d.durable))
		for n, e := range d.durable {
			m[n] = e
		}
		entries[p] = m
	}
	for i, p := range dirtyDirs {
		d := ps.dirs[p]
		for _, op := range d.staged[:dirPick[i]] {
			applyDirOp(entries[p], op)
		}
	}
	content := func(id int) []byte {
		pf := ps.files[id]
		data := append([]byte(nil), pf.durable...)
		for i, fid := range dirtyFiles {
			if fid != id {
				continue
			}
			pick := filePick[i]
			for _, op := range pf.staged[:pick.prefix] {
				data = applyFileOp(data, op, -1)
			}
			if pick.cut >= 0 && pick.prefix < len(pf.staged) {
				data = applyFileOp(data, pf.staged[pick.prefix], pick.cut)
			}
			return data
		}
		return data // clean file: durable content is the content
	}

	img := Image{Files: map[string][]byte{}}
	var walk func(dir string)
	walk = func(dir string) {
		img.Dirs = append(img.Dirs, dir)
		names := make([]string, 0, len(entries[dir]))
		for n := range entries[dir] {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			e := entries[dir][n]
			p := filepath.Join(dir, n)
			if e.isDir {
				walk(p)
			} else {
				img.Files[p] = content(e.id)
			}
		}
	}
	walk("/")
	walk(".")
	return img
}
