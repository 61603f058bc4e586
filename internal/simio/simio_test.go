package simio

import (
	"bytes"
	"os"
	"testing"
)

// TestUnsyncedWriteCanBeLost pins the core persistence model: a write
// without fsync may or may not survive, a write behind fsync always does.
func TestUnsyncedWriteCanBeLost(t *testing.T) {
	f := New()
	h, err := f.OpenFile("a.log", os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.SyncDir("."); err != nil {
		t.Fatal(err)
	}
	if _, err := h.WriteAt([]byte("hello"), 0); err != nil {
		t.Fatal(err)
	}

	j := f.Journal()
	var lost, kept bool
	EnumerateImages(j, len(j), nil, 0, func(img Image) bool {
		switch {
		case len(img.Files["a.log"]) == 0:
			lost = true
		case bytes.Equal(img.Files["a.log"], []byte("hello")):
			kept = true
		default:
			t.Errorf("impossible content %q", img.Files["a.log"])
		}
		return true
	})
	if !lost || !kept {
		t.Fatalf("unsynced write: lost=%v kept=%v, want both admissible", lost, kept)
	}

	if err := h.Sync(); err != nil {
		t.Fatal(err)
	}
	j = f.Journal()
	n, _ := EnumerateImages(j, len(j), nil, 0, func(img Image) bool {
		if !bytes.Equal(img.Files["a.log"], []byte("hello")) {
			t.Errorf("post-fsync image lost the write: %q", img.Files["a.log"])
		}
		return true
	})
	if n != 1 {
		t.Fatalf("post-fsync crash admits %d images, want exactly 1", n)
	}
}

// TestCreateNeedsDirSync pins the directory-entry model: a freshly created
// file can vanish wholesale until its parent directory is synced — even if
// the file's own content was fsynced.
func TestCreateNeedsDirSync(t *testing.T) {
	f := New()
	h, err := f.OpenFile("a.log", os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.WriteAt([]byte("rec"), 0); err != nil {
		t.Fatal(err)
	}
	if err := h.Sync(); err != nil {
		t.Fatal(err)
	}

	j := f.Journal()
	var gone, present bool
	EnumerateImages(j, len(j), nil, 0, func(img Image) bool {
		if _, ok := img.Files["a.log"]; ok {
			present = true
		} else {
			gone = true
		}
		return true
	})
	if !gone || !present {
		t.Fatalf("unsynced dir entry: gone=%v present=%v, want both admissible", gone, present)
	}

	if err := f.SyncDir("."); err != nil {
		t.Fatal(err)
	}
	j = f.Journal()
	EnumerateImages(j, len(j), nil, 0, func(img Image) bool {
		if !bytes.Equal(img.Files["a.log"], []byte("rec")) {
			t.Errorf("post-dirsync image lost the file: %v", img.Files)
		}
		return true
	})
}

// TestRenameAtomicity pins the rename model: before the directory sync a
// crash sees either the complete old file or the complete new one — never
// a mixture — and after the sync only the new one.
func TestRenameAtomicity(t *testing.T) {
	f := New()
	write := func(path, content string, sync bool) {
		t.Helper()
		h, err := f.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.WriteAt([]byte(content), 0); err != nil {
			t.Fatal(err)
		}
		if sync {
			if err := h.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	write("f", "old-contents", true)
	if err := f.SyncDir("."); err != nil {
		t.Fatal(err)
	}
	write("f.tmp", "new", true)
	if err := f.Rename("f.tmp", "f"); err != nil {
		t.Fatal(err)
	}

	j := f.Journal()
	var sawOld, sawNew bool
	EnumerateImages(j, len(j), nil, 0, func(img Image) bool {
		switch string(img.Files["f"]) {
		case "old-contents":
			sawOld = true
		case "new":
			sawNew = true
		default:
			t.Errorf("torn rename: f = %q", img.Files["f"])
		}
		return true
	})
	if !sawOld || !sawNew {
		t.Fatalf("pre-dirsync rename: old=%v new=%v, want both admissible", sawOld, sawNew)
	}

	if err := f.SyncDir("."); err != nil {
		t.Fatal(err)
	}
	j = f.Journal()
	EnumerateImages(j, len(j), nil, 0, func(img Image) bool {
		if string(img.Files["f"]) != "new" {
			t.Errorf("post-dirsync image resurrected: f = %q", img.Files["f"])
		}
		if _, ok := img.Files["f.tmp"]; ok {
			t.Error("post-dirsync image kept f.tmp")
		}
		return true
	})
}

// TestTornWriteCuts pins torn-write injection: the first dropped write is
// additionally applied at every caller-chosen cut.
func TestTornWriteCuts(t *testing.T) {
	f := New()
	h, _ := f.OpenFile("a", os.O_RDWR|os.O_CREATE, 0o644)
	f.SyncDir(".")
	h.WriteAt([]byte("12345678"), 0)

	cuts := func(path string, data []byte) []int { return []int{3, 6} }
	j := f.Journal()
	seen := map[string]bool{}
	EnumerateImages(j, len(j), cuts, 0, func(img Image) bool {
		seen[string(img.Files["a"])] = true
		return true
	})
	for _, want := range []string{"", "123", "123456", "12345678"} {
		if !seen[want] {
			t.Errorf("torn enumeration missing content %q (saw %v)", want, seen)
		}
	}
	if len(seen) != 4 {
		t.Errorf("torn enumeration visited %d contents, want 4: %v", len(seen), seen)
	}
}

// TestImageRoundTrip: FromImage(LiveImage()) reproduces the tree, with an
// empty journal (seeding is initial state, not activity).
func TestImageRoundTrip(t *testing.T) {
	f := New()
	if err := f.MkdirAll("/data/sub", 0o755); err != nil {
		t.Fatal(err)
	}
	h, _ := f.OpenFile("/data/sub/x", os.O_RDWR|os.O_CREATE, 0o644)
	h.WriteAt([]byte("payload"), 0)

	img := f.LiveImage()
	g := FromImage(img)
	if g.Ops() != 0 {
		t.Fatalf("FromImage journal has %d ops, want 0", g.Ops())
	}
	got, err := g.ReadFile("/data/sub/x")
	if err != nil || !bytes.Equal(got, []byte("payload")) {
		t.Fatalf("round trip: %q, %v", got, err)
	}
	if ok, _ := g.Exists("/data/sub"); !ok {
		t.Fatal("round trip lost directory /data/sub")
	}
}

// TestEnumerateCap: the per-point image cap reports truncation.
func TestEnumerateCap(t *testing.T) {
	f := New()
	for _, name := range []string{"a", "b", "c"} {
		h, _ := f.OpenFile(name, os.O_RDWR|os.O_CREATE, 0o644)
		h.WriteAt([]byte("x"), 0)
	}
	j := f.Journal()
	if n, _ := EnumerateImages(j, len(j), nil, 0, func(Image) bool { return true }); n < 8 {
		t.Fatalf("3 dirty files + 3 staged entries admit %d images, want ≥ 8", n)
	}
	n, capped := EnumerateImages(j, len(j), nil, 2, func(Image) bool { return true })
	if n != 2 || !capped {
		t.Fatalf("cap: visited=%d capped=%v, want 2, true", n, capped)
	}
}

// TestTruncateStaged: an unsynced truncate may or may not apply.
func TestTruncateStaged(t *testing.T) {
	f := New()
	h, _ := f.OpenFile("a", os.O_RDWR|os.O_CREATE, 0o644)
	h.WriteAt([]byte("abcdef"), 0)
	h.Sync()
	f.SyncDir(".")
	if err := h.Truncate(2); err != nil {
		t.Fatal(err)
	}

	j := f.Journal()
	seen := map[string]bool{}
	EnumerateImages(j, len(j), nil, 0, func(img Image) bool {
		seen[string(img.Files["a"])] = true
		return true
	})
	if !seen["abcdef"] || !seen["ab"] || len(seen) != 2 {
		t.Fatalf("staged truncate admits %v, want {abcdef, ab}", seen)
	}
}
