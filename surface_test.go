package detectable_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// surfaceAllowlist names the exported functions and methods that stay
// although no non-test file outside bench/ names them, each with its reason.
// A key is package.Name for a function and package.Type.Name for a method.
var surfaceAllowlist = map[string]string{
	// Clocks and fault knobs: a test shortens a wait or stops a stream.
	"server.Server.SetIdleTimeout":  "clock: tests reap idle sessions without waiting the default",
	"durable.DB.SetReplAckTimeout":  "clock: tests drop a silent standby without waiting the default",
	"server.Server.StopReplication": "fault knob: tests stall a standby's tap",
	"durable.DB.Compact":            "fault knob: tests force a compaction at a chosen point",

	// Reference readers: tests compare the served state with them.
	"durable.DB.MirrorGet":    "reference reader of the durable mirror",
	"nvm.Bits.PeekPersisted":  "reference reader of a bit's flushed value; inlined, plane code would move into tests",
	"rw.Register.PeekToggle":  "reference reader of a toggle bit; kv's restore test reads it across packages",
	"rw.Register.PeekT":       "reference reader of T[p]; kv's restore test reads it across packages",
	"simio.DurableImage":      "reference reader of what a crash would leave on disk",
	"shardkv.Store.FreeSlots": "reference reader of the process-slot lease pool",
	"client.Client.MultiGet":  "the client half of the served MGET verb",

	// Names bench/ calls, until the bench round frees them.
	"durable.OpenLog":                  "bench/ pins it",
	"durable.ShardBacking.Persist":     "bench/ pins it",
	"durable.DB.StartGroupCommit":      "bench/ pins it",
	"history.NewShardedRing":           "bench/ pins it",
	"history.Log.Capacity":             "bench/ pins it",
	"history.Log.Dropped":              "bench/ pins it",
	"nvm.NewSpace":                     "bench/ pins it",
	"nvm.Space.CellCount":              "bench/ pins it",
	"client.Client.SessionID":          "bench/ pins it",
	"server.Server.NewLoopbackSession": "bench/ pins it",
	"server.LoopbackSession.Handle":    "bench/ pins it",
	"server.LoopbackSession.NextID":    "bench/ pins it",
	"server.PatchReqID":                "bench/ pins it",
}

// TestExportedSurfaceHasCallers keeps the exported surface to what ships:
// an exported function or method outside package main and the root API
// fails unless its name is an identifier in some non-test file outside
// bench/ (its own declaration aside) or it is on surfaceAllowlist. An
// allowlisted name that gains such a use, or is no longer declared, fails
// too, so the list only shrinks.
//
// The scan matches names, not objects, so it cannot see a dead method whose
// name another declaration or call shares: PID, N, CellID and Flush each
// had a dead declaration beside live ones of the same name. A test that
// needs state an exported name would expose reads its own package's fields
// or the shipped API instead.
func TestExportedSurfaceHasCallers(t *testing.T) {
	type decl struct {
		key, name string
		pos       token.Position
	}
	fset := token.NewFileSet()
	var decls []decl
	used := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "bench" || path == "testdata" || (path != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		own := map[*ast.Ident]bool{}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			own[fd.Name] = true
			if !fd.Name.IsExported() || f.Name.Name == "main" || filepath.Dir(path) == "." {
				continue
			}
			key := f.Name.Name + "."
			if fd.Recv != nil {
				key += recvType(fd.Recv.List[0].Type) + "."
			}
			decls = append(decls, decl{key + fd.Name.Name, fd.Name.Name, fset.Position(fd.Name.Pos())})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !own[id] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var bad []string
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.key] = true
		_, allowed := surfaceAllowlist[d.key]
		switch {
		case !used[d.name] && !allowed:
			bad = append(bad, d.pos.String()+": "+d.key+" has no caller in a non-test file outside bench/: delete it, or allowlist it with its reason")
		case used[d.name] && allowed:
			bad = append(bad, d.pos.String()+": "+d.key+" is allowlisted but now has a caller: take it off surfaceAllowlist")
		}
	}
	for key := range surfaceAllowlist {
		if !declared[key] {
			bad = append(bad, key+" is allowlisted but no longer declared: take it off surfaceAllowlist")
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Error(b)
	}
}

// recvType names a method's receiver type: T for T, *T, T[K] and *T[K].
func recvType(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return "?"
		}
	}
}
