package detectable_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// surfaceAllowlist names the exported functions and methods that stay
// although no non-test file outside bench/ uses them, each with its reason.
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
	"durable.Log.Sync":                 "bench/ pins it",
	"durable.Log.Reset":                "bench/ pins it",
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
	"server.LoopbackSession.Close":     "bench/ pins it",
	"server.LoopbackSession.NextID":    "bench/ pins it",
	"server.PatchReqID":                "bench/ pins it",
}

// TestExportedSurfaceHasCallers keeps the exported surface to what ships:
// an exported function or method outside package main and the root API
// fails unless a non-test file outside bench/ uses it or it is on
// surfaceAllowlist. An allowlisted name that gains such a use, or is no
// longer declared, fails too, so the list only shrinks. The scan resolves
// every use through go/types (see unusedExported), so a dead method is
// found even where a live method of another type shares its name. A test
// that needs state an exported name would expose reads its own package's
// fields or the shipped API instead.
func TestExportedSurfaceHasCallers(t *testing.T) {
	unused, declared, err := unusedExported(".")
	if err != nil {
		t.Fatal(err)
	}
	var bad []string
	for key, pos := range unused {
		if _, allowed := surfaceAllowlist[key]; !allowed {
			bad = append(bad, pos.String()+": "+key+" has no caller in a non-test file outside bench/: delete it, or allowlist it with its reason")
		}
	}
	for key := range surfaceAllowlist {
		switch _, isUnused := unused[key]; {
		case !declared[key]:
			bad = append(bad, key+" is allowlisted but no longer declared: take it off surfaceAllowlist")
		case !isUnused:
			bad = append(bad, key+" is allowlisted but now has a caller: take it off surfaceAllowlist")
		}
	}
	slices.Sort(bad)
	for _, b := range bad {
		t.Error(b)
	}
}

// TestExportedSurfaceFixture runs the scan on testdata/surface, whose one
// dead method, a.Queue.Len, shares its name with the live a.Ring.Len: a
// scan of names cannot tell them apart. Its String method, the methods its
// types satisfy an interface or a constraint with, and a generic type's
// method are live.
func TestExportedSurfaceFixture(t *testing.T) {
	unused, declared, err := unusedExported(filepath.Join("testdata", "surface"))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := slices.Sorted(maps.Keys(unused)), []string{"a.Queue.Len"}; !slices.Equal(got, want) {
		t.Errorf("unused = %v, want %v", got, want)
	}
	for _, key := range []string{"a.Ring.Len", "a.Ring.String", "a.Box.Size", "a.Hits.Count", "a.Stack.Push"} {
		if !declared[key] {
			t.Errorf("%s is not declared: the fixture no longer covers it", key)
		}
	}
}

// unusedExported type-checks every package of the module at root, bench/
// and testdata aside, from its non-test files that build.Default accepts;
// imports of the module resolve to its directories and the rest to the
// standard library's export data. It returns every exported function and
// method declared outside package main and the root package, keyed as
// surfaceAllowlist is, and, with its position, each that nothing uses.
//
// A function is used where a types.Info.Uses entry resolves to it. A method
// is used there too, or where its type is used as an interface holding a
// method of its name: passed, assigned or returned as a value of that
// interface type (see interfaceUses), or passed as a type argument for that
// constraint. A String or Error method with which its type satisfies
// fmt.Stringer or error is used wherever it is declared: fmt calls it on
// any value it prints, a value's elements and exported fields and a test's
// failure message included, and no scan of call sites follows that.
func unusedExported(root string) (unused map[string]token.Position, declared map[string]bool, err error) {
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, nil, err
	}
	var mod string
	for _, line := range strings.Split(string(gomod), "\n") {
		if m, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			mod = strings.TrimSpace(m)
		}
	}
	fset := token.NewFileSet()
	files := map[string][]*ast.File{}
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		if d.IsDir() {
			if rel == "bench" || rel != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(p), d.Name()); !ok {
			return err
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ip := path.Join(mod, filepath.ToSlash(filepath.Dir(rel)))
		files[ip] = append(files[ip], f)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}

	paths := slices.Sorted(maps.Keys(files))
	info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Defs: map[*ast.Ident]types.Object{},
		Uses: map[*ast.Ident]types.Object{}, Instances: map[*ast.Ident]types.Instance{}}
	imp := &moduleImporter{mod: mod, fset: fset, files: files, std: importer.ForCompiler(fset, "gc", nil), pkgs: map[string]*types.Package{}, info: info}
	for _, ip := range paths {
		if _, err := imp.Import(ip); err != nil {
			return nil, nil, err
		}
	}

	used := map[*types.Func]bool{}
	for _, obj := range info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			used[fn.Origin()] = true
		}
	}
	fmtPkg, err := imp.Import("fmt")
	if err != nil {
		return nil, nil, err
	}
	printed := []*types.Interface{
		fmtPkg.Scope().Lookup("Stringer").Type().Underlying().(*types.Interface),
		types.Universe.Lookup("error").Type().Underlying().(*types.Interface),
	}
	markMethods := func(v types.Type, iface *types.Interface) {
		for m := range iface.Methods() {
			obj, _, _ := types.LookupFieldOrMethod(v, true, m.Pkg(), m.Name())
			if fn, ok := obj.(*types.Func); ok {
				used[fn.Origin()] = true
			}
		}
	}
	usedAs := func(v, t types.Type) {
		if v == nil || t == nil || types.IsInterface(v) {
			return
		}
		if iface, ok := t.Underlying().(*types.Interface); ok {
			markMethods(v, iface)
		}
	}
	for id, inst := range info.Instances {
		var tparams *types.TypeParamList
		switch obj := info.Uses[id].(type) {
		case *types.Func:
			tparams = obj.Origin().Signature().TypeParams()
		case *types.TypeName:
			if named, ok := obj.Type().(*types.Named); ok {
				tparams = named.Origin().TypeParams()
			}
		}
		for i := range tparams.Len() {
			usedAs(inst.TypeArgs.At(i), tparams.At(i).Constraint())
		}
	}
	for _, ip := range paths {
		for _, f := range files[ip] {
			interfaceUses(info, f, func(e ast.Expr, t types.Type) { usedAs(info.TypeOf(e), t) })
		}
	}

	unused, declared = map[string]token.Position{}, map[string]bool{}
	for _, ip := range paths {
		if ip == mod {
			continue
		}
		for _, f := range files[ip] {
			if f.Name.Name == "main" {
				continue
			}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn := info.Defs[fd.Name].(*types.Func)
				key := f.Name.Name + "."
				if recv := fn.Signature().Recv(); recv != nil {
					rt := recv.Type()
					if p, ok := rt.(*types.Pointer); ok {
						rt = p.Elem()
					}
					key += rt.(*types.Named).Obj().Name() + "."
					for _, iface := range printed {
						if p := types.NewPointer(rt); types.Implements(p, iface) {
							markMethods(p, iface)
						}
					}
				}
				key += fn.Name()
				declared[key] = true
				if !used[fn] {
					unused[key] = fset.Position(fd.Name.Pos())
				}
			}
		}
	}
	return unused, declared, nil
}

// moduleImporter type-checks a package of the module from its parsed
// files the first time it is imported, and imports anything else from
// std.
type moduleImporter struct {
	mod   string
	fset  *token.FileSet
	files map[string][]*ast.File
	std   types.Importer
	pkgs  map[string]*types.Package
	info  *types.Info
}

func (m *moduleImporter) Import(ip string) (*types.Package, error) {
	if ip != m.mod && !strings.HasPrefix(ip, m.mod+"/") {
		return m.std.Import(ip)
	}
	if pkg := m.pkgs[ip]; pkg != nil {
		return pkg, nil
	}
	if m.files[ip] == nil {
		return nil, fmt.Errorf("%s: no Go files in the module's tree", ip)
	}
	conf := types.Config{Importer: m}
	pkg, err := conf.Check(ip, m.fset, m.files[ip], m.info)
	if err != nil {
		return nil, err
	}
	m.pkgs[ip] = pkg
	return pkg, nil
}

// interfaceUses calls use(e, t) for each expression e in f that is
// passed, assigned or returned where a value of type t is wanted. The
// caller keeps the pairs where t is an interface. A composite literal's
// elements, a channel send and an explicit conversion are not followed: no
// method in the module is used as an interface only there, and a method
// that comes to be is flagged until this follows it.
func interfaceUses(info *types.Info, f *ast.File, use func(e ast.Expr, t types.Type)) {
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		switch n := n.(type) {
		case *ast.CallExpr:
			tv := info.Types[n.Fun]
			if tv.IsType() {
				break // a conversion
			}
			sig, ok := tv.Type.Underlying().(*types.Signature)
			if !ok {
				break
			}
			params := sig.Params()
			for i, a := range n.Args {
				switch last := params.Len() - 1; {
				case sig.Variadic() && i >= last && !n.Ellipsis.IsValid():
					if s, ok := params.At(last).Type().Underlying().(*types.Slice); ok {
						use(a, s.Elem())
					}
				case i < params.Len():
					use(a, params.At(i).Type())
				}
			}
		case *ast.AssignStmt:
			if n.Tok == token.ASSIGN && len(n.Lhs) == len(n.Rhs) {
				for i, r := range n.Rhs {
					use(r, info.TypeOf(n.Lhs[i]))
				}
			}
		case *ast.ValueSpec:
			if n.Type != nil {
				for _, v := range n.Values {
					use(v, info.TypeOf(n.Type))
				}
			}
		case *ast.ReturnStmt:
			var sig *types.Signature
			for i := len(stack) - 1; sig == nil; i-- {
				switch fn := stack[i].(type) {
				case *ast.FuncDecl:
					sig = info.Defs[fn.Name].Type().(*types.Signature)
				case *ast.FuncLit:
					sig = info.TypeOf(fn).(*types.Signature)
				}
			}
			if sig.Results().Len() == len(n.Results) {
				for i, r := range n.Results {
					use(r, sig.Results().At(i).Type())
				}
			}
		}
		return true
	})
}
