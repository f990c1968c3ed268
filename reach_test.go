package iochar_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// wellKnown are method names the standard library calls through its own
// interfaces (fmt.Stringer, error, sort.Interface, heap.Interface,
// flag.Value, io.Writer, json.Marshaler, ...). A method with one of these
// names counts as reached.
var wellKnown = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "Format": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Set": true, "Write": true, "Read": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
}

// TestNoCodeOnlyTestsReach fails on any function or method of the module's
// non-test code (the separate bench module aside) that no program reaches,
// so that only tests call it. It type-checks every non-test package and walks
// the call graph from every main and init and the package-level
// initializers; a method with a well-known name counts as reached. The
// exported API of this facade is no root: a facade function that no example
// or command calls is as dead as any other. A call through an interface
// reaches every method of that name. testdata/reach_allow.txt lists the
// accessors kept for tests to observe state; a listed function that is
// reached, or that does not exist, fails the test too.
func TestNoCodeOnlyTestsReach(t *testing.T) {
	const module = "repro"
	m, err := loadRepro()
	if err != nil {
		t.Fatal(err)
	}
	fset, pkgs := m.fset, m.pkgs

	nodes := map[*types.Func]*funcNode{}
	byName := map[string][]*types.Func{} // methods, for interface dispatch
	inits := &funcNode{}                 // package-level initializers
	var roots []*types.Func
	for _, p := range pkgs {
		for _, f := range p.files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					inits.references(p.info, decl)
					continue
				}
				fn := p.info.Defs[fd.Name].(*types.Func)
				n := &funcNode{key: p.pkg.Path() + "." + fd.Name.Name, pos: fset.Position(fd.Pos())}
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
					rt := recv.Type()
					if ptr, ok := rt.(*types.Pointer); ok {
						rt = ptr.Elem()
					}
					n.key = p.pkg.Path() + "." + rt.(*types.Named).Obj().Name() + "." + fd.Name.Name
					byName[fd.Name.Name] = append(byName[fd.Name.Name], fn)
				}
				n.references(p.info, fd)
				nodes[fn] = n
				if fd.Recv == nil && (fd.Name.Name == "init" || fd.Name.Name == "main" && p.pkg.Name() == "main") ||
					fd.Recv != nil && wellKnown[fd.Name.Name] {
					roots = append(roots, fn)
				}
			}
		}
	}

	reached := map[*types.Func]bool{}
	dispatched := map[string]bool{}
	work := append(roots, inits.calls...)
	dispatch := func(n *funcNode) {
		for _, name := range n.dispatch {
			if !dispatched[name] {
				dispatched[name] = true
				work = append(work, byName[name]...)
			}
		}
	}
	dispatch(inits)
	for len(work) > 0 {
		fn := work[len(work)-1]
		work = work[:len(work)-1]
		if n := nodes[fn]; n != nil && !reached[fn] {
			reached[fn] = true
			work = append(work, n.calls...)
			dispatch(n)
		}
	}

	allowed, err := readAllowList("testdata/reach_allow.txt")
	if err != nil {
		t.Fatal(err)
	}
	var dead []string
	for fn, n := range nodes {
		switch {
		case reached[fn]:
		case allowed[n.key]:
			delete(allowed, n.key)
		default:
			dead = append(dead, n.pos.String()+": "+n.key)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("only tests reach %s", d)
	}
	for key := range allowed {
		t.Errorf("testdata/reach_allow.txt lists %s, which is not an unreached function", key)
	}
}

// funcNode is one declared function: the functions it references and the
// method names it calls through interfaces.
type funcNode struct {
	key      string // import path, receiver type and name
	pos      token.Position
	calls    []*types.Func
	dispatch []string
}

// references records every function the syntax under root names.
func (n *funcNode) references(info *types.Info, root ast.Node) {
	ast.Inspect(root, func(x ast.Node) bool {
		id, ok := x.(*ast.Ident)
		if !ok {
			return true
		}
		if fn, ok := info.Uses[id].(*types.Func); ok {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				n.dispatch = append(n.dispatch, fn.Name())
			} else {
				n.calls = append(n.calls, fn.Origin())
			}
		}
		return true
	})
}

type loadedPkg struct {
	pkg   *types.Package
	info  *types.Info
	files []*ast.File
}

// loadedModule is a type-checked module.
type loadedModule struct {
	fset *token.FileSet
	pkgs map[string]*loadedPkg
}

// loadRepro type-checks this module once for both guards.
var loadRepro = sync.OnceValues(func() (loadedModule, error) {
	fset, pkgs, err := loadModule("repro")
	return loadedModule{fset, pkgs}, err
})

// loadModule type-checks the non-test files of every package of the module
// rooted at the working directory, skipping testdata and nested modules.
// Standard-library imports are type-checked from source.
func loadModule(module string) (*token.FileSet, map[string]*loadedPkg, error) {
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "source", nil)
	pkgs := map[string]*loadedPkg{}
	var load func(importPath string) (*types.Package, error)
	conf := types.Config{Importer: importerFunc(func(importPath string) (*types.Package, error) {
		if importPath == module || strings.HasPrefix(importPath, module+"/") {
			return load(importPath)
		}
		return std.Import(importPath)
	})}
	load = func(importPath string) (*types.Package, error) {
		if p := pkgs[importPath]; p != nil {
			return p.pkg, nil
		}
		dir := "." + strings.TrimPrefix(importPath, module)
		bp, err := build.Default.ImportDir(dir, 0)
		if err != nil {
			return nil, err
		}
		p := &loadedPkg{info: &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		}}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			p.files = append(p.files, f)
		}
		if p.pkg, err = conf.Check(importPath, fset, p.files, p.info); err != nil {
			return nil, err
		}
		pkgs[importPath] = p
		return p.pkg, nil
	}
	err := filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != "." {
			if n := d.Name(); n == "testdata" || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return filepath.SkipDir // another module (bench)
			}
		}
		if _, err := build.Default.ImportDir(dir, 0); err != nil {
			return nil // no non-test Go files here
		}
		_, err = load(path.Join(module, filepath.ToSlash(dir)))
		return err
	})
	return fset, pkgs, err
}

type importerFunc func(importPath string) (*types.Package, error)

func (f importerFunc) Import(importPath string) (*types.Package, error) { return f(importPath) }

// readAllowList reads one function key per line; "#" starts a comment.
func readAllowList(name string) (map[string]bool, error) {
	data, err := os.ReadFile(name)
	if err != nil {
		return nil, err
	}
	keys := map[string]bool{}
	for _, line := range strings.Split(string(data), "\n") {
		line, _, _ = strings.Cut(line, "#")
		if line = strings.TrimSpace(line); line != "" {
			keys[line] = true
		}
	}
	return keys, nil
}

// TestNoSettingOnlyTestsSet fails on any field of a settings struct (a type
// named *Config, or Policy, under internal/) that no program sets: a field
// only its own package's defaulting functions (Default*, Normalized,
// normalized, withDefaults) write is a constant that tests and readers must
// still reason about. That includes the application skeletons under
// internal/apps: a fact of the traced run, such as a record size, is a
// constant there. internal/scenario (set by JSON decoding) is out of scope.
// testdata/setting_allow.txt lists the fields kept on purpose; a listed field
// that is set, or that does not exist, fails the test too.
func TestNoSettingOnlyTestsSet(t *testing.T) {
	const module = "repro"
	m, err := loadRepro()
	if err != nil {
		t.Fatal(err)
	}
	fset, pkgs := m.fset, m.pkgs

	type setting struct {
		key string
		pos token.Position
		pkg string
	}
	settings := map[*types.Var]setting{}
	for _, p := range pkgs {
		path := p.pkg.Path()
		if !strings.HasPrefix(path, module+"/internal/") || path == module+"/internal/scenario" {
			continue
		}
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !strings.HasSuffix(name, "Config") && name != "Policy" {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				settings[f] = setting{key: path + "." + name + "." + f.Name(), pos: fset.Position(f.Pos()), pkg: path}
			}
		}
	}

	written := map[*types.Var]bool{}
	for _, p := range pkgs {
		for _, f := range p.files {
			for _, decl := range f.Decls {
				defaulting := false
				if fd, ok := decl.(*ast.FuncDecl); ok {
					n := fd.Name.Name
					defaulting = strings.HasPrefix(n, "Default") || n == "Normalized" || n == "normalized" || n == "withDefaults"
				}
				mark := func(v *types.Var) {
					if s, ok := settings[v.Origin()]; ok && !(defaulting && s.pkg == p.pkg.Path()) {
						written[v.Origin()] = true
					}
				}
				// lvalue marks every field on the selector path of x: a
				// write to x.A.B writes both A and B.
				var lvalue func(x ast.Expr)
				lvalue = func(x ast.Expr) {
					switch e := x.(type) {
					case *ast.SelectorExpr:
						if v, ok := p.info.Uses[e.Sel].(*types.Var); ok && v.IsField() {
							mark(v)
						}
						lvalue(e.X)
					case *ast.IndexExpr:
						lvalue(e.X)
					case *ast.ParenExpr:
						lvalue(e.X)
					case *ast.StarExpr:
						lvalue(e.X)
					}
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					switch s := n.(type) {
					case *ast.AssignStmt:
						for _, x := range s.Lhs {
							lvalue(x)
						}
					case *ast.IncDecStmt:
						lvalue(s.X)
					case *ast.UnaryExpr:
						if s.Op == token.AND {
							lvalue(s.X)
						}
					case *ast.CompositeLit:
						for i, elt := range s.Elts {
							if kv, ok := elt.(*ast.KeyValueExpr); ok {
								if id, ok := kv.Key.(*ast.Ident); ok {
									if v, ok := p.info.Uses[id].(*types.Var); ok && v.IsField() {
										mark(v)
									}
								}
							} else if st, ok := p.info.Types[s].Type.Underlying().(*types.Struct); ok {
								mark(st.Field(i)) // an unkeyed struct literal sets every field
							}
						}
					}
					return true
				})
			}
		}
	}

	allowed, err := readAllowList("testdata/setting_allow.txt")
	if err != nil {
		t.Fatal(err)
	}
	var unset []string
	for v, s := range settings {
		switch {
		case written[v]:
		case allowed[s.key]:
			delete(allowed, s.key)
		default:
			unset = append(unset, s.pos.String()+": "+s.key)
		}
	}
	sort.Strings(unset)
	for _, u := range unset {
		t.Errorf("only tests set %s", u)
	}
	for key := range allowed {
		t.Errorf("testdata/setting_allow.txt lists %s, which is not a setting only tests set", key)
	}
}
