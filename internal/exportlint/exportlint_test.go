// Package exportlint keeps the repository free of dead exported API: every
// exported function or method outside bench/ must have a caller other than
// its own package's tests. An export whose only references are its own
// package's _test.go files (or that nothing references at all) is surface
// nobody uses, and a paper mechanism reached only that way makes a claim
// no figure or scenario exercises.
//
// References are matched syntactically, with nothing but go/parser: a
// package-qualified selector (pkg.Name) or a bare identifier inside the
// declaring package refers to a function; any other selector (x.Name)
// refers to every method of that name, whatever its receiver. A selector
// is package-qualified when x names one of the file's imports, standard
// library included, and object resolution finds no local declaration of x
// shadowing it: os.Remove is no call of a Remove method. A selector that
// is itself selected from (cfg.Units in cfg.Units.FaultProb), assigned to,
// or incremented is a field, and no method reference either. None of
// these rules can flag a live method. What remains hidden is a dead method
// that shares its name with a live method of another type: any n.N(),
// x.Len() or m.Add(…) keeps every method of that name alive. References
// from non-test code anywhere, from other packages' tests (the root
// bench_test.go included), and from the bench/ module all count as
// callers.
package exportlint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// implicitMethods are method names the standard library calls through its
// own interfaces (fmt, errors, encoding/json, flag, sort, io, net/http), so
// a method of that name needs no explicit caller.
var implicitMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true, "Error": true,
	"Unwrap": true, "Is": true, "As": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"Set": true, "Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Read": true, "Write": true, "Close": true, "ServeHTTP": true,
}

// allowed lists exports kept without a caller, each with its reason.
var allowed = map[string]string{}

// TestNoUncalledExports scans both modules and fails on every exported
// function or method outside bench/ that has no caller beyond its own
// package's tests.
func TestNoUncalledExports(t *testing.T) {
	root := repoRoot(t)
	dead, err := uncalledExports(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dead {
		if _, ok := allowed[d.key]; ok {
			continue
		}
		t.Errorf("%s: exported %s has no caller outside its package's tests; delete it, unexport it, or move it into a _test.go file", d.pos, d.key)
	}
}

// TestFixtureFlagsUncalledExports runs the scan over a small fixture tree:
// an export with no reference at all and one referenced only by its own
// package's test are flagged, and so are methods whose name appears only
// as a standard-library call (os.Remove) or as a field (cfg.Units.Fault,
// cfg.Count = 2, cfg.Count++); exports reached from another package's
// code, another package's test, the fixture's bench/ module, a
// same-package non-test caller, a local variable that shadows an import,
// or only implicitly (String) are not.
func TestFixtureFlagsUncalledExports(t *testing.T) {
	dead, err := uncalledExports(filepath.Join("testdata", "fixture"))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range dead {
		got = append(got, d.key)
	}
	want := []string{"a.Dead", "a.OwnTestOnly", "a.T.Count", "a.T.DeadMethod", "a.T.Remove", "a.T.Units"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("flagged %v, want %v", got, want)
	}
}

// export is one flagged declaration: its display key (pkg.Func or
// pkg.Type.Method) and source position.
type export struct {
	key, pos string
}

// pkgDir is one parsed directory: its import path, package name, and files
// split into non-test and test.
type pkgDir struct {
	dir, path, name string
	bench           bool
	files, tests    []*ast.File
}

// uncalledExports returns the exported functions and methods under root
// (outside root/bench) that nothing but their own package's tests
// references, sorted by key.
func uncalledExports(root string) ([]export, error) {
	fset := token.NewFileSet()
	dirs, err := parseTree(fset, root)
	if err != nil {
		return nil, err
	}
	pkgByPath := make(map[string]*pkgDir, len(dirs))
	for _, d := range dirs {
		pkgByPath[d.path] = d
	}

	// callers counts references that make an export live; funcs are keyed
	// "importpath.Name", methods by bare name. methodTestDirs records, per
	// method name, the directories whose tests reference it, so a method
	// referenced only by its own package's tests is flagged while one used
	// by another package's test is not.
	callers := make(map[string]int)
	methodTestDirs := make(map[string]map[string]bool)
	for _, d := range dirs {
		for _, f := range d.files {
			countRefs(f, d, pkgByPath, callers)
		}
		for _, f := range d.tests {
			refs := make(map[string]int)
			countRefs(f, d, pkgByPath, refs)
			for k, n := range refs {
				switch {
				case !strings.Contains(k, "."):
					if methodTestDirs[k] == nil {
						methodTestDirs[k] = make(map[string]bool)
					}
					methodTestDirs[k][d.dir] = true
				case strings.HasPrefix(k, d.path+"."):
					// The declaring package's own test is no caller.
				default:
					callers[k] += n
				}
			}
		}
	}

	var dead []export
	for _, d := range dirs {
		if d.bench {
			continue
		}
		for _, f := range d.files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || !fn.Name.IsExported() {
					continue
				}
				name := fn.Name.Name
				pos := fset.Position(fn.Pos())
				at := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				if fn.Recv == nil {
					if callers[d.path+"."+name] == 0 {
						dead = append(dead, export{d.name + "." + name, at})
					}
					continue
				}
				if implicitMethods[name] {
					continue
				}
				live := callers[name] > 0
				for dir := range methodTestDirs[name] {
					live = live || dir != d.dir
				}
				if !live {
					dead = append(dead, export{d.name + "." + receiverName(fn.Recv) + "." + name, at})
				}
			}
		}
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i].key < dead[j].key })
	return dead, nil
}

// countRefs adds f's references to refs: functions as "importpath.Name"
// (qualified selectors, or bare identifiers naming a function of f's own
// package), methods as the bare selector name. Declared names, the
// selected name of any other selector, and fields are not references.
func countRefs(f *ast.File, d *pkgDir, pkgByPath map[string]*pkgDir, refs map[string]int) {
	imports := importNames(f, pkgByPath)
	skip := make(map[*ast.Ident]bool)
	for _, decl := range f.Decls {
		if fn, ok := decl.(*ast.FuncDecl); ok {
			skip[fn.Name] = true
		}
	}
	// A node is visited before its children, so a selector is known to be
	// a field by the time it is visited.
	fields := make(map[*ast.SelectorExpr]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				if sel, ok := lhs.(*ast.SelectorExpr); ok {
					fields[sel] = true
				}
			}
		case *ast.IncDecStmt:
			if sel, ok := x.X.(*ast.SelectorExpr); ok {
				fields[sel] = true
			}
		case *ast.SelectorExpr:
			if inner, ok := x.X.(*ast.SelectorExpr); ok {
				fields[inner] = true
			}
			if id, ok := x.X.(*ast.Ident); ok && id.Obj == nil {
				if path, ok := imports[id.Name]; ok {
					refs[path+"."+x.Sel.Name]++
					return false
				}
			}
			if !fields[x] {
				refs[x.Sel.Name]++
			}
			skip[x.Sel] = true
		case *ast.Ident:
			if !skip[x] {
				refs[d.path+"."+x.Name]++
			}
		}
		return true
	})
}

// importNames maps each import's local name to its import path. An
// in-tree package goes by its declared name, any other by the last element
// of its path. A name this misses only leaves its selectors counted as
// method references.
func importNames(f *ast.File, pkgByPath map[string]*pkgDir) map[string]string {
	names := make(map[string]string)
	for _, imp := range f.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		name := path[strings.LastIndex(path, "/")+1:]
		if p, ok := pkgByPath[path]; ok {
			name = p.name
		}
		if imp.Name != nil {
			name = imp.Name.Name
		}
		names[name] = path
	}
	return names
}

// receiverName returns the receiver's type name, without pointer or type
// parameters.
func receiverName(recv *ast.FieldList) string {
	typ := recv.List[0].Type
	for {
		switch tt := typ.(type) {
		case *ast.StarExpr:
			typ = tt.X
		case *ast.IndexExpr:
			typ = tt.X
		case *ast.IndexListExpr:
			typ = tt.X
		case *ast.Ident:
			return tt.Name
		default:
			return "?"
		}
	}
}

// parseTree parses every Go package under root, assigning import paths from
// the nearest go.mod: the root module and, as a second module whose code
// only ever counts as a caller, root/bench.
func parseTree(fset *token.FileSet, root string) ([]*pkgDir, error) {
	modules := make(map[string]string) // module dir → module path
	var dirs []*pkgDir
	err := filepath.WalkDir(root, func(path string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !e.IsDir() {
			return nil
		}
		if path != root && (strings.HasPrefix(e.Name(), ".") || e.Name() == "testdata") {
			return filepath.SkipDir
		}
		if mod, err := os.ReadFile(filepath.Join(path, "go.mod")); err == nil {
			modules[path] = modulePath(string(mod))
		}
		d, err := parseDir(fset, root, path, modules)
		if err != nil || d == nil {
			return err
		}
		dirs = append(dirs, d)
		return nil
	})
	return dirs, err
}

// parseDir parses one directory's Go files, or returns nil when it has
// none.
func parseDir(fset *token.FileSet, root, dir string, modules map[string]string) (*pkgDir, error) {
	matches, _ := filepath.Glob(filepath.Join(dir, "*.go"))
	if len(matches) == 0 {
		return nil, nil
	}
	modDir := dir
	for modules[modDir] == "" && modDir != root {
		modDir = filepath.Dir(modDir)
	}
	rel, err := filepath.Rel(modDir, dir)
	if err != nil {
		return nil, err
	}
	d := &pkgDir{dir: dir, path: modules[modDir]}
	if rel != "." {
		d.path += "/" + filepath.ToSlash(rel)
	}
	if relRoot, _ := filepath.Rel(root, dir); relRoot == "bench" || strings.HasPrefix(relRoot, "bench"+string(filepath.Separator)) {
		d.bench = true
	}
	for _, m := range matches {
		f, err := parser.ParseFile(fset, m, nil, 0)
		if err != nil {
			return nil, err
		}
		if strings.HasSuffix(m, "_test.go") {
			d.tests = append(d.tests, f)
			continue
		}
		d.files = append(d.files, f)
		d.name = f.Name.Name
	}
	if d.name == "" {
		d.name = strings.TrimSuffix(d.tests[0].Name.Name, "_test")
	}
	return d, nil
}

// modulePath extracts the module path from a go.mod file's contents.
func modulePath(mod string) string {
	for _, line := range strings.Split(mod, "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest)
		}
	}
	return ""
}

// repoRoot walks up from the package directory to the directory holding
// the root module's go.mod.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above the test directory")
		}
		dir = parent
	}
}
