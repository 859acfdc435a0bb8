package adaflow

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestEveryInternalPackageIsImported keeps orphaned packages out: every
// package under internal/ must be reachable through non-test imports from
// the root package, a command or an example. It reads import clauses only
// and starts no subprocess.
func TestEveryInternalPackageIsImported(t *testing.T) {
	const module = "repro"
	roots := []string{"."}
	for _, pattern := range []string{"cmd/*", "examples/*"} {
		dirs, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		roots = append(roots, dirs...)
	}
	fset := token.NewFileSet()
	reached := map[string]bool{}
	var walk func(dir string)
	walk = func(dir string) {
		if reached[dir] {
			return
		}
		reached[dir] = true
		for _, file := range goFiles(t, dir) {
			f, err := parser.ParseFile(fset, file, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				path, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					t.Fatal(err)
				}
				if rel, ok := strings.CutPrefix(path, module+"/"); ok {
					walk(rel)
				}
			}
		}
	}
	for _, dir := range roots {
		walk(filepath.ToSlash(dir))
	}

	err := filepath.WalkDir("internal", func(dir string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if dir = filepath.ToSlash(dir); len(goFiles(t, dir)) > 0 && !reached[dir] {
			t.Errorf("%s/%s is imported by no command, example or the root package", module, dir)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestEveryConfigFieldIsSet keeps knobs nobody turns out of the serving
// and design-time configs: every exported field of an audited config type
// must be written by the non-test code of this module or the bench module
// (as a composite-literal key, an assignment target or an operand of &)
// somewhere other than the config type's own methods, which is where its
// defaults are filled. A field with one value in use is a named constant.
// Writes match by field name alone, so a same-named field set elsewhere
// counts: the test errs toward passing. It parses source only and starts
// no subprocess.
func TestEveryConfigFieldIsSet(t *testing.T) {
	audited := map[string]string{ // package dir → config type
		"internal/adapt":        "Config",
		"internal/cluster":      "Config",
		"internal/edge":         "SimConfig",
		"internal/explore":      "Options",
		"internal/finn":         "Options",
		"internal/library":      "Config",
		"internal/manager":      "Config",
		"internal/multiedge":    "Config",
		"internal/singleengine": "Config",
	}
	allowed := map[string]bool{
		// The paper's Runtime Manager acts on a user threshold change;
		// tests schedule one.
		"edge.SimConfig.ThresholdChanges": true,
		// Lets a test substitute a fake; LibraryRetrainer plugs in here.
		"adapt.Config.Retrainer": true,
	}

	fset := token.NewFileSet()
	written := map[string]bool{}
	fields := map[string]bool{} // "pkg.Type.Field" of every audited field
	err := filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		dir = filepath.ToSlash(dir)
		typ, ok := audited[dir]
		for _, file := range goFiles(t, dir) {
			f, err := parser.ParseFile(fset, file, nil, 0)
			if err != nil {
				return err
			}
			if ok {
				for field := range structFields(f, typ) {
					fields[filepath.Base(dir)+"."+typ+"."+field] = true
				}
			}
			for _, decl := range f.Decls {
				if fn, isFn := decl.(*ast.FuncDecl); ok && isFn && fn.Recv != nil && receiverType(fn) == typ {
					continue // the config's own methods fill its defaults
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					for _, name := range writtenFields(n) {
						written[name] = true
					}
					return true
				})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(fields) == 0 {
		t.Fatal("found no audited config fields")
	}
	keys := make([]string, 0, len(fields))
	for key := range fields {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	for _, key := range keys {
		if !written[key[strings.LastIndexByte(key, '.')+1:]] && !allowed[key] {
			t.Errorf("%s is set by no program outside its own methods: make it a constant", key)
		}
	}
}

// TestOneSeededSource keeps one seeded-source constructor: non-test code
// outside internal/sim opens math/rand streams on sim.NewSource, which
// draws rand.NewSource's stream bit for bit without its 607-word seeding,
// so a call to rand.NewSource there is an error. It parses source only.
func TestOneSeededSource(t *testing.T) {
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if filepath.ToSlash(dir) == "internal/sim" {
			return nil
		}
		for _, file := range goFiles(t, dir) {
			f, err := parser.ParseFile(fset, file, nil, 0)
			if err != nil {
				return err
			}
			files++
			for _, imp := range f.Imports {
				if path, _ := strconv.Unquote(imp.Path.Value); path != "math/rand" {
					continue
				}
				name := "rand"
				if imp.Name != nil {
					name = imp.Name.Name
				}
				ast.Inspect(f, func(n ast.Node) bool {
					sel, ok := n.(*ast.SelectorExpr)
					if !ok || sel.Sel.Name != "NewSource" {
						return true
					}
					if id, ok := sel.X.(*ast.Ident); ok && id.Name == name {
						t.Errorf("%s: rand.NewSource outside internal/sim: use sim.NewSource", fset.Position(sel.Pos()))
					}
					return true
				})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 {
		t.Fatal("found no Go files")
	}
}

// structFields returns the exported field names of the struct type name
// declared in f (an embedded field is named after its type).
func structFields(f *ast.File, name string) map[string]bool {
	out := map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSpec)
		if !ok || ts.Name.Name != name {
			return true
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok {
			return false
		}
		for _, fl := range st.Fields.List {
			if len(fl.Names) == 0 {
				typ := fl.Type
				if star, ok := typ.(*ast.StarExpr); ok {
					typ = star.X
				}
				if sel, ok := typ.(*ast.SelectorExpr); ok {
					typ = sel.Sel
				}
				if id, ok := typ.(*ast.Ident); ok && id.IsExported() {
					out[id.Name] = true
				}
			}
			for _, id := range fl.Names {
				if id.IsExported() {
					out[id.Name] = true
				}
			}
		}
		return false
	})
	return out
}

// receiverType names a method's receiver base type.
func receiverType(fn *ast.FuncDecl) string {
	typ := fn.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// writtenFields returns the field names node n writes: composite-literal
// keys, selector assignment or increment targets, and selectors whose
// address is taken.
func writtenFields(n ast.Node) []string {
	var out []string
	sel := func(e ast.Expr) {
		if s, ok := e.(*ast.SelectorExpr); ok {
			out = append(out, s.Sel.Name)
		}
	}
	switch n := n.(type) {
	case *ast.CompositeLit:
		for _, elt := range n.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				if id, ok := kv.Key.(*ast.Ident); ok {
					out = append(out, id.Name)
				}
			}
		}
	case *ast.AssignStmt:
		for _, lhs := range n.Lhs {
			sel(lhs)
		}
	case *ast.IncDecStmt:
		sel(n.X)
	case *ast.UnaryExpr:
		if n.Op == token.AND {
			sel(n.X)
		}
	}
	return out
}

// goFiles lists the non-test Go files of the package in dir.
func goFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			files = append(files, filepath.Join(dir, name))
		}
	}
	return files
}
