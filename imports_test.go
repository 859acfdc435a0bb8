package adaflow

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
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
