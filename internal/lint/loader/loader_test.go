package loader

import (
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Load must list, parse and type-check the seeded-violation package: it
// compiles (its violations are lint findings, not type errors), so it
// yields exactly one package with type information.
func TestLoadSelftest(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := Load(fset, filepath.Join("..", "testdata", "selftest"), ".")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("Load returned %d packages, want 1", len(pkgs))
	}
	p := pkgs[0]
	if !strings.HasSuffix(p.Path, "internal/lint/testdata/selftest") {
		t.Errorf("package path = %q", p.Path)
	}
	if p.Types == nil || p.Types.Name() != "selftest" || len(p.Files) == 0 || p.Dir == "" {
		t.Errorf("incomplete package: %+v", p)
	}
	if p.Types.Scope().Lookup("Run") == nil {
		t.Error("type-checked scope lacks the package's Run function")
	}
}

// A pattern that matches no package fails with the loading error that go
// list reports for it.
func TestLoadMissingPattern(t *testing.T) {
	_, err := Load(token.NewFileSet(), ".", "./no-such-package")
	if err == nil || !strings.HasPrefix(err.Error(), "loading ") {
		t.Fatalf("err = %v, want a \"loading …\" error", err)
	}
}

// ParseAndCheck reports a type error as a type-checking failure naming
// the package.
func TestParseAndCheckTypeError(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "bad.go")
	src := "package bad\n\nfunc f() int { return \"not an int\" }\n"
	if err := os.WriteFile(file, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	_, err := ParseAndCheck(fset, "example.com/bad", []string{file}, ExportImporter(fset, nil, nil))
	if err == nil || !strings.Contains(err.Error(), "type-checking example.com/bad") {
		t.Fatalf("err = %v, want a type-checking error", err)
	}
}
