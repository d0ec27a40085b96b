package speedofdata_test

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// linkAllowlist names the non-test functions that no binary links but that
// stay anyway, each with its reason: a method kept only to satisfy an
// interface, or a gob hook. Keys are the qualified names the audit prints.
var linkAllowlist = map[string]string{}

// TestEveryFunctionIsLinked is the dead-code audit. It builds every binary
// of the repository (qsd, the examples and the benchmark) without inlining,
// so that every function some binary calls keeps its symbol, and fails on
// each non-test function declaration that none of them links.
func TestEveryFunctionIsLinked(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every binary without inlining")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH")
	}
	bin := t.TempDir()
	run := func(dir string, args ...string) []byte {
		t.Helper()
		cmd := exec.Command(goTool, args...)
		cmd.Dir = dir
		out, err := cmd.Output()
		if err != nil {
			var stderr []byte
			if ee, ok := err.(*exec.ExitError); ok {
				stderr = ee.Stderr
			}
			t.Fatalf("go %s (in %s): %v\n%s", strings.Join(args, " "), dir, err, stderr)
		}
		return out
	}
	build := []string{"build", "-gcflags=all=-l", "-o", bin + string(filepath.Separator)}
	run(".", append(build, "./cmd/...", "./examples/...")...)
	run("bench", append(build, ".")...)

	// Library symbols are linked if any binary links them; a main
	// package's symbols ("main.") are looked up in its own binary.
	linked := map[string]bool{}
	mainLinked := map[string]map[string]bool{}
	entries, err := filepath.Glob(filepath.Join(bin, "*"))
	if err != nil || len(entries) == 0 {
		t.Fatalf("no binaries built in %s: %v", bin, err)
	}
	for _, path := range entries {
		name := filepath.Base(path)
		mainLinked[name] = map[string]bool{}
		sc := bufio.NewScanner(bytes.NewReader(run(".", "tool", "nm", path)))
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			// "<addr> <type> <name>"; a generic instantiation's name
			// may hold spaces inside its type arguments.
			f := strings.SplitN(strings.TrimLeft(sc.Text(), " "), " ", 3)
			if len(f) != 3 || (f[1] != "T" && f[1] != "t") {
				continue
			}
			sym := stripTypeArgs(f[2])
			switch {
			case strings.HasPrefix(sym, "speedofdata/"):
				linked[sym] = true
			case strings.HasPrefix(sym, "main."):
				mainLinked[name][sym] = true
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}

	decls := declaredFuncs(t)
	var unlinked []string
	for _, d := range decls {
		var ok bool
		if d.binary == "" {
			ok = linked[d.symbol]
		} else {
			syms, built := mainLinked[d.binary]
			if !built {
				t.Fatalf("%s: main package %s has no binary in the audit", d.pos, d.binary)
			}
			ok = syms[d.symbol]
		}
		if ok {
			if _, listed := linkAllowlist[d.name]; listed {
				t.Errorf("%s: %s is linked now; remove it from linkAllowlist", d.pos, d.name)
			}
			continue
		}
		if _, listed := linkAllowlist[d.name]; !listed {
			unlinked = append(unlinked, fmt.Sprintf("%s: %s", d.pos, d.name))
		}
	}
	known := map[string]bool{}
	for _, d := range decls {
		known[d.name] = true
	}
	for name := range linkAllowlist {
		if !known[name] {
			t.Errorf("linkAllowlist names %s, which is not declared", name)
		}
	}
	sort.Strings(unlinked)
	if len(unlinked) > 0 {
		t.Errorf("%d non-test function(s) linked into no binary; delete them, move them into a _test.go file, or allowlist them with a reason:\n\t%s",
			len(unlinked), strings.Join(unlinked, "\n\t"))
	}
}

// funcDecl is one non-test function declaration and the symbol a binary
// holds for it when linked.
type funcDecl struct {
	pos    token.Position
	name   string // qualified name, as the audit reports it
	symbol string // linker symbol, type arguments stripped
	binary string // the main package's binary; "" for a library
}

// declaredFuncs parses every non-test Go file of the repository, the
// benchmark module included, and returns its function declarations.
func declaredFuncs(t *testing.T) []funcDecl {
	t.Helper()
	fset := token.NewFileSet()
	var decls []funcDecl
	inits := map[string]int{} // per package, the next init.N
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := e.Name()
		if e.IsDir() {
			if path != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		if match, err := build.Default.MatchFile(filepath.Dir(path), name); err != nil || !match {
			return err
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		pkgPath := "speedofdata"
		if dir != "." {
			pkgPath += "/" + dir
		}
		prefix, binary := pkgPath, ""
		if file.Name.Name == "main" {
			prefix, binary = "main", filepath.Base(dir)
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			qualified := fn.Name.Name
			if fn.Recv != nil {
				qualified = receiverName(fn.Recv.List[0].Type) + "." + qualified
			}
			symbol := prefix + "." + qualified
			if fn.Recv == nil && fn.Name.Name == "init" {
				symbol = fmt.Sprintf("%s.init.%d", prefix, inits[pkgPath])
				inits[pkgPath]++
			}
			decls = append(decls, funcDecl{
				pos:    fset.Position(fn.Pos()),
				name:   pkgPath + "." + qualified,
				symbol: symbol,
				binary: binary,
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return decls
}

// receiverName renders a method receiver the way the linker names it:
// "(*T)" for a pointer receiver and "T" for a value one, without type
// parameters.
func receiverName(expr ast.Expr) string {
	star := false
	if s, ok := expr.(*ast.StarExpr); ok {
		star, expr = true, s.X
	}
	switch e := expr.(type) {
	case *ast.IndexExpr:
		expr = e.X
	case *ast.IndexListExpr:
		expr = e.X
	}
	name := expr.(*ast.Ident).Name
	if star {
		return "(*" + name + ")"
	}
	return name
}

// stripTypeArgs drops every bracketed type-argument list from a symbol, so
// that "pkg.(*T[go.shape.int]).M" reads "pkg.(*T).M".
func stripTypeArgs(sym string) string {
	if !strings.Contains(sym, "[") {
		return sym
	}
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}
