package lang

import (
	"go/ast"
	goparser "go/parser"
	gotoken "go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// FuzzParse holds the source reader to a round trip: Parse either rejects
// its input, or Print of what it returns parses again and prints the same
// text. The fuzzer never lowers, because a small input can unroll loops into
// hundreds of megabytes of operations (see maxUnrolledOps).
//
// Seeds: the example programs, every program source in this package's
// tests, and printed random files.
func FuzzParse(f *testing.F) {
	examples, err := filepath.Glob(filepath.Join("..", "..", "examples", "programs", "*.dcp"))
	if err != nil || len(examples) == 0 {
		f.Fatalf("no example programs (%v)", err)
	}
	for _, path := range examples {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	for _, src := range testSources(f) {
		f.Add(src)
	}
	for seed := int64(0); seed < 8; seed++ {
		f.Add(Print(randomFile(seed)))
	}
	f.Fuzz(func(t *testing.T, src string) {
		parsed, err := Parse(src)
		if err != nil {
			return
		}
		printed := Print(parsed)
		again, err := Parse(printed)
		if err != nil {
			t.Fatalf("printed form does not parse: %v\n%s", err, printed)
		}
		if reprinted := Print(again); reprinted != printed {
			t.Fatalf("printed form changes when parsed again:\n%s\n--- then ---\n%s", printed, reprinted)
		}
	})
}

// testSources returns the string literals in this package's test files that
// hold a program declaration.
func testSources(f *testing.F) []string {
	paths, err := filepath.Glob("*_test.go")
	if err != nil {
		f.Fatal(err)
	}
	var srcs []string
	fset := gotoken.NewFileSet()
	for _, path := range paths {
		file, err := goparser.ParseFile(fset, path, nil, 0)
		if err != nil {
			f.Fatal(err)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != gotoken.STRING {
				return true
			}
			if s, err := strconv.Unquote(lit.Value); err == nil && strings.Contains(s, "program ") {
				srcs = append(srcs, s)
			}
			return true
		})
	}
	if len(srcs) == 0 {
		f.Fatal("no program sources in the package's tests")
	}
	return srcs
}
