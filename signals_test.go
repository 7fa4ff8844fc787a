package sleuth

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestEverySignalHasAReader: a self-observability name ships only if
// something reads it. Every name passed to obs.C, obs.G, obs.H or obs.S in
// non-test Go outside benchmark/ must be a string literal listed in
// DESIGN.md §7's signal table, with its reader in the row's second cell.
func TestEverySignalHasAReader(t *testing.T) {
	readers := signalReaders(t)
	fset := token.NewFileSet()
	var missing []string // one message per unread or unnamed signal
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "benchmark" || (path != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "obs" {
				return true
			}
			switch sel.Sel.Name {
			case "C", "G", "H", "S":
			default:
				return true
			}
			pos := fset.Position(call.Pos())
			lit, ok := call.Args[0].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				missing = append(missing, pos.String()+": obs."+sel.Sel.Name+" takes a non-literal name, which the signal table cannot list")
				return true
			}
			name, _ := strconv.Unquote(lit.Value)
			if readers[name] == "" {
				missing = append(missing, pos.String()+": "+name+" has no reader in DESIGN.md §7's signal table")
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Error(m)
	}
}

// signalReaders parses DESIGN.md §7's signal table: each backquoted name in
// a row's first cell maps to the row's second cell, its reader.
func signalReaders(t *testing.T) map[string]string {
	t.Helper()
	raw, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	start := strings.Index(doc, "\n## 7. ")
	if start < 0 {
		t.Fatal("DESIGN.md has no §7")
	}
	section := doc[start+1:]
	if end := strings.Index(section, "\n## "); end >= 0 {
		section = section[:end]
	}
	table := strings.Index(section, "\n| Signal |")
	if table < 0 {
		t.Fatal("DESIGN.md §7 has no signal table")
	}
	quoted := regexp.MustCompile("`([^`]+)`")
	readers := map[string]string{}
	for _, line := range strings.Split(section[table+1:], "\n")[2:] {
		cells := strings.Split(line, "|")
		if !strings.HasPrefix(line, "|") || len(cells) < 4 {
			break
		}
		reader := strings.TrimSpace(cells[2])
		for _, m := range quoted.FindAllStringSubmatch(cells[1], -1) {
			readers[m[1]] = reader
		}
	}
	if len(readers) == 0 {
		t.Fatal("DESIGN.md §7's signal table lists no name")
	}
	return readers
}
