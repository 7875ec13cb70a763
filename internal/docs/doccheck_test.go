package docs

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// guardedPackages are the packages whose exported API must be fully
// documented: the orchestration layer, the synthesis core, the profiler,
// the persistence layer and its test support, the cluster coordination layer, the VM, and the
// timing model (cpu and its cache hierarchy), whose memory-dependence
// semantics docs/memory-model.md documents.
var guardedPackages = []string{
	"../pipeline",
	"../core",
	"../cpu",
	"../cache",
	"../profile",
	"../sfgl",
	"../store",
	"../store/storetest",
	"../cluster",
	"../explore",
	"../generate",
	"../vm",
	"../telemetry",
}

// TestExportedIdentifiersDocumented fails for every exported package-level
// identifier (type, function, method, var, const) in the guarded packages
// that lacks a godoc comment. Grouped var/const declarations may share the
// group's doc comment.
func TestExportedIdentifiersDocumented(t *testing.T) {
	for _, dir := range guardedPackages {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, pkg := range pkgs {
			for path, file := range pkg.Files {
				checkFile(t, fset, filepath.Base(filepath.Dir(path))+"/"+filepath.Base(path), file)
			}
		}
	}
}

func checkFile(t *testing.T, fset *token.FileSet, name string, file *ast.File) {
	t.Helper()
	report := func(pos token.Pos, what, ident string) {
		t.Errorf("%s:%d: exported %s %s has no doc comment",
			name, fset.Position(pos).Line, what, ident)
	}
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			if d.Recv != nil && !exportedReceiver(d.Recv) {
				continue // method on an unexported type
			}
			if d.Doc == nil {
				what := "function"
				if d.Recv != nil {
					what = "method"
				}
				report(d.Pos(), what, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() && d.Doc == nil && s.Doc == nil {
						report(s.Pos(), "type", s.Name.Name)
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
							report(s.Pos(), kindOf(d.Tok), n.Name)
						}
					}
				}
			}
		}
	}
}

// exportedReceiver reports whether a method receiver names an exported
// type.
func exportedReceiver(recv *ast.FieldList) bool {
	if len(recv.List) == 0 {
		return false
	}
	typ := recv.List[0].Type
	for {
		switch tt := typ.(type) {
		case *ast.StarExpr:
			typ = tt.X
		case *ast.IndexExpr: // generic receiver
			typ = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return false
		}
	}
}

// kindOf names a GenDecl token for error messages.
func kindOf(tok token.Token) string {
	switch tok {
	case token.CONST:
		return "const"
	case token.VAR:
		return "var"
	}
	return tok.String()
}
