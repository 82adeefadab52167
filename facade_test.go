package insitubits_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestFacadeNamesReferenced keeps the facade free of names nobody uses:
// every exported name insitubits.go declares must be referenced from some
// other Go file of the module, as insitubits.Name or, in a file of package
// insitubits itself, bare. One exception: an alias whose type appears in a
// referenced name's signature stays unreferenced, so a caller can name what
// it is handed. bench/ is a module of its own and does not count.
func TestFacadeNamesReferenced(t *testing.T) {
	fset := token.NewFileSet()
	facade, err := parser.ParseFile(fset, "insitubits.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, d := range facade.Decls {
		g, ok := d.(*ast.GenDecl)
		if !ok {
			continue
		}
		for _, s := range g.Specs {
			switch s := s.(type) {
			case *ast.TypeSpec:
				declared[s.Name.Name] = s.Name.IsExported()
			case *ast.ValueSpec:
				for _, n := range s.Names {
					declared[n.Name] = n.IsExported()
				}
			}
		}
	}

	used := map[string]bool{}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (path == "bench" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || path == "insitubits.go" {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		if f.Name.Name == "insitubits" {
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					used[id.Name] = true
				}
				return true
			})
			return nil
		}
		pkg := ""
		for _, im := range f.Imports {
			if p, _ := strconv.Unquote(im.Path.Value); p == "insitubits" {
				pkg = "insitubits"
				if im.Name != nil {
					pkg = im.Name.Name
				}
			}
		}
		if pkg == "" {
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == pkg {
					used[sel.Sel.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var unused []string
	for name, exported := range declared {
		if exported && !used[name] {
			unused = append(unused, name)
		}
	}
	if len(unused) == 0 {
		return
	}
	handed := handedTypes(t, fset, facade, used)
	var missing []string
	for _, name := range unused {
		if !handed[name] {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("%d facade names have no reference outside insitubits.go; delete them (and the code only they reach):\n%s",
			len(missing), strings.Join(missing, "\n"))
	}
}

// handedTypes type-checks the facade and returns the aliases whose type
// appears in the signature (or type) of a referenced facade name.
func handedTypes(t *testing.T, fset *token.FileSet, facade *ast.File, used map[string]bool) map[string]bool {
	t.Helper()
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	pkg, err := conf.Check("insitubits", fset, []*ast.File{facade}, nil)
	if err != nil {
		t.Fatalf("type-checking insitubits.go: %v", err)
	}
	seen := map[types.Type]bool{}
	named := map[*types.TypeName]bool{}
	var walk func(types.Type)
	walk = func(typ types.Type) {
		if typ == nil || seen[typ] {
			return
		}
		seen[typ] = true
		switch typ := typ.(type) {
		case *types.Named:
			named[typ.Obj()] = true
		case *types.Pointer:
			walk(typ.Elem())
		case *types.Slice:
			walk(typ.Elem())
		case *types.Array:
			walk(typ.Elem())
		case *types.Map:
			walk(typ.Key())
			walk(typ.Elem())
		case *types.Chan:
			walk(typ.Elem())
		case *types.Signature:
			for _, tup := range []*types.Tuple{typ.Params(), typ.Results()} {
				for i := 0; i < tup.Len(); i++ {
					walk(tup.At(i).Type())
				}
			}
		}
	}
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if !used[name] || !obj.Exported() {
			continue
		}
		if _, isType := obj.(*types.TypeName); !isType {
			walk(obj.Type())
		}
	}
	handed := map[string]bool{}
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok && tn.IsAlias() {
			if n, ok := tn.Type().(*types.Named); ok && named[n.Obj()] {
				handed[name] = true
			}
		}
	}
	return handed
}
