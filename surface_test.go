package spatialjoin_test

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// surfaceFile is one parsed Go file of the module tree.
type surfaceFile struct {
	dir  string // slash-separated, relative to the module root ("" for the root)
	test bool
	ast  *ast.File
}

// TestExportedSurface holds the exported surface of internal/ to what
// programs call. It flags an exported top-level function of a non-test
// internal/ file that no non-test file of another package selects through
// its import, an exported method of an exported type whose name no non-test
// file selects, and an exported type, constant or variable that no non-test
// file names. Callers are the non-test files of internal/, cmd/, bench/ and
// the root package. The flagged set must equal testdata/exported_uncalled.txt,
// one "pkg.Name<TAB>reason" line per name kept on purpose, with pkg the
// package's directory under internal/.
func TestExportedSurface(t *testing.T) {
	files := parseModuleTree(t)
	flagged := uncalledExports(files)

	file := filepath.Join("testdata", "exported_uncalled.txt")
	listed := readSurfaceList(t, file)
	isFlagged := make(map[string]bool, len(flagged))
	for _, name := range flagged {
		isFlagged[name] = true
		if _, ok := listed[name]; !ok {
			t.Errorf("%s is exported but no program outside its package calls it: unexport it, delete it, move it into a _test.go file, or add the line %q to %s", name, name+"\t<reason>", file)
		}
	}
	for _, name := range slices.Sorted(maps.Keys(listed)) {
		if !isFlagged[name] {
			t.Errorf("%s is called by a program now, or gone: remove its line from %s", name, file)
		}
	}
	t.Logf("%d exported names under internal/ flagged, %d listed in %s", len(flagged), len(listed), file)
}

// parseModuleTree parses every .go file of the module and of bench/,
// skipping testdata, hidden directories and bench/out.
func parseModuleTree(t *testing.T) []surfaceFile {
	t.Helper()
	fset := token.NewFileSet()
	var files []surfaceFile
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		slash := filepath.ToSlash(p)
		if d.IsDir() {
			if p != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") || slash == "bench/out") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := path.Dir(slash)
		if dir == "." {
			dir = ""
		}
		files = append(files, surfaceFile{dir: dir, test: strings.HasSuffix(p, "_test.go"), ast: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// uncalledExports returns the flagged names, sorted, as "pkg.Name" for a
// function, type, constant or variable and "pkg.Type.Method" for a method.
func uncalledExports(files []surfaceFile) []string {
	type decl struct {
		dir, name string
		fn        bool // a top-level function: callers must be in another package
	}
	var decls []decl
	methods := map[string][]string{} // method name → "pkg.Type.Method"
	pkgName := map[string]string{}   // dir → package name of its non-test files
	for _, f := range files {
		if f.test || !strings.HasPrefix(f.dir, "internal/") {
			continue
		}
		pkgName[f.dir] = f.ast.Name.Name
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					decls = append(decls, decl{f.dir, d.Name.Name, true})
				} else if recv := receiverType(d.Recv.List[0].Type); ast.IsExported(recv) {
					methods[d.Name.Name] = append(methods[d.Name.Name], surfaceKey(f.dir, recv+"."+d.Name.Name))
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							decls = append(decls, decl{f.dir, s.Name.Name, false})
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								decls = append(decls, decl{f.dir, n.Name, false})
							}
						}
					}
				}
			}
		}
	}

	// Uses in non-test files: selectors through an import (dir → names),
	// bare identifiers within a package (dir → names) and selected names.
	imported := map[string]map[string]bool{}
	local := map[string]map[string]bool{}
	selected := map[string]bool{}
	for _, f := range files {
		if f.test {
			continue
		}
		imports := map[string]string{} // local import name → dir
		for _, im := range f.ast.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			rel, ok := strings.CutPrefix(p, "spatialjoin/")
			if !ok {
				continue
			}
			name := path.Base(rel)
			if n, ok := pkgName[rel]; ok {
				name = n
			}
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = rel
		}
		if local[f.dir] == nil {
			local[f.dir] = map[string]bool{}
		}
		skip := declarationNames(f.ast)
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				selected[n.Sel.Name] = true
				skip[n.Sel] = true
				if x, ok := n.X.(*ast.Ident); ok {
					if dir, ok := imports[x.Name]; ok {
						if imported[dir] == nil {
							imported[dir] = map[string]bool{}
						}
						imported[dir][n.Sel.Name] = true
						skip[x] = true
					}
				}
			case *ast.Ident:
				if !skip[n] {
					local[f.dir][n.Name] = true
				}
			}
			return true
		})
	}

	var flagged []string
	for _, d := range decls {
		used := imported[d.dir][d.name]
		if !d.fn {
			used = used || local[d.dir][d.name]
		}
		if !used {
			flagged = append(flagged, surfaceKey(d.dir, d.name))
		}
	}
	for name, keys := range methods {
		if !selected[name] {
			flagged = append(flagged, keys...)
		}
	}
	slices.Sort(flagged)
	return flagged
}

// declarationNames returns the identifiers of f that declare a name rather
// than use one: declared functions, types, constants, variables, fields,
// parameters and results.
func declarationNames(f *ast.File) map[*ast.Ident]bool {
	declared := map[*ast.Ident]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			declared[n.Name] = true
		case *ast.TypeSpec:
			declared[n.Name] = true
		case *ast.ValueSpec:
			for _, id := range n.Names {
				declared[id] = true
			}
		case *ast.Field:
			for _, id := range n.Names {
				declared[id] = true
			}
		}
		return true
	})
	return declared
}

// receiverType returns the name of a method receiver's type.
func receiverType(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return receiverType(e.X)
	case *ast.IndexExpr:
		return receiverType(e.X)
	case *ast.IndexListExpr:
		return receiverType(e.X)
	case *ast.Ident:
		return e.Name
	}
	return ""
}

// surfaceKey names a declaration of the package in dir.
func surfaceKey(dir, name string) string {
	return strings.TrimPrefix(dir, "internal/") + "." + name
}

// readSurfaceList reads the kept names and checks that each has a reason.
func readSurfaceList(t *testing.T, file string) map[string]string {
	t.Helper()
	f, err := os.Open(file)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	listed := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, reason, ok := strings.Cut(sc.Text(), "\t")
		if !ok || strings.TrimSpace(reason) == "" {
			t.Errorf("%s: %q is not a \"pkg.Name<TAB>reason\" line", file, sc.Text())
			continue
		}
		listed[name] = reason
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return listed
}
