package gks

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// exportAllowlist names the internal/ packages and exported functions and
// methods that stay although no non-test file reaches or calls them, each
// with its reason. A package entry is its directory; a function entry is
// "dir.Func"; a method entry is "dir.Type.Method". An entry that the scan
// no longer needs fails the test, so the list only shrinks: delete the
// entry when its last test-only use goes.
var exportAllowlist = map[string]string{
	"internal/dewey.MustParse":       "cross-package test fixture: tests in eight packages write Dewey IDs as literals",
	"internal/dewey.Equal":           "cross-package test fixture: the index, xmltree, core and root tests compare Dewey IDs with it",
	"internal/dewey.ID.IsAncestorOf": "cross-package test fixture: the ancestry oracle of the index and core property tests",
	"internal/dewey.LCA":             "cross-package test fixture: the LCA of core's SearchBaseline and lca's Indexed Lookup Eager oracles",
	"internal/index.Index.IsLazy":    "cross-package test fixture: the root WAL-replay test checks that an empty replay leaves a segment-backed index lazy",
	"internal/index.PackCount":       "cross-package test fixture: the index and root packed-table tests count full packs",
	"internal/xmltree.BuildFigure2a": "cross-package test fixture: the paper's Figure 2(a) document, built by tests in a dozen packages",
	"internal/replica/faultnet":      "test-only package: the fault-injecting dialer and listener of the replication tests",
}

// stdInterfaceMethods are method names that satisfy a standard-library
// interface (sort.Interface, heap.Interface, error, errors.Unwrap,
// fmt.Stringer, http.Handler): the standard library calls them, not a file
// here.
var stdInterfaceMethods = map[string]bool{
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Error": true, "Unwrap": true, "String": true, "ServeHTTP": true,
}

// TestNoTestOnlyExports keeps "exported" meaning "called": it fails on an
// internal/ package that no cmd/ main, root file, example or bench/ file
// reaches through non-test imports, and on an exported internal/ function
// or method whose name appears in no non-test file but as a declaration.
// Methods of the types the root package re-exports by alias are public API
// and exempt, as are standard-interface method names and the entries of
// exportAllowlist. It reads only source, with go/parser and go/ast, so it
// runs in `go test ./...`.
func TestNoTestOnlyExports(t *testing.T) {
	const module = "repro/"
	fset := token.NewFileSet()
	type decl struct{ dir, key, name string }
	var (
		imports  = map[string]map[string]bool{} // package dir -> internal dirs it imports
		uses     = map[string]int{}             // identifier -> occurrences that are not function declarations
		decls    []decl
		aliased  = map[string]bool{} // "dir.Type" re-exported by the root package
		internal = map[string]bool{} // internal/ dirs with non-test Go files
	)
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		inInternal := strings.HasPrefix(dir, "internal/")
		if inInternal {
			internal[dir] = true
		}
		if imports[dir] == nil {
			imports[dir] = map[string]bool{}
		}
		pkgOf := map[string]string{} // import name in this file -> internal dir
		for _, is := range f.Imports {
			ip, _ := strconv.Unquote(is.Path.Value)
			if !strings.HasPrefix(ip, module+"internal/") {
				continue
			}
			target := strings.TrimPrefix(ip, module)
			imports[dir][target] = true
			name := path.Base(ip)
			if is.Name != nil {
				name = is.Name.Name
			}
			pkgOf[name] = target
		}
		funcNames := map[*ast.Ident]bool{}
		for _, dl := range f.Decls {
			switch dl := dl.(type) {
			case *ast.FuncDecl:
				funcNames[dl.Name] = true
				if inInternal && dl.Name.IsExported() {
					key := dir + "." + dl.Name.Name
					if dl.Recv != nil {
						key = dir + "." + recvType(dl.Recv.List[0].Type) + "." + dl.Name.Name
					}
					decls = append(decls, decl{dir, key, dl.Name.Name})
				}
			case *ast.GenDecl:
				if dir != "." || dl.Tok != token.TYPE {
					continue
				}
				for _, sp := range dl.Specs {
					ts := sp.(*ast.TypeSpec)
					if sel, ok := ts.Type.(*ast.SelectorExpr); ok && ts.Assign.IsValid() {
						if x, ok := sel.X.(*ast.Ident); ok && pkgOf[x.Name] != "" {
							aliased[pkgOf[x.Name]+"."+sel.Sel.Name] = true
						}
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !funcNames[id] {
				uses[id.Name]++
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var offenders []string
	// Packages: reachable from the root package, cmd/, examples/ and bench/.
	reached := map[string]bool{}
	var visit func(dir string)
	visit = func(dir string) {
		for dep := range imports[dir] {
			if !reached[dep] {
				reached[dep] = true
				visit(dep)
			}
		}
	}
	for dir := range imports {
		if dir == "." || strings.HasPrefix(dir, "cmd/") || strings.HasPrefix(dir, "examples/") || dir == "bench" || strings.HasPrefix(dir, "bench/") {
			visit(dir)
		}
	}
	for dir := range internal {
		if !reached[dir] {
			offenders = append(offenders, dir)
		}
	}
	// Functions and methods: a name no non-test file uses. The members of
	// a package nothing reaches are reported with the package.
	for _, d := range decls {
		if uses[d.name] > 0 || stdInterfaceMethods[d.name] && strings.Count(d.key, ".") == 2 {
			continue
		}
		i := strings.LastIndex(d.key, ".")
		if aliased[d.key[:i]] || !reached[d.dir] {
			continue
		}
		offenders = append(offenders, d.key)
	}

	sort.Strings(offenders)
	needed := map[string]bool{}
	for _, o := range offenders {
		if _, ok := exportAllowlist[o]; ok {
			needed[o] = true
			continue
		}
		if strings.Contains(o, ".") {
			t.Errorf("%s is exported but no non-test file calls it: move it into a _test.go file (export_test.go for an accessor its own package's tests read), delete it, or allowlist it with a reason", o)
		} else {
			t.Errorf("%s is reached by no cmd/ main, root file, example or bench/ file: move it into the tests that use it, delete it, or allowlist it with a reason", o)
		}
	}
	for k, reason := range exportAllowlist {
		switch {
		case !needed[k]:
			t.Errorf("allowlist entry %s is no longer needed: delete it", k)
		case strings.TrimSpace(reason) == "":
			t.Errorf("allowlist entry %s gives no reason", k)
		}
	}
}

// recvType names a method's receiver type: T for T, *T, T[K] and *T[K].
func recvType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
