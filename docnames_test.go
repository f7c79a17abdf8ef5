package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// docPaths are the prose files whose code names the doc tests check.
var docPaths = []string{"README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"}

// TestDocsNameRealMethods keeps the prose honest about the facade: every
// method it names on Run, Plan, Database, Session, Snapshot or ShardServer — written
// `Type.Name` in backticks anywhere, or called as db.Name(, run.Name( or
// sess.Name( inside a fenced code block — must be a method (or field) of
// that type, so a rename or a deletion cannot leave the docs behind.
func TestDocsNameRealMethods(t *testing.T) {
	types := map[string]reflect.Type{
		"Run":         reflect.TypeOf((*Run)(nil)),
		"Plan":        reflect.TypeOf((*Plan)(nil)),
		"Database":    reflect.TypeOf((*Database)(nil)),
		"Session":     reflect.TypeOf((*Session)(nil)),
		"Snapshot":    reflect.TypeOf((*Snapshot)(nil)),
		"ShardServer": reflect.TypeOf((*ShardServer)(nil)),
	}
	receivers := map[string]string{"db": "Database", "run": "Run", "sess": "Session"}
	qualified := regexp.MustCompile("`(Run|Plan|Database|Session|Snapshot|ShardServer)\\.([A-Z]\\w*)")
	called := regexp.MustCompile(`\b(db|run|sess)\.([A-Z]\w*)\(`)
	for _, path := range docPaths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		inCode := false
		for n, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				inCode = !inCode
				continue
			}
			check := func(typ, name string) {
				rt := types[typ]
				if _, ok := rt.MethodByName(name); ok {
					return
				}
				if _, ok := rt.Elem().FieldByName(name); ok {
					return
				}
				t.Errorf("%s:%d: %s.%s is no method or field of %s", path, n+1, typ, name, typ)
			}
			for _, m := range qualified.FindAllStringSubmatch(line, -1) {
				check(m[1], m[2])
			}
			if inCode {
				for _, m := range called.FindAllStringSubmatch(line, -1) {
					check(receivers[m[1]], m[2])
				}
			}
		}
	}
}

// TestDocsNameDeclaredObsNames does the same for the packages the prose
// names by their package name — the facade itself, internal/obs, the MVCC
// store, and the storage interfaces and the .wvls layout under
// internal/storage: every `repro.Name`, `obs.Name`, `mvcc.Name`,
// `storage.Name` or `layout.Name` the prose writes in backticks must be
// declared by that package's non-test files, and every `obs.Type.Name` (and
// so on) must be a method or field of that type, so a name a package
// deletes cannot stay in the docs.
func TestDocsNameDeclaredObsNames(t *testing.T) {
	for _, pkg := range []struct{ dir, name string }{
		{".", "repro"},
		{"internal/obs", "obs"},
		{"internal/mvcc", "mvcc"},
		{"internal/storage", "storage"},
		{"internal/storage/layout", "layout"},
	} {
		t.Run(pkg.name, func(t *testing.T) {
			members := declaredNames(t, pkg.dir, pkg.name)
			named := regexp.MustCompile("`" + pkg.name + "\\.([A-Z]\\w*)(?:\\.([A-Z]\\w*))?")
			for _, path := range docPaths {
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				for n, line := range strings.Split(string(data), "\n") {
					for _, m := range named.FindAllStringSubmatch(line, -1) {
						ms, ok := members[m[1]]
						switch {
						case !ok:
							t.Errorf("%s:%d: %s.%s is not declared by %s", path, n+1, pkg.name, m[1], pkg.dir)
						case m[2] != "" && !ms[m[2]]:
							t.Errorf("%s:%d: %s.%s.%s is no method or field of %s.%s", path, n+1, pkg.name, m[1], m[2], pkg.name, m[1])
						}
					}
				}
			}
		})
	}
}

// declaredNames maps each name the non-test files of package name in dir
// declare to its methods, fields and embedded types (nil for anything but a
// type); an interface's members are its methods.
func declaredNames(t *testing.T, dir, name string) map[string]map[string]bool {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pkgs[name] == nil {
		t.Fatalf("%s holds no package %s", dir, name)
	}
	members := make(map[string]map[string]bool)
	member := func(typ, name string) {
		if members[typ] == nil {
			members[typ] = make(map[string]bool)
		}
		members[typ][name] = true
	}
	// fields records the names a struct or an interface lists, an embedded
	// type under its own name.
	fields := func(typ string, list *ast.FieldList) {
		for _, field := range list.List {
			for _, name := range field.Names {
				member(typ, name.Name)
			}
			if len(field.Names) == 0 {
				embedded := field.Type
				if star, ok := embedded.(*ast.StarExpr); ok {
					embedded = star.X
				}
				switch e := embedded.(type) {
				case *ast.Ident:
					member(typ, e.Name)
				case *ast.SelectorExpr:
					member(typ, e.Sel.Name)
				}
			}
		}
	}
	for _, f := range pkgs[name].Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					members[d.Name.Name] = nil
					continue
				}
				recv := d.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if idx, ok := recv.(*ast.IndexExpr); ok {
					recv = idx.X
				}
				if id, ok := recv.(*ast.Ident); ok {
					member(id.Name, d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						if _, ok := members[sp.Name.Name]; !ok {
							members[sp.Name.Name] = nil
						}
						switch ty := sp.Type.(type) {
						case *ast.StructType:
							fields(sp.Name.Name, ty.Fields)
						case *ast.InterfaceType:
							fields(sp.Name.Name, ty.Methods)
						}
					case *ast.ValueSpec:
						for _, name := range sp.Names {
							members[name.Name] = nil
						}
					}
				}
			}
		}
	}
	return members
}

// TestDocsNameRegisteredMetrics fails when the prose names a wvq_* metric
// that no non-test registration provides. A mention may be a full name, a
// histogram's _bucket/_sum/_count series, a prefix ending in _ or *,
// a * inside a name, or a {a,b} list of alternatives, each of which must
// name a metric; a label set after the name ({tier}, {kind="error"}) is
// not part of it.
func TestDocsNameRegisteredMetrics(t *testing.T) {
	names := registeredMetrics(t)
	if len(names) < 40 {
		t.Fatalf("found only %d registered metrics; the scan is broken", len(names))
	}
	mention := regexp.MustCompile(`wvq_[a-z0-9_*]*(?:\{[a-z0-9_,]*\}[a-z0-9_*]*)*`)
	// known reports whether a name, braces expanded, is registered.
	known := func(name string) bool {
		pattern := strings.ReplaceAll(regexp.QuoteMeta(name), `\*`, `[a-z0-9_]*`)
		if strings.HasSuffix(name, "_") {
			pattern += `[a-z0-9_]*`
		}
		re := regexp.MustCompile(`^` + pattern + `$`)
		for _, n := range names {
			for _, series := range []string{"", "_bucket", "_sum", "_count"} {
				if re.MatchString(n + series) {
					return true
				}
			}
		}
		return false
	}
	for _, path := range docPaths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for n, line := range strings.Split(string(data), "\n") {
			for _, m := range mention.FindAllString(line, -1) {
				// The whole mention, or the name before a trailing label set.
				readings := []string{m}
				if i := strings.LastIndexByte(m, '{'); strings.HasSuffix(m, "}") {
					readings = append(readings, m[:i])
				}
				if !slices.ContainsFunc(readings, func(r string) bool {
					for _, name := range expandBraces(r) {
						if !known(name) {
							return false
						}
					}
					return true
				}) {
					t.Errorf("%s:%d: %s names no registered metric", path, n+1, m)
				}
			}
		}
	}
}

// expandBraces returns every name s spells, each {a,b} list replaced by one
// of its alternatives.
func expandBraces(s string) []string {
	open := strings.IndexByte(s, '{')
	if open < 0 {
		return []string{s}
	}
	end := open + strings.IndexByte(s[open:], '}')
	var out []string
	for _, alt := range strings.Split(s[open+1:end], ",") {
		for _, rest := range expandBraces(s[end+1:]) {
			out = append(out, s[:open]+alt+rest)
		}
	}
	return out
}

// registeredMetrics returns the metric names every non-test file of the
// module registers: the first argument of each Counter, Gauge, Histogram,
// ReadCounter or ReadGauge call that is a string literal, as
// tools/metriclint reads them.
func registeredMetrics(t *testing.T) []string {
	t.Helper()
	var names []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata" || name == "tools" || name == "bench") {
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
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch sel.Sel.Name {
			case "Counter", "Gauge", "Histogram", "ReadCounter", "ReadGauge":
				if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
					name, _ := strconv.Unquote(lit.Value)
					names = append(names, name)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}
