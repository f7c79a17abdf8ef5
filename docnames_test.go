package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"reflect"
	"regexp"
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

// TestDocsNameDeclaredObsNames does the same for internal/obs, which no
// reflection reaches from here: every `obs.Name` the prose writes in
// backticks must be declared by the package's non-test files, and every
// `obs.Type.Name` must be a method or field of that type, so a name the
// package deletes cannot stay in the docs.
func TestDocsNameDeclaredObsNames(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, "internal/obs", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// members maps each declared name to its methods and fields (nil for
	// anything but a type).
	members := make(map[string]map[string]bool)
	member := func(typ, name string) {
		if members[typ] == nil {
			members[typ] = make(map[string]bool)
		}
		members[typ][name] = true
	}
	for _, f := range pkgs["obs"].Files {
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
						st, ok := sp.Type.(*ast.StructType)
						if !ok {
							continue
						}
						for _, field := range st.Fields.List {
							for _, name := range field.Names {
								member(sp.Name.Name, name.Name)
							}
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
	named := regexp.MustCompile("`obs\\.([A-Z]\\w*)(?:\\.([A-Z]\\w*))?")
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
					t.Errorf("%s:%d: obs.%s is not declared by internal/obs", path, n+1, m[1])
				case m[2] != "" && !ms[m[2]]:
					t.Errorf("%s:%d: obs.%s.%s is no method or field of obs.%s", path, n+1, m[1], m[2], m[1])
				}
			}
		}
	}
}
