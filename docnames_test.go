package repro

import (
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// TestDocsNameRealMethods keeps the prose honest about the facade: every
// method it names on Run, Plan, Database, Session or Snapshot — written
// `Type.Name` in backticks anywhere, or called as db.Name(, run.Name( or
// sess.Name( inside a fenced code block — must be a method (or field) of
// that type, so a rename or a deletion cannot leave the docs behind.
func TestDocsNameRealMethods(t *testing.T) {
	types := map[string]reflect.Type{
		"Run":      reflect.TypeOf((*Run)(nil)),
		"Plan":     reflect.TypeOf((*Plan)(nil)),
		"Database": reflect.TypeOf((*Database)(nil)),
		"Session":  reflect.TypeOf((*Session)(nil)),
		"Snapshot": reflect.TypeOf((*Snapshot)(nil)),
	}
	receivers := map[string]string{"db": "Database", "run": "Run", "sess": "Session"}
	qualified := regexp.MustCompile("`(Run|Plan|Database|Session|Snapshot)\\.([A-Z]\\w*)")
	called := regexp.MustCompile(`\b(db|run|sess)\.([A-Z]\w*)\(`)
	for _, path := range []string{"README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"} {
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
