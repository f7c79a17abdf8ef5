// Command metriclint enforces the repo's metric-naming hygiene over every
// registration call site — pushed families (Registry.Counter / Gauge /
// Histogram) and read ones (ReadGroup.ReadCounter / ReadGauge):
//
//   - every metric name is snake_case under the wvq_ prefix
//     (^wvq_[a-z0-9]+(_[a-z0-9]+)*$ — no camelCase, no dashes, no dots);
//   - every registration carries non-empty literal help text;
//   - a name is registered consistently: one kind and one help string
//     everywhere it appears, and when it appears at more than one call site
//     every site must carry labels (labeled variants of one series, e.g.
//     kind="error"/"delay", are fine; two unlabeled registrations of the same
//     name is how dashboards silently split a series);
//   - every number has one owner: a name is pushed or read, never both.
//
// The scan is purely syntactic (go/parser, no type checking): any call of a
// method named Counter, Gauge, Histogram, ReadCounter or ReadGauge whose
// first argument is a string literal is treated as a registration. Test files
// and tools/ are exempt.
//
// Usage: go run ./tools/metriclint .
package main

import (
	"fmt"
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
)

// nameRE is the hygiene rule: wvq_ prefix, lowercase snake_case segments.
var nameRE = regexp.MustCompile(`^wvq_[a-z0-9]+(_[a-z0-9]+)*$`)

// registration is one Counter/Gauge/Histogram/ReadCounter/ReadGauge call
// site.
type registration struct {
	kind    string // "Counter", "Gauge", "Histogram"
	read    bool   // declared with the Read form of kind
	help    string
	labeled bool // the call passes label arguments
	pos     token.Position
}

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	findings, err := lint(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "metriclint:", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "metriclint: %d metric hygiene issue(s)\n", len(findings))
		os.Exit(1)
	}
}

func lint(root string) ([]string, error) {
	fset := token.NewFileSet()
	regs := make(map[string][]registration)
	var findings []string

	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == "tools" || name == "testdata" || strings.HasPrefix(name, ".") && path != root {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			kind, read := strings.CutPrefix(sel.Sel.Name, "Read")
			if kind != "Counter" && kind != "Gauge" && (kind != "Histogram" || read) {
				return true
			}
			if len(call.Args) < 2 {
				return true
			}
			name, ok := stringLit(call.Args[0])
			if !ok {
				return true // dynamic name: not a registry registration idiom here
			}
			pos := fset.Position(call.Pos())
			if !nameRE.MatchString(name) {
				findings = append(findings, fmt.Sprintf(
					"%s: metric %q is not snake_case under the wvq_ prefix", at(pos), name))
			}
			help, ok := stringLit(call.Args[1])
			if !ok || strings.TrimSpace(help) == "" {
				findings = append(findings, fmt.Sprintf(
					"%s: metric %q has no literal help text", at(pos), name))
			}
			// Labels follow (name, help) for Counter/Gauge, (name, help,
			// buckets) for Histogram and (name, help, value) for the Read forms.
			labelStart := 2
			if kind == "Histogram" || read {
				labelStart = 3
			}
			regs[name] = append(regs[name], registration{
				kind: kind, read: read, help: help, labeled: len(call.Args) > labelStart, pos: pos})
			return true
		})
		return nil
	})
	if err != nil {
		return nil, err
	}

	names := make([]string, 0, len(regs))
	for name := range regs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rs := regs[name]
		if len(rs) == 1 {
			continue
		}
		for _, r := range rs {
			if !r.labeled {
				findings = append(findings, fmt.Sprintf(
					"%s: metric %q registered at %d call sites but this one carries no labels; "+
						"unlabeled names must be registered exactly once", at(r.pos), name, len(rs)))
			}
		}
		for _, r := range rs[1:] {
			if r.kind != rs[0].kind {
				findings = append(findings, fmt.Sprintf(
					"%s: metric %q registered as both %s and %s", at(r.pos), name, rs[0].kind, r.kind))
			}
			if r.read != rs[0].read {
				findings = append(findings, fmt.Sprintf(
					"%s: metric %q is both pushed and read; every number has one owner", at(r.pos), name))
			}
			if r.help != rs[0].help {
				findings = append(findings, fmt.Sprintf(
					"%s: metric %q registered with divergent help text", at(r.pos), name))
			}
		}
	}
	sort.Strings(findings)
	return findings, nil
}

// stringLit unwraps a string literal (including parenthesized and
// concatenated literal + literal) to its value.
func stringLit(e ast.Expr) (string, bool) {
	switch v := e.(type) {
	case *ast.BasicLit:
		if v.Kind != token.STRING {
			return "", false
		}
		s, err := strconv.Unquote(v.Value)
		return s, err == nil
	case *ast.ParenExpr:
		return stringLit(v.X)
	case *ast.BinaryExpr:
		if v.Op != token.ADD {
			return "", false
		}
		l, ok1 := stringLit(v.X)
		r, ok2 := stringLit(v.Y)
		return l + r, ok1 && ok2
	default:
		return "", false
	}
}

func at(p token.Position) string {
	return fmt.Sprintf("%s:%d:%d", p.Filename, p.Line, p.Column)
}
