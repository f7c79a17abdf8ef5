package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var (
	// flagToken is one flag on a command line; a trailing * marks prose
	// that names a family of flags (`-chaos-*`).
	flagToken = regexp.MustCompile(`(?:^|\s)-([a-z][a-z0-9-]*)(\*?)`)
	// flagDecl names the flag package's declaring functions, on the package
	// or on a FlagSet.
	flagDecl = regexp.MustCompile(`^(?:(?:Bool|Duration|Float64|Int|Int64|String|Uint|Uint64)(?:Var)?|Func|BoolFunc|TextVar|Var)$`)
)

// docFlag is one flag a command line in a document names.
type docFlag struct {
	line          int
	command, flag string
}

func (f docFlag) String() string { return fmt.Sprintf("%d: %s -%s", f.line, f.command, f.flag) }

// docFlags returns every flag a command line in doc names, a command line
// being one of commands followed by a flag. It runs to the end of its
// inline code span, or to the end of the shell command: a comment, `&`, `|`
// or `;` ends it, and a trailing backslash continues it on the next line.
func docFlags(doc string, commands []string) []docFlag {
	command := regexp.MustCompile(`\b(` + strings.Join(commands, "|") + `)\s+-`)
	var out []docFlag
	lines := strings.Split(doc, "\n")
	for i, line := range lines {
		for _, loc := range command.FindAllStringSubmatchIndex(line, -1) {
			name := line[loc[2]:loc[3]]
			inline, stops := strings.Count(line[:loc[0]], "`")%2 == 1, "`#&|;"
			if inline {
				stops = "`"
			}
			for j, rest := i, line[loc[1]-1:]; ; {
				end := false
				if k := strings.IndexAny(rest, stops); k >= 0 {
					rest, end = rest[:k], true
				}
				for _, m := range flagToken.FindAllStringSubmatch(rest, -1) {
					if m[2] == "" {
						out = append(out, docFlag{j + 1, name, m[1]})
					}
				}
				rest = strings.TrimSpace(rest)
				if j++; end || j == len(lines) || (!inline && !strings.HasSuffix(rest, `\`)) {
					break
				}
				rest = lines[j]
			}
		}
	}
	return out
}

// declaredFlags returns the flags the command in dir declares, read from
// its non-test source: the name of every flag.X("name", …) call and of
// every fs.XVar(&v, "name", …) call on a FlagSet made by flag.NewFlagSet,
// plus the -h and -help every flag set answers.
func declaredFlags(t *testing.T, dir string) map[string]bool {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	flags := map[string]bool{"h": true, "help": true}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			sets := map[string]bool{"flag": true}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt: // fs := flag.NewFlagSet(…)
					call, ok := n.Rhs[0].(*ast.CallExpr)
					if !ok || len(n.Lhs) != 1 {
						return true
					}
					sel, ok := call.Fun.(*ast.SelectorExpr)
					if id, isIdent := n.Lhs[0].(*ast.Ident); ok && isIdent && sel.Sel.Name == "NewFlagSet" {
						sets[id.Name] = true
					}
				case *ast.CallExpr:
					sel, ok := n.Fun.(*ast.SelectorExpr)
					if !ok || !flagDecl.MatchString(sel.Sel.Name) {
						return true
					}
					if x, ok := sel.X.(*ast.Ident); !ok || !sets[x.Name] {
						return true
					}
					for _, arg := range n.Args[:min(2, len(n.Args))] {
						if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
							name, _ := strconv.Unquote(lit.Value)
							flags[name] = true
							break
						}
					}
				}
				return true
			})
		}
	}
	return flags
}

// TestDocsNameDeclaredFlags fails when README.md, DESIGN.md or the verify
// skill shows a command line of a cmd/ binary with a flag that binary does
// not declare.
func TestDocsNameDeclaredFlags(t *testing.T) {
	entries, err := os.ReadDir("..")
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]map[string]bool{}
	var commands []string
	for _, e := range entries {
		if e.IsDir() {
			commands = append(commands, e.Name())
			declared[e.Name()] = declaredFlags(t, filepath.Join("..", e.Name()))
		}
	}
	checked := map[string]int{}
	for _, path := range []string{"../../README.md", "../../DESIGN.md", "../../.claude/skills/verify/SKILL.md"} {
		doc, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range docFlags(string(doc), commands) {
			checked[f.command]++
			if !declared[f.command][f.flag] {
				t.Errorf("%s:%d: -%s is not a %s flag", strings.TrimPrefix(path, "../../"), f.line, f.flag, f.command)
			}
		}
	}
	for command, least := range map[string]int{"wvqd": 20, "wvq": 1, "wvload": 1, "wvlayout": 1} {
		if checked[command] < least {
			t.Errorf("found only %d flags on %s command lines; the scan is broken", checked[command], command)
		}
	}
}

// TestDocFlagsScan pins what counts as a command line.
func TestDocFlagsScan(t *testing.T) {
	doc := strings.Join([]string{
		"```sh",
		"wvqd -db view.wvls -addr :8080 -pprof localhost:6060 \\",
		"     -slow-query 250ms -ring-depth 128",
		"go run ./cmd/wvqd -mvcc &  curl -s localhost:8080/stats",
		"/tmp/wvqd -layout x.wvls   # -not-a-flag in a comment",
		"go run ./cmd/wvlayout -in a.wvls -out b.wvls; wvq -db b.wvls -i",
		"```",
		"Robustness (`wvqd -chaos-* / -retry-*`); a `wvqd -db db#1.wvls",
		"-shard-count n` shard; wvqbench -in x; `-shards` alone is prose.",
	}, "\n")
	var got []string
	for _, f := range docFlags(doc, []string{"wvlayout", "wvq", "wvqd"}) {
		got = append(got, f.String())
	}
	want := "2: wvqd -db, 2: wvqd -addr, 2: wvqd -pprof, 3: wvqd -slow-query, 3: wvqd -ring-depth, 4: wvqd -mvcc, " +
		"5: wvqd -layout, 6: wvlayout -in, 6: wvlayout -out, 6: wvq -db, 6: wvq -i, 8: wvqd -db, 9: wvqd -shard-count"
	if strings.Join(got, ", ") != want {
		t.Fatalf("docFlags:\n got %s\nwant %s", strings.Join(got, ", "), want)
	}
}
