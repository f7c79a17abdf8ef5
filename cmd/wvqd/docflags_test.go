package main

import (
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro"
)

var (
	// wvqdCommand finds where a wvqd command line starts: the binary's name
	// followed by a flag.
	wvqdCommand = regexp.MustCompile(`\bwvqd\s+-`)
	// flagToken is one flag on a command line; a trailing * marks prose
	// that names a family of flags (`-chaos-*`).
	flagToken = regexp.MustCompile(`(?:^|\s)-([a-z][a-z0-9-]*)(\*?)`)
)

// docFlags returns "line: -flag" for every flag a wvqd command line in doc
// names. A command line runs to the end of its inline code span, or to the
// end of the shell command: a comment, `&`, `|` or `;` ends it, and a
// trailing backslash continues it on the next line.
func docFlags(doc string) []string {
	var out []string
	lines := strings.Split(doc, "\n")
	for i, line := range lines {
		for _, loc := range wvqdCommand.FindAllStringIndex(line, -1) {
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
						out = append(out, fmt.Sprintf("%d: -%s", j+1, m[1]))
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

// TestDocsNameDeclaredFlags fails when README.md, DESIGN.md or the verify
// skill shows a wvqd command line with a flag parseFlags does not declare.
func TestDocsNameDeclaredFlags(t *testing.T) {
	fs := newFlagSet(new(options), new(string), new(repro.RetryConfig), new(repro.FaultConfig))
	checked := 0
	for _, path := range []string{"../../README.md", "../../DESIGN.md", "../../.claude/skills/verify/SKILL.md"} {
		doc, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range docFlags(string(doc)) {
			checked++
			if fs.Lookup(f[strings.Index(f, "-")+1:]) == nil {
				t.Errorf("%s:%s is not a wvqd flag", strings.TrimPrefix(path, "../../"), f)
			}
		}
	}
	if checked < 20 {
		t.Fatalf("found only %d flags on wvqd command lines; the scan is broken", checked)
	}
}

// TestDocFlagsScan pins what counts as a wvqd command line.
func TestDocFlagsScan(t *testing.T) {
	doc := strings.Join([]string{
		"```sh",
		"wvqd -db view.wvls -addr :8080 -pprof localhost:6060 \\",
		"     -slow-query 250ms -ring-depth 128",
		"go run ./cmd/wvqd -mvcc &  curl -s localhost:8080/stats",
		"/tmp/wvqd -layout x.wvls   # -not-a-flag in a comment",
		"```",
		"Robustness (`wvqd -chaos-* / -retry-*`); a `wvqd -db db#1.wvls",
		"-shard-count n` shard; wvqbench -in x; `-shards` alone is prose.",
	}, "\n")
	got := strings.Join(docFlags(doc), ", ")
	want := "2: -db, 2: -addr, 2: -pprof, 3: -slow-query, 3: -ring-depth, 4: -mvcc, 5: -layout, 7: -db, 8: -shard-count"
	if got != want {
		t.Fatalf("docFlags:\n got %s\nwant %s", got, want)
	}
}
