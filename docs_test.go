package vmsh

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestDocsNameRealTests fails when README, DESIGN, EXPERIMENTS or the
// verify skill cite a Test, Benchmark or Fuzz function that no
// _test.go of the repository, hostbench included, declares. A cited
// name ending in "*" is a prefix, as in TestE5Fio*Shape.
func TestDocsNameRealTests(t *testing.T) {
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w+)\(`)
	var declared []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir // .git, .claude, build output
		}
		if err != nil || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		for _, m := range decl.FindAllSubmatch(src, -1) {
			declared = append(declared, string(m[1]))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	cite := regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9]\w*\*?`)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"} {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		names := cite.FindAllString(string(src), -1)
		slices.Sort(names)
		for _, name := range slices.Compact(names) {
			prefix, isPrefix := strings.CutSuffix(name, "*")
			if !slices.ContainsFunc(declared, func(d string) bool { return d == name || isPrefix && strings.HasPrefix(d, prefix) }) {
				t.Errorf("%s cites %s, which no _test.go declares", doc, name)
			}
		}
	}
}
