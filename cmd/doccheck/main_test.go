package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSlugify(t *testing.T) {
	for _, tc := range []struct{ heading, want string }{
		{"5.3 Bucket layout", "53-bucket-layout"},
		{"5.5 Elias–Fano set", "55-eliasfano-set"},
		{"2. StIU index (derived; Section 5.2)", "2-stiu-index-derived-section-52"},
		{"§5 StIU sidecar", "5-stiu-sidecar"},
		{"`format-compat` job", "format-compat-job"},
		{"1.2.1 Time section (shared by all instances; Section 4.1)", "121-time-section-shared-by-all-instances-section-41"},
		{"**Bold** and _emphasis_", "bold-and-emphasis"},
		{"Crash-consistency contract", "crash-consistency-contract"},
	} {
		if got := slugify(tc.heading); got != tc.want {
			t.Errorf("slugify(%q) = %q, want %q", tc.heading, got, tc.want)
		}
	}
}

// TestCheckFindsProblems runs the checker over a small document tree
// with one problem of each kind, plus links that must pass.
func TestCheckFindsProblems(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	write("FORMAT.md", "# Formats\n\n## 5. StIU sidecar\n\n### 5.3 Bucket layout\n")
	readme := write("README.md", strings.Join([]string{
		"# Readme",
		"## Links",
		"[ok](FORMAT.md#53-bucket-layout) [ok](#links) [ok](https://example.org/x)",
		"[missing file](NOPE.md)",
		"[bad anchor](FORMAT.md#54-interval-section)",
		"[bad local anchor](#nope)",
		"text wraps: [FORMAT.md",
		"§5](FORMAT.md#5-stiu-sidecarx)), and [back",
		"here](#links)",
		"```",
		"[in a fence](NOPE.md)",
		"# Fenced heading",
		"```",
		"#### Skipped level",
	}, "\n"))
	problems, err := check([]string{readme})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		`heading level jumps from h2 to h4 ("Skipped level")`,
		`:4: broken link "NOPE.md": target does not exist`,
		`:5: broken anchor "FORMAT.md#54-interval-section": no such heading in FORMAT.md`,
		`:6: broken intra-doc anchor "#nope"`,
		`:8: broken anchor "FORMAT.md#5-stiu-sidecarx": no such heading in FORMAT.md`,
	}
	if len(problems) != len(want) {
		t.Fatalf("problems:\n%s\nwant %d", strings.Join(problems, "\n"), len(want))
	}
	for i, w := range want {
		if !strings.Contains(problems[i], w) {
			t.Errorf("problem %d = %q, want it to contain %q", i, problems[i], w)
		}
	}
}

// TestRepositoryDocs runs the checker over the documents CI's docs job
// checks, so a broken link or anchor fails the ordinary test run.
func TestRepositoryDocs(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "docs", "*.md"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no docs found: %v", err)
	}
	paths = append(paths, filepath.Join("..", "..", "README.md"))
	problems, err := check(paths)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}
