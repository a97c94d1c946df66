// Command doccheck validates the repository's markdown documentation:
// relative links must resolve to existing files, anchor fragments must
// match a heading in the target document, and heading levels must not
// skip (an h3 directly under an h1 is almost always an editing mistake).
//
// CI's docs job runs it over docs/*.md and README.md; it exits non-zero
// with one line per problem.
//
// Usage:
//
//	doccheck FILE.md...
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// linkRe matches inline markdown links [text](target). Images and
// reference-style links are out of scope for this repository.
var linkRe = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)

// headingRe matches ATX headings.
var headingRe = regexp.MustCompile(`^(#{1,6})\s+(.*?)\s*#*\s*$`)

// doc is one parsed markdown file.
type doc struct {
	path     string
	anchors  map[string]bool
	links    []link
	problems []string
}

type link struct {
	line   int
	target string
}

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: doccheck FILE.md...")
		os.Exit(2)
	}
	problems, err := check(os.Args[1:])
	if err != nil {
		fmt.Fprintf(os.Stderr, "doccheck: %v\n", err)
		os.Exit(1)
	}
	for _, p := range problems {
		fmt.Println(p)
	}
	if len(problems) > 0 {
		os.Exit(1)
	}
	fmt.Printf("doccheck: %d files ok\n", len(os.Args)-1)
}

// check parses the given markdown files and returns one line per
// problem, prefixed with the file (and line, for a link).
func check(paths []string) ([]string, error) {
	docs := make(map[string]*doc) // absolute path -> parsed doc
	var order []*doc
	for _, arg := range paths {
		d, err := parse(arg)
		if err != nil {
			return nil, err
		}
		abs, err := filepath.Abs(arg)
		if err != nil {
			return nil, err
		}
		docs[abs] = d
		order = append(order, d)
	}

	var problems []string
	for _, d := range order {
		for _, p := range d.problems {
			problems = append(problems, fmt.Sprintf("%s: %s", d.path, p))
		}
		for _, l := range d.links {
			if p := checkLink(d, l, docs); p != "" {
				problems = append(problems, fmt.Sprintf("%s:%d: %s", d.path, l.line, p))
			}
		}
	}
	return problems, nil
}

// parse extracts headings (as anchors), links and heading-level problems,
// skipping fenced code blocks.
func parse(path string) (*doc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	d := &doc{path: path, anchors: map[string]bool{}}
	inFence := false
	prevLevel := 0
	carry := "" // link text left open at the end of the previous line
	for i, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence, carry = !inFence, ""
			continue
		}
		if inFence {
			continue
		}
		if m := headingRe.FindStringSubmatch(line); m != nil {
			level := len(m[1])
			if prevLevel > 0 && level > prevLevel+1 {
				d.problems = append(d.problems,
					fmt.Sprintf("line %d: heading level jumps from h%d to h%d (%q)", i+1, prevLevel, level, m[2]))
			}
			prevLevel = level
			d.anchors[slugify(m[2])] = true
		}
		// Link text may wrap onto the next line: match the open
		// bracket's remainder together with this line.
		text := carry + line
		carry = ""
		for _, lm := range linkRe.FindAllStringSubmatch(text, -1) {
			d.links = append(d.links, link{line: i + 1, target: lm[1]})
		}
		if k := strings.LastIndex(text, "["); k >= 0 && strings.TrimSpace(line) != "" && !strings.Contains(text[k:], "]") {
			carry = text[k:] + " "
		}
	}
	return d, nil
}

// checkLink validates one link target; empty string means ok.
func checkLink(d *doc, l link, docs map[string]*doc) string {
	t := l.target
	switch {
	case strings.HasPrefix(t, "http://"), strings.HasPrefix(t, "https://"),
		strings.HasPrefix(t, "mailto:"):
		return "" // external: existence not checked offline
	case strings.HasPrefix(t, "#"):
		if !d.anchors[strings.TrimPrefix(t, "#")] {
			return fmt.Sprintf("broken intra-doc anchor %q", t)
		}
		return ""
	}
	file, frag, _ := strings.Cut(t, "#")
	abs, err := filepath.Abs(filepath.Join(filepath.Dir(d.path), file))
	if err != nil {
		return err.Error()
	}
	if _, err := os.Stat(abs); err != nil {
		return fmt.Sprintf("broken link %q: target does not exist", t)
	}
	if frag != "" {
		target, ok := docs[abs]
		if !ok {
			// Linked file was not among the checked set; parse it now so
			// fragments are still verified.
			target, err = parse(abs)
			if err != nil {
				return err.Error()
			}
			docs[abs] = target
		}
		if !target.anchors[frag] {
			return fmt.Sprintf("broken anchor %q: no such heading in %s", t, file)
		}
	}
	return ""
}

// slugify approximates GitHub's heading-anchor algorithm: lowercase,
// drop everything but letters, digits, spaces and hyphens, then replace
// spaces with hyphens.
func slugify(h string) string {
	// Strip inline code/emphasis markers and trailing link syntax first.
	h = strings.NewReplacer("`", "", "*", "", "_", "").Replace(h)
	var b strings.Builder
	for _, r := range strings.ToLower(h) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-':
			b.WriteRune(r)
		case r == ' ':
			b.WriteByte('-')
		}
	}
	return b.String()
}
