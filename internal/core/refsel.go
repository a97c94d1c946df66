package core

import (
	"slices"

	"utcq/internal/traj"
)

// Selection is the output of reference selection for one uncertain
// trajectory: which instances are references, and each non-reference's
// reference.  The two constraints of Section 4.3 hold by construction:
// every non-reference has exactly one reference, and references are never
// themselves represented (single-order compression).
type Selection struct {
	RefOf []int // RefOf[v] = reference instance index; -1 for references
}

// NumRefs counts the references.
func (s Selection) NumRefs() int {
	n := 0
	for _, r := range s.RefOf {
		if r < 0 {
			n++
		}
	}
	return n
}

// Rrs returns the referential representation set of reference w: the
// non-references it represents.
func (s Selection) Rrs(w int) []int {
	var out []int
	for v, r := range s.RefOf {
		if r == w {
			out = append(out, v)
		}
	}
	return out
}

// Validate checks the selection's structural constraints.
func (s Selection) Validate() bool {
	for v, w := range s.RefOf {
		if w != -1 && (w < 0 || w >= len(s.RefOf) || s.RefOf[w] != -1 || w == v) {
			return false
		}
	}
	return true
}

// SelectReferences runs pivot selection and the greedy Algorithm 1 on one
// uncertain trajectory.  It uses the pre-sorted variant the paper suggests:
// all positive scores are sorted once and consumed with validity checks,
// which is equivalent to repeatedly extracting the maximum of SM.
func SelectReferences(tu *traj.Uncertain, numPivots int) Selection {
	return selectReferencesWith(tu, numPivots, FJD)
}

// selectReferencesWith runs Algorithm 1 with a custom similarity between
// pivot representations (used by the plain-Jaccard ablation).
func selectReferencesWith(tu *traj.Uncertain, numPivots int, sim func(a, b []PivotFactor) float64) Selection {
	n := len(tu.Instances)
	sel := allReferences(n)
	if n <= 1 {
		return sel
	}

	ps := SelectPivots(tu, numPivots)

	type entry struct {
		score float64
		w, v  int
	}
	var entries []entry
	for w := 0; w < n; w++ {
		for v := 0; v < n; v++ {
			if s := ps.score(tu, w, v, sim); s > 0 {
				entries = append(entries, entry{s, w, v})
			}
		}
	}
	// The comparator is a total order, so the sorted slice is identical to
	// the historical sort.Slice result; SortFunc just skips the reflection.
	slices.SortFunc(entries, func(a, b entry) int {
		switch {
		case a.score > b.score:
			return -1
		case a.score < b.score:
			return 1
		case a.w != b.w:
			return a.w - b.w
		default:
			return a.v - b.v
		}
	})

	// promoted marks the instances made references.  Instances the loop
	// never touches keep RefOf == -1: lines 11-13's standalone references.
	promoted := make([]bool, n)
	for _, e := range entries {
		// SM[w][v] is still live iff: w has not become a non-reference
		// (row w not removed), v has not been represented or promoted
		// (column/row v not removed).
		if sel.RefOf[e.w] >= 0 || sel.RefOf[e.v] >= 0 || promoted[e.v] {
			continue
		}
		promoted[e.w] = true
		sel.RefOf[e.v] = e.w
	}
	return sel
}

// allReferences is the selection that makes each of n instances a
// reference.
func allReferences(n int) Selection {
	sel := Selection{RefOf: make([]int, n)}
	for i := range sel.RefOf {
		sel.RefOf[i] = -1
	}
	return sel
}
