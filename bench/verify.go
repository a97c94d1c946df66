package main

import (
	"fmt"
	"math"
	"reflect"

	"utcq/internal/core"
	"utcq/internal/faultfs"
	"utcq/internal/ingest"
	"utcq/internal/query"
	"utcq/internal/roadnet"
	"utcq/internal/store"
	"utcq/internal/traj"
)

// verifyOracle replays ops against tg and against query.Oracle over the
// uncompressed corpus, with the tolerances of
// internal/query/equivalence_test.go: an instance whose probability is
// within η_p of alpha may be on either side; a where location may be
// 25 m off; a when passage Ts+30 s off; and quantisation may flip the
// membership of borderline trajectories in a tenth of the range queries.
// One tolerance is added for when-queries, which the test's fixed seeds
// never needed: a location within the η_D distance quantum of where an
// instance starts or stops may be passed in one encoding and not in the
// other.
// It returns the ops checked, the ops that disagree beyond tolerance,
// and the first disagreement.
func verifyOracle(c *corpus, tg target, ops []readOp) (checked, failed int, first error) {
	oracle := query.NewOracle(c.g, c.trajs)
	etaP := core.DefaultOptions(c.profile.Ts).EtaP
	near := func(j, inst int, alpha float64) bool {
		return math.Abs(c.trajs[j].Instances[inst].P-alpha) <= etaP+1e-9
	}
	fail := func(err error) {
		failed++
		if first == nil {
			first = err
		}
	}
	rangeOps, rangeFlips := 0, 0
	for i := range ops {
		op := &ops[i]
		checked++
		switch op.kind {
		case opWhere:
			want, err := oracle.Where(op.traj, op.t, op.alpha)
			got, gerr := tg.Where(op.traj, op.t, op.alpha)
			if err != nil || gerr != nil {
				fail(fmt.Errorf("where(%d, %d): oracle %v, target %v", op.traj, op.t, err, gerr))
				continue
			}
			if err := sameWhere(c, op, want, got, near); err != nil {
				fail(err)
			}
		case opWhen:
			want, err := oracle.When(op.traj, op.loc, op.alpha)
			got, gerr := tg.When(op.traj, op.loc, op.alpha)
			if err != nil || gerr != nil {
				fail(fmt.Errorf("when(%d): oracle %v, target %v", op.traj, err, gerr))
				continue
			}
			atEnd := func(inst int) bool { return nearEnds(c, op.traj, inst, op) }
			if err := sameWhen(c, op, want, got, near, atEnd); err != nil {
				fail(err)
			}
		case opRange:
			want, err := oracle.Range(op.rect, op.t, op.alpha)
			got, gerr := tg.Range(op.rect, op.t, op.alpha)
			if err != nil || gerr != nil {
				fail(fmt.Errorf("range(t=%d): oracle %v, target %v", op.t, err, gerr))
				continue
			}
			rangeOps++
			rangeFlips += symmetricDiff(want, got)
		}
	}
	if budget := (rangeOps + 9) / 10; rangeFlips > budget {
		failed += rangeFlips - budget
		if first == nil {
			first = fmt.Errorf("%d membership flips across %d range queries against the oracle, tolerance %d", rangeFlips, rangeOps, budget)
		}
	}
	return checked, failed, first
}

func sameWhere(c *corpus, op *readOp, want, got []query.WhereResult, near func(j, inst int, alpha float64) bool) error {
	gotBy := map[int]query.WhereResult{}
	for _, r := range got {
		gotBy[r.Inst] = r
	}
	wantHas := map[int]bool{}
	for _, w := range want {
		wantHas[w.Inst] = true
		g, ok := gotBy[w.Inst]
		if !ok {
			if near(op.traj, w.Inst, op.alpha) {
				continue
			}
			return fmt.Errorf("where(%d, t=%d, a=%g): instance %d missing", op.traj, op.t, op.alpha, w.Inst)
		}
		gx, gy := c.g.Coords(g.Loc)
		wx, wy := c.g.Coords(w.Loc)
		if d := math.Hypot(gx-wx, gy-wy); d > 25 {
			return fmt.Errorf("where(%d, t=%d): instance %d is %.1f m off", op.traj, op.t, w.Inst, d)
		}
	}
	for inst := range gotBy {
		if !wantHas[inst] && !near(op.traj, inst, op.alpha) {
			return fmt.Errorf("where(%d, t=%d, a=%g): spurious instance %d", op.traj, op.t, op.alpha, inst)
		}
	}
	return nil
}

// nearEnds reports whether the queried location lies within the distance
// quantum of the first or last mapped location of an instance.
func nearEnds(c *corpus, j, inst int, op *readOp) bool {
	u := c.trajs[j]
	locs, err := u.Instances[inst].Locations(c.g, u.T)
	if err != nil {
		return false
	}
	quantum := core.DefaultOptions(c.profile.Ts).EtaD*c.g.Edge(op.loc.Edge).Length + 1e-6
	for _, end := range []roadnet.Position{locs[0].Pos, locs[len(locs)-1].Pos} {
		if end.Edge == op.loc.Edge && math.Abs(end.NDist-op.loc.NDist) <= quantum {
			return true
		}
	}
	return false
}

func sameWhen(c *corpus, op *readOp, want, got []query.WhenResult, near func(j, inst int, alpha float64) bool, atEnd func(inst int) bool) error {
	group := func(rs []query.WhenResult) map[int][]int64 {
		by := map[int][]int64{}
		for _, r := range rs {
			by[r.Inst] = append(by[r.Inst], r.T)
		}
		return by
	}
	wantBy, gotBy := group(want), group(got)
	for inst, wts := range wantBy {
		gts, ok := gotBy[inst]
		if !ok {
			if near(op.traj, inst, op.alpha) || atEnd(inst) {
				continue
			}
			return fmt.Errorf("when(%d, a=%g): instance %d has no passage, oracle has %d", op.traj, op.alpha, inst, len(wts))
		}
		if len(gts) != len(wts) {
			if atEnd(inst) {
				continue
			}
			return fmt.Errorf("when(%d): instance %d has %d passages, oracle %d", op.traj, inst, len(gts), len(wts))
		}
		for k := range wts {
			if d := math.Abs(float64(gts[k] - wts[k])); d > float64(c.profile.Ts)+30 {
				return fmt.Errorf("when(%d): instance %d passage %d is %.0f s off", op.traj, inst, k, d)
			}
		}
	}
	for inst := range gotBy {
		if _, ok := wantBy[inst]; !ok && !near(op.traj, inst, op.alpha) && !atEnd(inst) {
			return fmt.Errorf("when(%d, a=%g): spurious instance %d", op.traj, op.alpha, inst)
		}
	}
	return nil
}

// symmetricDiff counts the ids in exactly one of two ascending lists.
func symmetricDiff(a, b []int) int {
	in := map[int]bool{}
	for _, j := range a {
		in[j] = true
	}
	n := 0
	for _, j := range b {
		if in[j] {
			delete(in, j)
		} else {
			n++
		}
	}
	return n + len(in)
}

// answers is what a target said to a probe set, for exact comparison.
type answers struct {
	where [][]query.WhereResult
	when  [][]query.WhenResult
	trajs [][]int
}

// ask puts every probe op to tg.  Range answers keep only ids below
// cutoff, so that stores which agree on a prefix of the id space compare
// equal on it.
func ask(tg target, ops []readOp, cutoff int) (*answers, error) {
	a := &answers{}
	for i := range ops {
		op := &ops[i]
		switch op.kind {
		case opWhere:
			r, err := tg.Where(op.traj, op.t, op.alpha)
			if err != nil {
				return nil, fmt.Errorf("probe where(%d): %w", op.traj, err)
			}
			a.where = append(a.where, append([]query.WhereResult{}, r...))
		case opWhen:
			r, err := tg.When(op.traj, op.loc, op.alpha)
			if err != nil {
				return nil, fmt.Errorf("probe when(%d): %w", op.traj, err)
			}
			a.when = append(a.when, append([]query.WhenResult{}, r...))
		case opRange:
			r, err := tg.Range(op.rect, op.t, op.alpha)
			if err != nil {
				return nil, fmt.Errorf("probe range: %w", err)
			}
			kept := []int{}
			for _, j := range r {
				if j < cutoff {
					kept = append(kept, j)
				}
			}
			a.trajs = append(a.trajs, kept)
		}
	}
	return a, nil
}

// diff returns nil when two answer sets are identical, field for field
// and float for float.
func (a *answers) diff(b *answers, what string) error {
	if !reflect.DeepEqual(a, b) {
		return fmt.Errorf("%s: answers to the probe set differ", what)
	}
	return nil
}

// probeOps is the fixed probe set of a writing workload: the loadgen mix,
// with its recent-flagged ops aimed at the first `ingested` ingested
// trajectories.
func probeOps(c *corpus, seed int64, n, ingested int) []readOp {
	ops := newOpStream(c, loadgenMix, seed).take(n)
	for i := range ops {
		c.retarget(&ops[i], ingested)
	}
	return ops
}

// referenceStore is the single node every deployment must agree with: the
// corpus built in memory and the first batches of the write pool folded
// in through an ingester of its own (WAL on an in-memory filesystem).
func referenceStore(c *corpus, batches int) (*store.Store, error) {
	st, err := store.Build(c.g, c.trajs, storeOptions(c))
	if err != nil {
		return nil, err
	}
	opts := ingestOptions(c, faultfs.NewMemFS())
	ing, err := ingest.New(st, c.eix, "reference.wal", opts)
	if err != nil {
		return nil, err
	}
	for k := 0; k < batches; k++ {
		if _, err := ing.SubmitBatch(c.batch(k)); err != nil {
			_ = ing.Close() // the submit error is the one to report
			return nil, err
		}
		if _, err := ing.Flush(); err != nil {
			_ = ing.Close()
			return nil, err
		}
	}
	if err := ing.Close(); err != nil {
		return nil, err
	}
	if want := len(c.trajs) + batches*ingestBatch; st.NumTrajectories() != want {
		return nil, fmt.Errorf("reference node holds %d trajectories, want %d", st.NumTrajectories(), want)
	}
	return st, nil
}

// verifyDecode checks DecodeAll against its input: times, start vertices,
// edge sequences and time flags exact, relative distances and
// probabilities within their η bounds.
func verifyDecode(in, out []*traj.Uncertain, opts core.Options) error {
	if len(in) != len(out) {
		return fmt.Errorf("decoded %d trajectories, compressed %d", len(out), len(in))
	}
	for j := range in {
		a, b := in[j], out[j]
		if !reflect.DeepEqual(a.T, b.T) {
			return fmt.Errorf("trajectory %d: timestamps differ", j)
		}
		if len(a.Instances) != len(b.Instances) {
			return fmt.Errorf("trajectory %d: %d instances decoded, %d compressed", j, len(b.Instances), len(a.Instances))
		}
		for i := range a.Instances {
			x, y := &a.Instances[i], &b.Instances[i]
			if x.SV != y.SV || !reflect.DeepEqual(x.E, y.E) || !reflect.DeepEqual(x.TF, y.TF) {
				return fmt.Errorf("trajectory %d instance %d: path differs", j, i)
			}
			if math.Abs(x.P-y.P) > opts.EtaP+1e-12 {
				return fmt.Errorf("trajectory %d instance %d: p off by %g, bound %g", j, i, math.Abs(x.P-y.P), opts.EtaP)
			}
			if len(x.D) != len(y.D) {
				return fmt.Errorf("trajectory %d instance %d: %d distances decoded, %d compressed", j, i, len(y.D), len(x.D))
			}
			for k := range x.D {
				if math.Abs(x.D[k]-y.D[k]) > opts.EtaD+1e-12 {
					return fmt.Errorf("trajectory %d instance %d: D[%d] off by %g, bound %g", j, i, k, math.Abs(x.D[k]-y.D[k]), opts.EtaD)
				}
			}
		}
	}
	return nil
}
