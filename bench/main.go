// Command bench is the repository's benchmark: five named workloads over
// the whole serving stack (codec, index, engine, store, WAL ingest, HTTP
// node, cluster router), twelve end-to-end metrics measured with tracing
// off, and a separate traced run that attributes time and work to layers.
// README.md in this directory is the manual; BENCHMARK.json at the
// repository root is the contract it is run under.
//
//	bench -workload node-read -seed 7 -seconds 10 -trace 0   one run, one JSON line last
//	bench -seed 7 -reps 3 -out a.json                         all workloads, a record for -compare
//	bench -trace 1                                            the traced run of every workload
//	bench -compare a.json b.json                              row per workload × end-to-end metric
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// runCtx is what a workload is given: the seed that all of its inputs
// derive from, the length of its timed phase, and a scratch directory.
type runCtx struct {
	workload string
	seed     int64
	seconds  float64
	scale    float64
	trace    bool
	dir      string
	clients  int
	log      io.Writer
}

func (rc *runCtx) logf(format string, args ...any) {
	fmt.Fprintf(rc.log, "bench: "+format+"\n", args...)
}

// dur returns the given share of the timed phase.
func (rc *runCtx) dur(share float64) time.Duration {
	return time.Duration(share * rc.seconds * float64(time.Second))
}

// scaled shrinks a size by -scale, keeping at least min.
func (rc *runCtx) scaled(n, min int) int { return max(int(float64(n)*rc.scale+0.5), min) }

// result is what one run of one workload measured.
type result struct {
	attempted int
	failed    int
	problems  []string           // why ops failed or verification did not hold
	values    map[string]float64 // metric name → value
	samples   map[string]int     // metric name → sample count behind a median
	spans     []span             // traced run only
}

func newResult() *result {
	return &result{values: map[string]float64{}, samples: map[string]int{}}
}

func (r *result) set(name string, v float64) { r.values[name] = v }

func (r *result) setN(name string, v float64, n int) {
	r.values[name] = v
	r.samples[name] = n
}

// zero sets metrics of layers the workload does not run.
func (r *result) zero(names ...string) {
	for _, name := range names {
		r.values[name] = 0
	}
}

// count adds attempted operations and, with a reason, failed ones.
func (r *result) count(attempted, failed int, err error) {
	r.attempted += attempted
	r.failed += failed
	if failed > 0 && err != nil {
		r.problems = append(r.problems, err.Error())
	}
}

// check records one verification step: it counts as one operation and
// fails with the given reason.
func (r *result) check(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.problems = append(r.problems, err.Error())
	}
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("bench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	workload := fl.String("workload", "", "workload name, or several separated by commas (default: all five)")
	seed := fl.Int64("seed", 1, "seed of every generated input and op stream")
	seconds := fl.Float64("seconds", 10, "length of a workload's timed phase")
	trace := fl.Int("trace", 0, "1: the traced run (per-layer metrics, spans in out/); 0: end-to-end metrics, tracing off")
	reps := fl.Int("reps", 1, "repetitions of each workload; the record holds median and quartiles across them")
	scale := fl.Float64("scale", 1, "shrink corpus and stream sizes; for smoke tests only, -compare refuses such a record")
	dir := fl.String("dir", os.TempDir(), "directory under which store directories are created (and removed)")
	out := fl.String("out", "", "write the full record, as -compare reads it, to this file")
	outDir := fl.String("outdir", "out", "directory the traced run writes its span files to")
	compare := fl.Bool("compare", false, "compare two records: bench -compare a.json b.json")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fl.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two record files")
			return 2
		}
		return compareFiles(fl.Arg(0), fl.Arg(1), stdout, stderr)
	}
	if fl.NArg() != 0 {
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fl.Arg(0))
		return 2
	}
	if *seconds <= 0 || *scale <= 0 || *scale > 1 || *reps < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: need -seconds > 0, 0 < -scale <= 1, -reps >= 1, -trace 0 or 1")
		return 2
	}
	var specs []*workloadSpec
	if *workload == "" {
		for i := range workloads {
			specs = append(specs, &workloads[i])
		}
	}
	for _, name := range strings.FieldsFunc(*workload, func(r rune) bool { return r == ',' }) {
		spec := workloadByName(name)
		if spec == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", name)
			return 2
		}
		specs = append(specs, spec)
	}

	rec := newRecord(*seed, *seconds, *scale, *trace == 1, *reps)
	fmt.Fprintf(stderr, "bench: %s, GOMAXPROCS %d, %s; host.calib_ns %.1f; closed loop, %d client goroutines, one connection each; %s\n",
		rec.Meta.GoVersion, rec.Meta.GOMAXPROCS, rec.Meta.CPU, rec.Meta.CalibNs, rec.Meta.Clients, flushPolicy)
	ok := true
	for _, spec := range specs {
		wr := &workloadRecord{Name: spec.name, Why: spec.why, Correct: true}
		for rep := 0; rep < *reps; rep++ {
			runDir, err := os.MkdirTemp(*dir, "utcq-bench-"+spec.name+"-")
			if err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				return 1
			}
			rc := &runCtx{workload: spec.name, seed: *seed, seconds: *seconds, scale: *scale, trace: *trace == 1,
				dir: runDir, clients: rec.Meta.Clients, log: stderr}
			t0 := time.Now()
			res, err := spec.run(rc)
			// Mappings of stores the run has dropped are released by the
			// collector; do it before the directory goes.
			runtime.GC()
			if rerr := os.RemoveAll(runDir); rerr != nil && err == nil {
				err = rerr
			}
			syscall.Sync()
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", spec.name, err)
				return 1
			}
			rc.logf("%s rep %d: %d ops attempted, %d failed, %.1fs", spec.name, rep+1, res.attempted, res.failed, time.Since(t0).Seconds())
			for _, p := range res.problems {
				rc.logf("%s: FAILED: %s", spec.name, p)
			}
			if *trace == 1 {
				if err := writeSpans(*outDir, spec.name, res.spans); err != nil {
					fmt.Fprintf(stderr, "bench: %v\n", err)
					return 1
				}
			}
			wr.add(res)
			rec.Meta.calib = append(rec.Meta.calib, hostCalibNs())
			rec.Meta.CalibNs = median(rec.Meta.calib)
		}
		defs := endToEnd
		if *trace == 1 {
			defs = perLayer
		}
		if missing := wr.finish(defs); len(missing) > 0 {
			fmt.Fprintf(stderr, "bench: %s did not report %s\n", spec.name, strings.Join(missing, ", "))
			return 1
		}
		ok = ok && wr.Correct
		rec.Workloads = append(rec.Workloads, wr)
		printWorkload(stdout, wr)
	}
	if *out != "" {
		if err := rec.write(*out); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	if err := json.NewEncoder(stdout).Encode(rec.contractLine()); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if !ok {
		return 1
	}
	return 0
}

// printWorkload prints every metric of a workload by name, with its unit,
// direction, bound and spread.
func printWorkload(w io.Writer, wr *workloadRecord) {
	fmt.Fprintf(w, "\n%s — %s\n  attempted %d, failed %d, correct %v\n", wr.Name, wr.Why, wr.Attempted, wr.Failed, wr.Correct)
	for _, m := range wr.Metrics {
		line := fmt.Sprintf("  %-34s %14.4f %-6s %-6s better", m.Name, m.Value, m.Unit, m.Better)
		if m.Bound > 0 {
			line += fmt.Sprintf(", bound %.2f", m.Bound)
		}
		if m.Samples > 0 {
			line += fmt.Sprintf(", median of %d", m.Samples)
		}
		if len(m.Reps) > 1 {
			line += fmt.Sprintf(", quartiles %.4f..%.4f over %d reps", m.Q1, m.Q3, len(m.Reps))
		}
		fmt.Fprintln(w, line)
	}
}

// writeSpans writes the traced run's spans, one JSON object per line.
func writeSpans(dir, workload string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+workload+".jsonl"))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
