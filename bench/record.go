package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"text/tabwriter"
)

// record is the benchmark's own output format (-out), read by -compare.
// The meta block is what makes two records comparable: the same seed,
// scale and seconds, and a host whose calibration kernel runs as fast.
type record struct {
	Meta      recordMeta        `json:"meta"`
	Workloads []*workloadRecord `json:"workloads"`
	// Claim is always null: the benchmark measures, it does not claim.
	Claim *string `json:"claim"`
}

type recordMeta struct {
	GoVersion   string  `json:"go_version"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	CPU         string  `json:"cpu"`
	CalibNs     float64 `json:"host.calib_ns"` // median of a reading at the start and one after every run
	calib       []float64
	Seed        int64   `json:"seed"`
	Seconds     float64 `json:"seconds"`
	Scale       float64 `json:"scale"`
	Trace       bool    `json:"trace"`
	Reps        int     `json:"reps"`
	Clients     int     `json:"clients"`
	LoadShape   string  `json:"load_shape"`
	FlushPolicy string  `json:"flush_policy"`
}

type workloadRecord struct {
	Name      string          `json:"name"`
	Why       string          `json:"why"`
	Attempted int             `json:"attempted"`
	Failed    int             `json:"failed"`
	Correct   bool            `json:"correct"`
	Problems  []string        `json:"problems,omitempty"`
	Metrics   []*metricRecord `json:"metrics"`

	reps []*result
}

// metricRecord is one metric of one workload: the median across
// repetitions, with the quartiles when there is more than one.
type metricRecord struct {
	metricDef
	Value   float64   `json:"value"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	Samples int       `json:"samples,omitempty"` // per repetition, for metrics that are medians
	Reps    []float64 `json:"reps"`
}

func newRecord(seed int64, seconds, scale float64, trace bool, reps int) *record {
	calib := hostCalibNs()
	return &record{Meta: recordMeta{
		calib:       []float64{calib},
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		CPU:         cpuModel(),
		CalibNs:     calib,
		Seed:        seed,
		Seconds:     seconds,
		Scale:       scale,
		Trace:       trace,
		Reps:        reps,
		Clients:     min(runtime.NumCPU(), 2),
		LoadShape:   "closed loop: every client sends its next request when the previous reply has arrived",
		FlushPolicy: flushPolicy,
	}}
}

// cpuModel returns the processor's name as the kernel reports it.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func (wr *workloadRecord) add(res *result) {
	wr.reps = append(wr.reps, res)
	wr.Attempted += res.attempted
	wr.Failed += res.failed
	wr.Problems = append(wr.Problems, res.problems...)
}

// finish folds the repetitions into one metricRecord per definition and
// returns the names no repetition reported or that are not finite.
func (wr *workloadRecord) finish(defs []metricDef) (missing []string) {
	wr.Correct = wr.Failed == 0
	for _, d := range defs {
		m := &metricRecord{metricDef: d}
		for _, res := range wr.reps {
			v, ok := res.values[d.Name]
			if !ok || !finite(v) {
				missing = append(missing, d.Name)
				break
			}
			m.Reps = append(m.Reps, v)
			m.Samples = res.samples[d.Name]
		}
		if len(m.Reps) != len(wr.reps) {
			continue
		}
		s := sortedCopy(m.Reps)
		m.Value, m.Q1, m.Q3 = quantile(s, 0.5), quantile(s, 0.25), quantile(s, 0.75)
		wr.Metrics = append(wr.Metrics, m)
	}
	return missing
}

func (wr *workloadRecord) metric(name string) *metricRecord {
	for _, m := range wr.Metrics {
		if m.Name == name {
			return m
		}
	}
	return nil
}

// contractLine is the last line of standard output: the four keys the
// driver reads.  With one workload the metric names are bare; with
// several they are prefixed with the workload's name.
func (rec *record) contractLine() map[string]any {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]mv{}
	attempted, failed := 0, 0
	for _, wr := range rec.Workloads {
		attempted += wr.Attempted
		failed += wr.Failed
		for _, m := range wr.Metrics {
			name := m.Name
			if len(rec.Workloads) > 1 {
				name = wr.Name + "." + name
			}
			metrics[name] = mv{m.Value, m.Unit}
		}
	}
	return map[string]any{"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
}

func (rec *record) write(path string) error {
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readRecord(path string) (*record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rec record
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rec, nil
}

// compareFiles prints one row per workload × end-to-end metric of two
// records of the same benchmark: both medians, the ratio b/a with a as
// its base, the bound, and a verdict.
//
//	ok          b is not worse than a by more than the bound
//	worse       it is
//	unresolved  a record's own quartiles are further apart than the bound,
//	            so the two medians cannot be told apart at that bound
//
// Records taken at another -scale than 1, or with different seeds or run
// lengths, are refused.  When the hosts' calibration kernels differ by
// more than a tenth, timings and rates are divided by the calibration
// ratio first and the column says so.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	worse, err := func() (int, error) {
		a, err := readRecord(pathA)
		if err != nil {
			return 0, err
		}
		b, err := readRecord(pathB)
		if err != nil {
			return 0, err
		}
		return compareRecords(a, b, stdout)
	}()
	switch {
	case err != nil:
		fmt.Fprintf(stderr, "bench: -compare: %v\n", err)
		return 2
	case worse > 0:
		return 1
	}
	return 0
}

func compareRecords(a, b *record, w io.Writer) (worse int, err error) {
	for _, r := range []*record{a, b} {
		if r.Meta.Scale != 1 {
			return 0, fmt.Errorf("a record taken at -scale %g is a smoke run, not a measurement", r.Meta.Scale)
		}
		if r.Meta.Trace {
			return 0, fmt.Errorf("a traced record holds no end-to-end metrics")
		}
	}
	if a.Meta.Seed != b.Meta.Seed || a.Meta.Seconds != b.Meta.Seconds {
		return 0, fmt.Errorf("records differ in seed (%d, %d) or seconds (%g, %g): not the same work",
			a.Meta.Seed, b.Meta.Seed, a.Meta.Seconds, b.Meta.Seconds)
	}
	// calib > 1: host b is slower.
	calib := b.Meta.CalibNs / a.Meta.CalibNs
	normalise := math.Abs(calib-1) > 0.10
	ratioHead := "b/a (base a)"
	if normalise {
		ratioHead = "b/a, CALIBRATION-NORMALISED (base a)"
		fmt.Fprintf(w, "host.calib_ns differs: a %.1f, b %.1f (b/a %.3f); timings of b are divided, rates multiplied, by %.3f before comparing\n",
			a.Meta.CalibNs, b.Meta.CalibNs, calib, calib)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tunit\ta median\tb median\t%s\tbound\tverdict\n", ratioHead)
	for _, wa := range a.Workloads {
		var wb *workloadRecord
		for _, cand := range b.Workloads {
			if cand.Name == wa.Name {
				wb = cand
			}
		}
		if wb == nil {
			continue
		}
		if wa.Failed > 0 || wb.Failed > 0 {
			fmt.Fprintf(tw, "%s\t(failed ops: a %d, b %d)\t\t\t\t\t\tworse\n", wa.Name, wa.Failed, wb.Failed)
			worse++
		}
		for _, d := range endToEnd {
			ma, mb := wa.metric(d.Name), wb.metric(d.Name)
			if ma == nil || mb == nil {
				continue
			}
			vb := mb.Value
			if normalise {
				switch {
				case d.Unit == "1/s":
					vb *= calib
				case d.Unit == "s" || d.Unit == "ms" || d.Unit == "us":
					vb /= calib
				}
			}
			ratio := vb / ma.Value
			// loss > 0: b is worse than a by that share of a.
			loss := ratio - 1
			if d.Better == "higher" {
				loss = 1 - ratio
			}
			verdict := "ok"
			switch {
			case spread(ma) > d.Bound || spread(mb) > d.Bound:
				verdict = "unresolved"
			case loss > d.Bound:
				verdict = "worse"
				worse++
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4f\t%.4f\t%.4f\t%.2f\t%s\n", wa.Name, d.Name, d.Unit, ma.Value, mb.Value, ratio, d.Bound, verdict)
		}
	}
	return worse, tw.Flush()
}

// spread is the distance between a metric's quartiles across repetitions
// as a share of its median; 0 with a single repetition, where none is known.
func spread(m *metricRecord) float64 {
	if len(m.Reps) < 2 || m.Value == 0 {
		return 0
	}
	return math.Abs(m.Q3-m.Q1) / math.Abs(m.Value)
}
