package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// benchmarkFile is BENCHMARK.json as the driver reads it.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkFileMatchesSource: BENCHMARK.json and the tables in
// metrics.go / workloads.go are the same list twice; neither may drift.
func TestBenchmarkFileMatchesSource(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, workloads.go %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q, workloads.go %q (or their reasons differ)", i, w.Name, workloads[i].name)
		}
	}
	same := func(kind string, file, src []metricDef) {
		if len(file) != len(src) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, metrics.go %d", kind, len(file), len(src))
		}
		for i := range file {
			if file[i] != src[i] {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, metrics.go %+v", kind, i, file[i], src[i])
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd)
	same("per_layer", bf.PerLayer, perLayer)
}

// runSmoke runs every workload at -scale 0.02 and returns the record.
func runSmoke(t *testing.T, trace string, outDir string) *record {
	t.Helper()
	recFile := filepath.Join(t.TempDir(), "record.json")
	var stdout, stderr bytes.Buffer
	code := realMain([]string{"-scale", "0.02", "-seconds", "0.5", "-seed", "3", "-trace", trace,
		"-dir", t.TempDir(), "-outdir", outDir, "-out", recFile}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("bench exited %d\n%s", code, stderr.String())
	}
	// The last line of standard output is the driver's contract.
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var last map[string]json.RawMessage
	if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
		t.Fatalf("last line of standard output is not JSON: %v", err)
	}
	for _, key := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := last[key]; !ok {
			t.Errorf("last line lacks %q", key)
		}
	}
	if len(last) != 4 {
		t.Errorf("last line has %d keys, want exactly 4", len(last))
	}
	rec, err := readRecord(recFile)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Claim != nil {
		t.Errorf("record claims %q; the benchmark claims nothing", *rec.Claim)
	}
	return rec
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkRecord asserts that every workload of BENCHMARK.json reported every
// listed metric with a unit and a finite value, under a well-formed name,
// and that no op failed.  No timing is compared with anything: the smoke
// test must not flake on a loaded host.
func checkRecord(t *testing.T, rec *record, bf benchmarkFile, defs []metricDef) {
	t.Helper()
	for _, w := range bf.Workloads {
		var wr *workloadRecord
		for _, cand := range rec.Workloads {
			if cand.Name == w.Name {
				wr = cand
			}
		}
		if wr == nil {
			t.Errorf("workload %s did not run", w.Name)
			continue
		}
		if !nameRE.MatchString(w.Name) {
			t.Errorf("workload name %q is malformed", w.Name)
		}
		if wr.Failed != 0 || !wr.Correct || wr.Attempted < 1 {
			t.Errorf("%s: attempted %d, failed %d, correct %v: %v", w.Name, wr.Attempted, wr.Failed, wr.Correct, wr.Problems)
		}
		for _, d := range defs {
			m := wr.metric(d.Name)
			switch {
			case !nameRE.MatchString(d.Name):
				t.Errorf("metric name %q is malformed", d.Name)
			case m == nil:
				t.Errorf("%s did not report %s", w.Name, d.Name)
			case m.Unit == "" || m.Unit != d.Unit:
				t.Errorf("%s %s: unit %q, BENCHMARK.json says %q", w.Name, d.Name, m.Unit, d.Unit)
			case !finite(m.Value):
				t.Errorf("%s %s is not finite", w.Name, d.Name)
			case d.Bound > 0 && m.Value == 0:
				t.Errorf("%s %s is 0; an end-to-end metric is never 0", w.Name, d.Name)
			}
		}
	}
}

// TestSmoke is the CI hook: all five workloads, end to end, in a few seconds.
func TestSmoke(t *testing.T) {
	bf := readBenchmarkFile(t)
	checkRecord(t, runSmoke(t, "0", t.TempDir()), bf, bf.EndToEnd)
}

// TestSmokeTraced runs the traced run and checks the spans it wrote:
// every span names a parent that exists for the same op, or is a root.
func TestSmokeTraced(t *testing.T) {
	bf := readBenchmarkFile(t)
	outDir := t.TempDir()
	checkRecord(t, runSmoke(t, "1", outDir), bf, bf.PerLayer)
	for _, w := range bf.Workloads {
		f, err := os.Open(filepath.Join(outDir, "trace-"+w.Name+".jsonl"))
		if err != nil {
			t.Error(err)
			continue
		}
		type key struct {
			op   int
			what string // layer.name
		}
		have := map[key]bool{}
		var spans []span
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			var s span
			if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
				t.Fatalf("%s: %v", f.Name(), err)
			}
			if s.Workload != w.Name || s.EndNs < s.StartNs {
				t.Errorf("%s: malformed span %+v", f.Name(), s)
			}
			have[key{s.Op, s.Layer + "." + s.Name}] = true
			spans = append(spans, s)
		}
		f.Close()
		if len(spans) == 0 {
			t.Errorf("%s holds no span", f.Name())
		}
		roots := 0
		for _, s := range spans {
			if s.Parent == "" {
				roots++
			} else if !have[key{s.Op, s.Parent}] {
				t.Errorf("%s: span %s.%s of op %d names parent %s, which op %d does not have", w.Name, s.Layer, s.Name, s.Op, s.Parent, s.Op)
			}
		}
		if roots == 0 {
			t.Errorf("%s: no root span", w.Name)
		}
	}
}

// TestCompare pins -compare: it refuses a smoke record, tells ok from
// worse, and normalises when the hosts' calibrations differ.
func TestCompare(t *testing.T) {
	var def metricDef
	for _, d := range endToEnd {
		if d.Name == "where_p50_us" {
			def = d
		}
	}
	mk := func(calib, where float64) *record {
		return &record{Meta: recordMeta{Seed: 1, Seconds: 10, Scale: 1, CalibNs: calib}, Workloads: []*workloadRecord{{
			Name: "node-read", Metrics: []*metricRecord{{metricDef: def, Value: where, Reps: []float64{where}}},
		}}}
	}
	var out bytes.Buffer
	if worse, err := compareRecords(mk(1000, 50), mk(1000, 52), &out); err != nil || worse != 0 {
		t.Errorf("4%% slower within a 15%% bound: worse=%d err=%v\n%s", worse, err, out.String())
	}
	if worse, err := compareRecords(mk(1000, 50), mk(1000, 70), &out); err != nil || worse != 1 {
		t.Errorf("40%% slower: worse=%d err=%v", worse, err)
	}
	out.Reset()
	if worse, err := compareRecords(mk(1000, 50), mk(1400, 70), &out); err != nil || worse != 0 || !bytes.Contains(out.Bytes(), []byte("CALIBRATION-NORMALISED")) {
		t.Errorf("40%% slower on a 40%% slower host: worse=%d err=%v\n%s", worse, err, out.String())
	}
	smoke := mk(1000, 50)
	smoke.Meta.Scale = 0.02
	if _, err := compareRecords(smoke, mk(1000, 50), &out); err == nil {
		t.Error("a -scale 0.02 record was accepted")
	}
}
