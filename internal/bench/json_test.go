package bench

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// fakeExp builds a deterministic synthetic experiment: one measured time
// row, one paper-constant row, one ratio row, one n/a cell, one text-only
// cell. scale lets tests fabricate a "regressed" run of the same shape.
func fakeExp(scale float64) Experiment {
	return Experiment{ID: "Table T", Title: "synthetic", Run: func() *Table {
		t := &Table{ID: "Table T", Title: "synthetic",
			Cols: []string{"measured", "paper"}}
		t.Add("op", Us(2.0*scale), Us(1.6))
		t.Add("ratio", X(3.5*scale), Value{})
		t.Add("missing", NA("no interface"), Value{})
		t.Add("comment", Value{Note: "text only"}, Value{})
		t.PaperRef("op", "measured", 1.6)
		t.Note("a footnote")
		return t
	}}
}

func TestCollectJSONShape(t *testing.T) {
	f := CollectJSON([]Experiment{fakeExp(1)}, 3, "testbox")
	if err := Validate(f); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if f.Schema != SchemaName || f.SchemaVersion != SchemaVersion {
		t.Fatalf("discriminator %q v%d", f.Schema, f.SchemaVersion)
	}
	if f.Platform != "testbox" || f.Trials != 3 {
		t.Fatalf("platform %q trials %d", f.Platform, f.Trials)
	}
	if len(f.Experiments) != 1 {
		t.Fatalf("experiments = %d", len(f.Experiments))
	}
	e := f.Experiments[0]
	if len(e.Notes) != 1 || e.Notes[0] != "a footnote" {
		t.Fatalf("notes = %v", e.Notes)
	}
	// Numeric cells only: op/measured, op/paper, ratio/measured — plus
	// the synthesized host wall-clock metric. The n/a and text-only
	// cells and the spacer cells must not become metrics.
	want := map[string]struct {
		unit, source string
		v            float64
		paper        bool
	}{
		"op/measured":    {"us", SourceMeasured, 2.0, true},
		"op/paper":       {"us", SourcePaper, 1.6, false},
		"ratio/measured": {"x", SourceMeasured, 3.5, false},
	}
	if len(e.Metrics) != len(want)+1 {
		t.Fatalf("got %d metrics, want %d: %+v", len(e.Metrics), len(want)+1, e.Metrics)
	}
	for _, m := range e.Metrics {
		if m.Name == HostMetricName {
			if m.Unit != "ns" || m.Source != SourceHost {
				t.Errorf("%s: unit %q source %q, want ns host", m.Name, m.Unit, m.Source)
			}
			if m.Trials != 3 || len(m.Samples) != 3 {
				t.Errorf("%s: trials %d samples %d", m.Name, m.Trials, len(m.Samples))
			}
			for _, s := range m.Samples {
				if s < 0 {
					t.Errorf("%s: negative wall-clock sample %g", m.Name, s)
				}
			}
			continue
		}
		w, ok := want[m.Name]
		if !ok {
			t.Fatalf("unexpected metric %q", m.Name)
		}
		if m.Unit != w.unit || m.Source != w.source {
			t.Errorf("%s: unit %q source %q, want %q %q", m.Name, m.Unit, m.Source, w.unit, w.source)
		}
		if m.Trials != 3 || len(m.Samples) != 3 {
			t.Errorf("%s: trials %d samples %d", m.Name, m.Trials, len(m.Samples))
		}
		// Deterministic: every sample equal, so all stats collapse.
		for _, s := range m.Samples {
			if s != w.v {
				t.Errorf("%s: sample %g, want %g", m.Name, s, w.v)
			}
		}
		if m.Min != w.v || math.Abs(m.Mean-w.v) > 1e-9 || m.P50 != w.v || m.P99 != w.v || m.Max != w.v {
			t.Errorf("%s: stats %g/%g/%g/%g/%g, want all %g", m.Name, m.Min, m.Mean, m.P50, m.P99, m.Max, w.v)
		}
		if w.paper {
			if m.Paper == nil || *m.Paper != 1.6 {
				t.Errorf("%s: paper ref %v, want 1.6", m.Name, m.Paper)
			}
		} else if m.Paper != nil {
			t.Errorf("%s: unexpected paper ref %g", m.Name, *m.Paper)
		}
	}
}

func TestCollectJSONRoundTripsThroughEncoding(t *testing.T) {
	f := CollectJSON([]Experiment{fakeExp(1)}, 2, "testbox")
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var back File
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if err := Validate(&back); err != nil {
		t.Fatalf("Validate after round trip: %v", err)
	}
	if !strings.Contains(string(data), `"schema": "aegis-bench"`) {
		t.Fatalf("discriminator missing from encoding:\n%s", data)
	}
}

func TestSampleStats(t *testing.T) {
	min, mean, p50, p99, max := sampleStats([]float64{5, 1, 3, 2, 4})
	if min != 1 || max != 5 || mean != 3 || p50 != 3 || p99 != 5 {
		t.Fatalf("got %g %g %g %g %g", min, mean, p50, p99, max)
	}
	min, mean, p50, p99, max = sampleStats([]float64{7})
	if min != 7 || mean != 7 || p50 != 7 || p99 != 7 || max != 7 {
		t.Fatalf("single sample: got %g %g %g %g %g", min, mean, p50, p99, max)
	}
}

func TestValidateRejectsMalformed(t *testing.T) {
	good := func() *File { return CollectJSON([]Experiment{fakeExp(1)}, 2, "x") }
	cases := []struct {
		name   string
		break_ func(*File)
	}{
		{"wrong schema", func(f *File) { f.Schema = "not-bench" }},
		{"wrong version", func(f *File) { f.SchemaVersion = 99 }},
		{"zero trials", func(f *File) { f.Trials = 0 }},
		{"no experiments", func(f *File) { f.Experiments = nil }},
		{"empty id", func(f *File) { f.Experiments[0].ID = "" }},
		{"dup experiment", func(f *File) { f.Experiments = append(f.Experiments, f.Experiments[0]) }},
		{"empty metric name", func(f *File) { f.Experiments[0].Metrics[0].Name = "" }},
		{"dup metric", func(f *File) {
			e := &f.Experiments[0]
			e.Metrics = append(e.Metrics, e.Metrics[0])
		}},
		{"bad source", func(f *File) { f.Experiments[0].Metrics[0].Source = "vibes" }},
		{"trials mismatch", func(f *File) { f.Experiments[0].Metrics[0].Trials = 7 }},
		{"sample count", func(f *File) {
			m := &f.Experiments[0].Metrics[0]
			m.Samples = m.Samples[:1]
		}},
		{"unordered stats", func(f *File) { f.Experiments[0].Metrics[0].Min = 1e9 }},
		{"mean out of range", func(f *File) { f.Experiments[0].Metrics[0].Mean = -1 }},
	}
	for _, tc := range cases {
		f := good()
		if err := Validate(f); err != nil {
			t.Fatalf("%s: baseline invalid: %v", tc.name, err)
		}
		tc.break_(f)
		if err := Validate(f); err == nil {
			t.Errorf("%s: Validate accepted a broken file", tc.name)
		}
	}
}

func TestDiffSelfCompareIsClean(t *testing.T) {
	f := CollectJSON([]Experiment{fakeExp(1)}, 2, "x")
	r := Diff(f, f, 0) // 0% threshold: any delta at all would trip
	if !r.OK() {
		t.Fatalf("self-compare failed:\n%s", r.Render())
	}
	if len(r.Regressions) != 0 || len(r.Improvements) != 0 ||
		len(r.MissingInNew) != 0 || len(r.AddedInNew) != 0 {
		t.Fatalf("self-compare not clean:\n%s", r.Render())
	}
	if r.Compared != 1 { // only op/measured is gated (us + measured)
		t.Fatalf("Compared = %d, want 1", r.Compared)
	}
}

func TestDiffFlagsInflatedMetric(t *testing.T) {
	old := CollectJSON([]Experiment{fakeExp(1)}, 2, "x")
	inflated := CollectJSON([]Experiment{fakeExp(1.10)}, 2, "x") // +10%
	r := Diff(old, inflated, 0.05)
	if r.OK() {
		t.Fatalf("10%% inflation passed a 5%% gate:\n%s", r.Render())
	}
	// Both gated fields (min and p50) of op/measured regressed; the ratio
	// row and the paper column moved too but are not gated.
	if len(r.Regressions) != 2 {
		t.Fatalf("regressions = %d, want 2 (min+p50):\n%s", len(r.Regressions), r.Render())
	}
	for _, d := range r.Regressions {
		if d.Metric != "op/measured" {
			t.Errorf("gated wrong metric %q", d.Metric)
		}
		if math.Abs(d.Delta-0.10) > 1e-9 {
			t.Errorf("%s delta %g, want 0.10", d.Field, d.Delta)
		}
	}
	if !strings.Contains(r.Render(), "gate: FAIL") {
		t.Errorf("Render lacks FAIL marker:\n%s", r.Render())
	}
	// The same inflation under a looser gate passes and is not even an
	// improvement.
	if r := Diff(old, inflated, 0.20); !r.OK() {
		t.Fatalf("10%% inflation failed a 20%% gate:\n%s", r.Render())
	}
}

func TestDiffReportsImprovementAndChurn(t *testing.T) {
	old := CollectJSON([]Experiment{fakeExp(1)}, 2, "x")
	better := CollectJSON([]Experiment{fakeExp(0.5)}, 2, "x")
	r := Diff(old, better, 0.05)
	if !r.OK() {
		t.Fatalf("speedup flagged as regression:\n%s", r.Render())
	}
	if len(r.Improvements) != 2 {
		t.Fatalf("improvements = %d, want 2:\n%s", len(r.Improvements), r.Render())
	}

	// A gated metric vanishing or appearing is churn, not a gate failure.
	renamed := CollectJSON([]Experiment{fakeExp(1)}, 2, "x")
	renamed.Experiments[0].Metrics[0].Name = "op2/measured"
	r = Diff(old, renamed, 0.05)
	if !r.OK() {
		t.Fatalf("churn failed the gate:\n%s", r.Render())
	}
	if len(r.MissingInNew) != 1 || len(r.AddedInNew) != 1 {
		t.Fatalf("churn not reported:\n%s", r.Render())
	}
}

func TestRelDelta(t *testing.T) {
	if d := relDelta(0, 0); d != 0 {
		t.Errorf("relDelta(0,0) = %g", d)
	}
	if d := relDelta(0, 1); !math.IsInf(d, 1) {
		t.Errorf("relDelta(0,1) = %g, want +Inf", d)
	}
	if d := relDelta(2, 3); d != 0.5 {
		t.Errorf("relDelta(2,3) = %g", d)
	}
	if d := relDelta(4, 2); d != -0.5 {
		t.Errorf("relDelta(4,2) = %g", d)
	}
}

func TestMetricSource(t *testing.T) {
	cases := []struct {
		row, col, want string
	}{
		{"op", "measured", SourceMeasured},
		{"op", "paper", SourcePaper},
		{"L3 scaled by SPECint92 (paper)", "time", SourcePaper},
		{"dirty", "ExOS/Aegis", SourceMeasured},
	}
	for _, c := range cases {
		if got := metricSource(c.row, c.col); got != c.want {
			t.Errorf("metricSource(%q, %q) = %q, want %q", c.row, c.col, got, c.want)
		}
	}
}

// TestBenchJSONOverRealExperiment exercises the full path on an actual
// simulator experiment: Table 2 collected over 2 trials must validate,
// carry its paper references, and self-diff clean — the deterministic
// simulator yields identical samples across trials.
func TestBenchJSONOverRealExperiment(t *testing.T) {
	exps := []Experiment{{ID: "Table 2", Title: "null calls", Run: Table2}}
	f := CollectJSON(exps, 2, "test")
	if err := Validate(f); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	var sys *MetricJSON
	for i, m := range f.Experiments[0].Metrics {
		if m.Name == "system call (null/getpid)/Aegis" {
			sys = &f.Experiments[0].Metrics[i]
		}
	}
	if sys == nil {
		t.Fatalf("syscall metric missing: %+v", f.Experiments[0].Metrics)
	}
	if sys.Paper == nil || *sys.Paper != 1.6 {
		t.Errorf("syscall paper ref = %v, want 1.6", sys.Paper)
	}
	if sys.Samples[0] != sys.Samples[1] {
		t.Errorf("simulator nondeterministic: samples %v", sys.Samples)
	}
	if r := Diff(f, f, 0); !r.OK() {
		t.Errorf("self-diff failed:\n%s", r.Render())
	}
}

// TestBenchOutputIdenticalWithMetricsOff is the harness-level half of the
// observation contract (the kernel-level half is aegis.TestMetricsOffIsFree):
// turning histogram recording off must leave every rendered number of a
// measured table byte-for-byte identical, because recording never advances
// the simulated clock.
func TestBenchOutputIdenticalWithMetricsOff(t *testing.T) {
	if MetricsOff {
		t.Fatal("MetricsOff already set")
	}
	on := Table2().Format()
	MetricsOff = true
	defer func() { MetricsOff = false }()
	off := Table2().Format()
	if on != off {
		t.Fatalf("Table 2 output differs with metrics off:\n--- metrics on ---\n%s\n--- metrics off ---\n%s", on, off)
	}
}

// TestDiffHostDeltas: host wall-clock metrics are reported (best-of-
// trials) but never gate, no matter how large the movement — host time
// varies with the machine; only simulated time wears the threshold.
func TestDiffHostDeltas(t *testing.T) {
	old := CollectJSON([]Experiment{fakeExp(1)}, 2, "x")
	slower := CollectJSON([]Experiment{fakeExp(1)}, 2, "x")
	for ei := range slower.Experiments {
		for mi, m := range slower.Experiments[ei].Metrics {
			if m.Name == HostMetricName {
				m.Min *= 100
				m.Mean *= 100
				m.P50 *= 100
				m.P99 *= 100
				m.Max *= 100
				slower.Experiments[ei].Metrics[mi] = m
			}
		}
	}
	r := Diff(old, slower, 0)
	if !r.OK() {
		t.Fatalf("host wall-clock movement tripped the gate:\n%s", r.Render())
	}
	if len(r.HostDeltas) != 1 {
		t.Fatalf("host deltas = %d, want 1:\n%s", len(r.HostDeltas), r.Render())
	}
	d := r.HostDeltas[0]
	if d.Metric != HostMetricName || d.Field != "min" || d.Delta <= 0 {
		t.Errorf("host delta = %+v", d)
	}
	if !strings.Contains(r.Render(), "host (not gated)") {
		t.Errorf("Render lacks the host section:\n%s", r.Render())
	}
}

// TestDiffGatesEveryTimeUnit pins the gate's reach over the committed
// baseline: Table 9 reports seconds and Ablation C milliseconds, and
// tripling Table 9's measured metrics must fail the gate, not slip
// past it as a non-microsecond metric.
func TestDiffGatesEveryTimeUnit(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_aegisbench.json")
	if err != nil {
		t.Fatal(err)
	}
	var old, slower File
	if err := json.Unmarshal(data, &old); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &slower); err != nil {
		t.Fatal(err)
	}
	units := map[string]bool{}
	for _, e := range old.Experiments {
		for _, m := range e.Metrics {
			if gated(m) {
				units[m.Unit] = true
			}
		}
	}
	for _, u := range []string{"us", "ms", "s"} {
		if !units[u] {
			t.Errorf("no gated metric in unit %q; the baseline should have one", u)
		}
	}
	scaled := 0
	for ei, e := range slower.Experiments {
		if e.ID != "Table 9" {
			continue
		}
		for mi, m := range e.Metrics {
			if m.Source != SourceMeasured {
				continue
			}
			m.Min *= 3
			m.Mean *= 3
			m.P50 *= 3
			m.P99 *= 3
			m.Max *= 3
			for i := range m.Samples {
				m.Samples[i] *= 3
			}
			slower.Experiments[ei].Metrics[mi] = m
			scaled++
		}
	}
	if scaled == 0 {
		t.Fatal("baseline has no measured Table 9 metrics")
	}
	if r := Diff(&old, &old, 0); !r.OK() {
		t.Fatalf("baseline self-compare failed:\n%s", r.Render())
	}
	r := Diff(&old, &slower, 0.05)
	if r.OK() {
		t.Fatalf("tripled Table 9 passed the gate:\n%s", r.Render())
	}
	for _, d := range r.Regressions {
		if d.Experiment != "Table 9" {
			t.Errorf("unexpected regression outside Table 9: %s", d)
		}
	}
}
