package bench

import (
	"fmt"
	"math"
	"strings"
)

// Validation and comparison of BENCH JSON files — the perf-regression
// gate. cmd/benchdiff is a thin wrapper over Validate and Diff so the
// policy lives here, under test.

// Validate checks that a decoded File is structurally sound against
// schema version 1: right discriminator, coherent trial counts, and
// internally consistent statistics (min ≤ p50 ≤ p99 ≤ max, mean within
// range). A file that fails Validate is not worth diffing.
func Validate(f *File) error {
	if f.Schema != SchemaName {
		return fmt.Errorf("schema %q, want %q", f.Schema, SchemaName)
	}
	if f.SchemaVersion != SchemaVersion {
		return fmt.Errorf("schema_version %d, want %d", f.SchemaVersion, SchemaVersion)
	}
	if f.Trials < 1 {
		return fmt.Errorf("trials %d, want >= 1", f.Trials)
	}
	if len(f.Experiments) == 0 {
		return fmt.Errorf("no experiments")
	}
	seen := map[string]bool{}
	for _, e := range f.Experiments {
		if e.ID == "" {
			return fmt.Errorf("experiment with empty id")
		}
		if seen[e.ID] {
			return fmt.Errorf("duplicate experiment id %q", e.ID)
		}
		seen[e.ID] = true
		names := map[string]bool{}
		for _, m := range e.Metrics {
			where := fmt.Sprintf("%s metric %q", e.ID, m.Name)
			if m.Name == "" {
				return fmt.Errorf("%s: empty name", e.ID)
			}
			if names[m.Name] {
				return fmt.Errorf("%s: duplicate", where)
			}
			names[m.Name] = true
			if m.Source != SourceMeasured && m.Source != SourcePaper && m.Source != SourceHost {
				return fmt.Errorf("%s: bad source %q", where, m.Source)
			}
			if m.Trials != f.Trials {
				return fmt.Errorf("%s: trials %d != file trials %d", where, m.Trials, f.Trials)
			}
			if len(m.Samples) != m.Trials {
				return fmt.Errorf("%s: %d samples over %d trials", where, len(m.Samples), m.Trials)
			}
			const eps = 1e-9
			if m.Min > m.P50+eps || m.P50 > m.P99+eps || m.P99 > m.Max+eps {
				return fmt.Errorf("%s: unordered stats min=%g p50=%g p99=%g max=%g", where, m.Min, m.P50, m.P99, m.Max)
			}
			if m.Mean < m.Min-eps || m.Mean > m.Max+eps {
				return fmt.Errorf("%s: mean %g outside [min, max]", where, m.Mean)
			}
		}
	}
	return nil
}

// DiffEntry is one metric field that moved between two BENCH files.
type DiffEntry struct {
	Experiment string
	Metric     string
	Field      string // "min" or "p50"
	Old, New   float64
	Delta      float64 // fractional change, (new-old)/old
}

func (d DiffEntry) String() string {
	return fmt.Sprintf("%s %s %s: %.4g -> %.4g (%+.1f%%)",
		d.Experiment, d.Metric, d.Field, d.Old, d.New, d.Delta*100)
}

// DiffReport is the outcome of comparing two BENCH files.
type DiffReport struct {
	Threshold    float64 // fractional threshold the gate used
	Compared     int     // measured time metrics present in both files
	Regressions  []DiffEntry
	Improvements []DiffEntry
	MissingInNew []string // metrics the old file has and the new lacks
	AddedInNew   []string // metrics only the new file has
	// HostDeltas tracks host wall-clock movement (source "host", unit
	// "ns") on the best-of-trials field. Informational only — host times
	// vary with the machine and its load — so these never gate, but the
	// committed baseline keeps a host-perf trajectory (e.g. the JIT
	// tier's 3x+ claim) reviewable in diffs.
	HostDeltas []DiffEntry
}

// OK reports whether the gate passes (no regression beyond threshold).
func (r *DiffReport) OK() bool { return len(r.Regressions) == 0 }

// Render formats the report for humans.
func (r *DiffReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "benchdiff: %d time metrics compared, threshold %.1f%%\n", r.Compared, r.Threshold*100)
	for _, d := range r.Regressions {
		fmt.Fprintf(&b, "  REGRESSION  %s\n", d)
	}
	for _, d := range r.Improvements {
		fmt.Fprintf(&b, "  improvement %s\n", d)
	}
	for _, name := range r.MissingInNew {
		fmt.Fprintf(&b, "  warning: metric disappeared: %s\n", name)
	}
	for _, name := range r.AddedInNew {
		fmt.Fprintf(&b, "  new metric: %s\n", name)
	}
	for _, d := range r.HostDeltas {
		fmt.Fprintf(&b, "  host (not gated) %s\n", d)
	}
	if r.OK() {
		b.WriteString("  gate: PASS\n")
	} else {
		fmt.Fprintf(&b, "  gate: FAIL (%d regressions)\n", len(r.Regressions))
	}
	return b.String()
}

// gated reports whether a metric participates in the regression gate:
// measured (never a quoted paper constant) and time-valued (simulated
// microseconds, milliseconds, or seconds, where lower is better; Table 9
// reports seconds and Ablation C milliseconds). Ratios and counts are
// reported in the JSON but not gated — a "slowdown ×" column moving is a
// symptom; the gated time metric is the cause. Host wall-clock metrics
// (source "host", unit "ns") are informational only: they vary with the
// host.
func gated(m MetricJSON) bool {
	return m.Source == SourceMeasured && (m.Unit == "us" || m.Unit == "ms" || m.Unit == "s")
}

// hostMetric reports whether a metric is an informational host
// wall-clock measurement: reported in diffs (best-of-trials), never
// gated.
func hostMetric(m MetricJSON) bool {
	return m.Source == SourceHost && m.Unit == "ns"
}

// Diff compares two BENCH files metric by metric. For every gated metric
// present in both, the min and p50 fields are checked: new exceeding old
// by more than threshold (fractional, e.g. 0.05) is a regression;
// improving by more than threshold is reported as an improvement. The
// same file diffed against itself always passes with zero deltas.
func Diff(oldF, newF *File, threshold float64) *DiffReport {
	r := &DiffReport{Threshold: threshold}
	type key struct{ exp, metric string }
	oldIdx := map[key]MetricJSON{}
	for _, e := range oldF.Experiments {
		for _, m := range e.Metrics {
			oldIdx[key{e.ID, m.Name}] = m
		}
	}
	newSeen := map[key]bool{}
	for _, e := range newF.Experiments {
		for _, m := range e.Metrics {
			k := key{e.ID, m.Name}
			newSeen[k] = true
			om, ok := oldIdx[k]
			if !ok {
				if gated(m) {
					r.AddedInNew = append(r.AddedInNew, e.ID+" "+m.Name)
				}
				continue
			}
			if hostMetric(m) && hostMetric(om) {
				r.HostDeltas = append(r.HostDeltas, DiffEntry{
					Experiment: e.ID, Metric: m.Name, Field: "min",
					Old: om.Min, New: m.Min, Delta: relDelta(om.Min, m.Min),
				})
				continue
			}
			if !gated(m) || !gated(om) {
				continue
			}
			r.Compared++
			for _, f := range []struct {
				name     string
				old, new float64
			}{
				{"min", om.Min, m.Min},
				{"p50", om.P50, m.P50},
			} {
				delta := relDelta(f.old, f.new)
				entry := DiffEntry{Experiment: e.ID, Metric: m.Name, Field: f.name, Old: f.old, New: f.new, Delta: delta}
				switch {
				case delta > threshold:
					r.Regressions = append(r.Regressions, entry)
				case delta < -threshold:
					r.Improvements = append(r.Improvements, entry)
				}
			}
		}
	}
	for _, e := range oldF.Experiments {
		for _, m := range e.Metrics {
			if gated(m) && !newSeen[key{e.ID, m.Name}] {
				r.MissingInNew = append(r.MissingInNew, e.ID+" "+m.Name)
			}
		}
	}
	return r
}

// relDelta is the fractional change from old to new, treating a zero old
// value specially: 0 -> 0 is no change; 0 -> x is an infinite regression.
func relDelta(old, new float64) float64 {
	if old == new {
		return 0
	}
	if old == 0 {
		return math.Inf(1)
	}
	return (new - old) / old
}
