package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// shortOps is the length of a test pass after the warm-up.
const shortOps = 24

// shortPass sets w up on tier t and returns the digest of shortOps ops.
func shortPass(t *testing.T, w workload, seed uint64, tr tier) uint64 {
	t.Helper()
	inst, err := prepare(w, seed, tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	d := newDigest()
	for i := w.warmup; i < w.warmup+shortOps; i++ {
		if err := inst.op(i, d); err != nil {
			t.Fatalf("%s on %v: op %d: %v", w.name, tr, i, err)
		}
	}
	return d.sum()
}

// The simulated digest is a function of the seed alone: the same on every
// engine tier and on a second run.
func TestDigestSameAcrossTiersAndRuns(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			want := shortPass(t, w, 7, tierJIT)
			for _, tr := range []tier{tierFast, tierRef, tierJIT} {
				if got := shortPass(t, w, 7, tr); got != want {
					t.Errorf("digest on %v = %016x, want %016x (default tier)", tr, got, want)
				}
			}
		})
	}
}

// The seed reaches the inputs: another seed gives another digest.
func TestDigestFollowsSeed(t *testing.T) {
	for _, w := range workloads {
		if a, b := shortPass(t, w, 7, tierJIT), shortPass(t, w, 8, tierJIT); a == b {
			t.Errorf("%s: seeds 7 and 8 give the same digest %016x", w.name, a)
		}
	}
}

// Both kinds of run end with the result line: the four keys, no failed
// op, exactly the metrics BENCHMARK.json lists for the kind of run, and
// non-zero values where kernel-ops calls the layer.
func TestResultLine(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &cfg); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		trace, seconds string
		listed         []struct{ Name, Unit string }
		nonzero        []string
	}{
		{"0", "0.6", cfg.EndToEnd, []string{"ops_per_s", "op_p99_us", "setup_s", "peak_rss_mb"}},
		// Long enough for the span buffer to fill before the time is up.
		{"1", "3", cfg.PerLayer, []string{"dpf.classify_ns", "exos.fs_read_miss_us", "kernel-ops.op_self_us", "dpf.match_ratio"}},
	} {
		var out, errOut bytes.Buffer
		args := []string{"--workload", "kernel-ops", "--seed", "3", "--seconds", tc.seconds, "--trace", tc.trace, "--out", t.TempDir()}
		if code := run(args, &out, &errOut); code != 0 {
			t.Fatalf("trace %s: exit %d: %s", tc.trace, code, errOut.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		last := []byte(lines[len(lines)-1])
		var keys map[string]json.RawMessage
		if err := json.Unmarshal(last, &keys); err != nil {
			t.Fatalf("trace %s: last line: %v", tc.trace, err)
		}
		if len(keys) != 4 {
			t.Errorf("trace %s: result has %d keys, want 4", tc.trace, len(keys))
		}
		var r result
		if err := json.Unmarshal(last, &r); err != nil {
			t.Fatal(err)
		}
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("trace %s: correct=%v failed=%d attempted=%d", tc.trace, r.Correct, r.Failed, r.Attempted)
		}
		if len(r.Metrics) != len(tc.listed) {
			t.Errorf("trace %s: %d metrics, BENCHMARK.json lists %d", tc.trace, len(r.Metrics), len(tc.listed))
		}
		for _, l := range tc.listed {
			if m, ok := r.Metrics[l.Name]; !ok || m.Unit != l.Unit {
				t.Errorf("trace %s: metric %s = %+v, want unit %s", tc.trace, l.Name, m, l.Unit)
			}
		}
		for _, name := range tc.nonzero {
			if r.Metrics[name].Value == 0 {
				t.Errorf("trace %s: metric %s is zero", tc.trace, name)
			}
		}
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--seconds", "0"},
		{"--trace", "2"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 {
			t.Errorf("%v: exit 0, want failure", args)
		}
	}
}
