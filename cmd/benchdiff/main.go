// Command benchdiff is the perf-regression gate: it compares two BENCH
// JSON files written by `aegisbench -format json` and fails if any
// measured time metric got slower than the threshold allows.
//
// Usage:
//
//	benchdiff old.json new.json      # gate new against old (default 5%)
//	benchdiff -threshold 10 a.json b.json
//	benchdiff -format json a.json b.json   # machine-readable report
//	benchdiff -validate file.json    # schema-check one file, no diff
//
// Only metrics with source "measured" and a time unit (us, ms or s) are
// gated, on their min and p50 fields; quoted paper constants and ratio
// columns are never gated. Host wall-clock metrics (host/wall_ns) are
// reported on their best-of-trials field but never gate — they track the
// engines' host speed (e.g. the trace-JIT tier) across baseline
// regenerations. Exit status: 0 the gate passes, 1 a regression exceeded
// the threshold, 2 usage error or a file that fails schema validation.
//
// With -prof the inputs are PROF JSON cycle profiles (written by
// `aegisbench -prof` or `exoprof -format json`) and the output is the
// regression root-causer: the top per-site cycle deltas, guest and
// kernel-class attribution separated, deterministically ranked. The
// profile diff is informational (exact profiles move on any intended
// change), so it always exits 0 on valid inputs:
//
//	benchdiff -prof old.json new.json        # top cycle-delta sites
//	benchdiff -prof -top 40 old.json new.json
//	benchdiff -prof -validate file.json      # schema-check a profile
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"exokernel/internal/bench"
	"exokernel/internal/cliutil"
	"exokernel/internal/prof"
)

func load(path string) (*bench.File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f bench.File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	if err := bench.Validate(&f); err != nil {
		return nil, fmt.Errorf("%s: invalid BENCH JSON: %v", path, err)
	}
	return &f, nil
}

func loadProf(path string) (*prof.File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	pf, err := prof.Parse(f)
	if err != nil {
		return nil, fmt.Errorf("%s: invalid PROF JSON: %v", path, err)
	}
	return pf, nil
}

func main() {
	threshold := flag.Float64("threshold", 5, "regression threshold in percent, applied to min and p50")
	validate := flag.Bool("validate", false, "validate a single file against the schema and exit")
	profMode := flag.Bool("prof", false, "inputs are PROF JSON cycle profiles: print top cycle-delta sites (informational, always exits 0 on valid files)")
	top := flag.Int("top", 20, "with -prof, how many delta sites to print")
	format := flag.String("format", "text", "gate-report output format: text or json")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}
	if err := cliutil.CheckFormat("benchdiff", *format, "text", "json"); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *threshold < 0 {
		fail(fmt.Errorf("-threshold %g, want >= 0", *threshold))
	}

	if *profMode {
		if *validate {
			if flag.NArg() != 1 {
				fail(fmt.Errorf("-prof -validate takes exactly one file, got %d", flag.NArg()))
			}
			pf, err := loadProf(flag.Arg(0))
			if err != nil {
				fail(err)
			}
			sites := 0
			for _, m := range pf.Machines {
				for _, e := range m.Envs {
					sites += len(e.Sites)
				}
			}
			fmt.Printf("benchdiff: %s: valid PROF (%d machines, %d sites, %d hot blocks)\n",
				flag.Arg(0), len(pf.Machines), sites, len(pf.HotBlocks))
			return
		}
		if flag.NArg() != 2 {
			fail(fmt.Errorf("want: benchdiff -prof [-top n] old.json new.json"))
		}
		oldP, err := loadProf(flag.Arg(0))
		if err != nil {
			fail(err)
		}
		newP, err := loadProf(flag.Arg(1))
		if err != nil {
			fail(err)
		}
		prof.RenderDiff(os.Stdout, oldP, newP, *top)
		return
	}

	if *validate {
		if flag.NArg() != 1 {
			fail(fmt.Errorf("-validate takes exactly one file, got %d", flag.NArg()))
		}
		f, err := load(flag.Arg(0))
		if err != nil {
			fail(err)
		}
		metrics := 0
		for _, e := range f.Experiments {
			metrics += len(e.Metrics)
		}
		fmt.Printf("benchdiff: %s: valid (%d experiments, %d metrics, %d trials)\n",
			flag.Arg(0), len(f.Experiments), metrics, f.Trials)
		return
	}

	if flag.NArg() != 2 {
		fail(fmt.Errorf("want: benchdiff [-threshold pct] old.json new.json"))
	}
	oldF, err := load(flag.Arg(0))
	if err != nil {
		fail(err)
	}
	newF, err := load(flag.Arg(1))
	if err != nil {
		fail(err)
	}
	r := bench.Diff(oldF, newF, *threshold/100)
	if *format == "json" {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(r); err != nil {
			fail(err)
		}
	} else {
		fmt.Print(r.Render())
	}
	if !r.OK() {
		os.Exit(1)
	}
}
