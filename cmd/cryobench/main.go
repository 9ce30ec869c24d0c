// Command cryobench is the exact QoR gate: it runs the full cryo-EDA flow
// (synthesis -> mapping -> STA -> power, per temperature corner) over a
// benchmark profile, records quality of results with critical-path and
// power-class provenance into a versioned JSON baseline, and diffs runs
// against a stored baseline exactly. Every diff also attributes each QoR
// delta to paths, arcs and cell classes. Runtime is not gated here: -trace and
// -metrics record stage wall times and engine counters, -progress 5s
// reports the qor.reps task (one step per circuit, scenario and
// repetition), and perfbench gates timing.
//
// Record a baseline:
//
//	cryobench -profile smoke -repeat 3 -out bench/baseline-smoke.json
//
// Gate a change against it (exit 1 on QoR regression):
//
//	cryobench -profile smoke -baseline bench/baseline-smoke.json
//
// Diff two existing recordings without running anything:
//
//	cryobench -diff old.json new.json
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/explain"
	"repro/internal/obs"
	"repro/internal/qor"
	"repro/internal/spice"
)

func main() {
	profileName := flag.String("profile", "smoke", "benchmark profile: "+strings.Join(qor.ProfileNames(), ", "))
	repeat := flag.Int("repeat", 0, "repetitions per circuit (0 = profile default)")
	seed := flag.Int64("seed", 1, "flow seed")
	clock := flag.String("clock", "1n", "reference clock period for WNS/TNS")
	circuits := flag.String("circuits", "", "comma-separated circuit subset (default: all in profile)")
	testlibFlag := flag.Bool("testlib", true, "use the synthetic closed-form library (false: SPICE-characterized, cached)")
	cacheDir := flag.String("cache", "build", "liberty cache directory for characterized corners")
	workers := flag.Int("workers", 0, "characterization worker pool size with -testlib=false (0 = GOMAXPROCS)")
	out := flag.String("out", "", "output baseline path (default build/qor-<timestamp>.json)")
	baselinePath := flag.String("baseline", "", "baseline to diff the fresh run against; exit 1 on QoR regression")
	diffMode := flag.Bool("diff", false, "diff two recorded baselines: cryobench -diff <base.json> <cur.json>")
	mdPath := flag.String("md", "", "also write the diff and attribution reports as markdown to this path")
	explainJSON := flag.String("explain-json", "", "also write the attribution report as JSON to this path")
	verbose := flag.Bool("v", false, "list unchanged metrics in the diff table")
	obsFlags := obs.InstallFlags(flag.CommandLine)
	flag.Parse()

	cfg := diffConfig{
		verbose:     *verbose,
		mdPath:      *mdPath,
		explainJSON: *explainJSON,
	}

	// Activate before any mode dispatch so -journal/-progress work in diff
	// mode too (a diff is a run worth recording).
	flush, err := obsFlags.Activate()
	exitOn(err)
	defer flush()

	if *diffMode {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: cryobench -diff <base.json> <current.json>")
			obs.Exit(2)
		}
		base, err := qor.ReadBaselineFile(flag.Arg(0))
		exitOn(err)
		cur, err := qor.ReadBaselineFile(flag.Arg(1))
		exitOn(err)
		code := reportDiff(base, cur, cfg)
		obs.Exit(code)
	}

	prof, err := qor.FindProfile(*profileName)
	exitOn(err)
	if *circuits != "" {
		prof.Circuits, err = subset(prof.Circuits, *circuits)
		exitOn(err)
	}
	clockSec, err := spice.ParseValue(*clock)
	exitOn(err)

	opt := qor.RunOptions{
		Profile:    prof,
		Repeat:     *repeat,
		Seed:       *seed,
		ClockSec:   clockSec,
		UseTestlib: *testlibFlag,
		CacheDir:   *cacheDir,
		Workers:    *workers,
		CreatedAt:  time.Now().UTC().Format(time.RFC3339),
	}
	t0 := time.Now()
	b, err := qor.Run(context.Background(), opt)
	exitOn(err)
	fmt.Fprintf(os.Stderr, "recorded %d circuit records in %.1fs\n", len(b.Circuits), time.Since(t0).Seconds())

	outPath := *out
	if outPath == "" {
		outPath = fmt.Sprintf("build/qor-%s.json", time.Now().UTC().Format("20060102T150405Z"))
	}
	if dir := filepath.Dir(outPath); dir != "." {
		exitOn(os.MkdirAll(dir, 0o755))
	}
	exitOn(b.WriteFile(outPath))
	obs.J().Artifact("cryobench", outPath)
	fmt.Fprintf(os.Stderr, "baseline written: %s\n", outPath)

	exitOn(qor.WriteBaselineSummary(os.Stdout, b))

	if *baselinePath == "" {
		return
	}
	base, err := qor.ReadBaselineFile(*baselinePath)
	exitOn(err)
	fmt.Println()
	if code := reportDiff(base, b, cfg); code != 0 {
		obs.Exit(code)
	}
}

// diffConfig bundles the reporting knobs shared by -diff and -baseline
// modes.
type diffConfig struct {
	verbose     bool
	mdPath      string
	explainJSON string
}

// reportDiff renders the diff and its attribution to stdout (and
// optionally markdown and JSON) and returns the process exit code the gate
// demands. Attribution never changes the exit code: it explains the
// verdict, it does not render one.
func reportDiff(base, cur *qor.Baseline, cfg diffConfig) int {
	rep := qor.Diff(base, cur)
	exitOn(rep.WriteTable(os.Stdout, cfg.verbose))
	att := explain.Diff(base, cur)
	fmt.Println()
	exitOn(att.WriteText(os.Stdout))
	if cfg.mdPath != "" {
		f, err := os.Create(cfg.mdPath)
		exitOn(err)
		err = rep.WriteMarkdown(f)
		if err == nil {
			err = att.WriteMarkdown(f)
		}
		f.Close()
		exitOn(err)
		obs.J().Artifact("cryobench", cfg.mdPath)
		fmt.Fprintf(os.Stderr, "markdown report written: %s\n", cfg.mdPath)
	}
	if cfg.explainJSON != "" {
		f, err := os.Create(cfg.explainJSON)
		exitOn(err)
		err = att.WriteJSON(f)
		f.Close()
		exitOn(err)
		obs.J().Artifact("cryobench", cfg.explainJSON)
		fmt.Fprintf(os.Stderr, "attribution report written: %s\n", cfg.explainJSON)
	}
	if rep.Failed() {
		fmt.Fprintln(os.Stderr, "FAIL: QoR regression gate")
		return 1
	}
	fmt.Fprintln(os.Stderr, "PASS: no QoR regressions")
	return 0
}

// subset filters the profile circuit list down to a comma-separated request,
// rejecting names the profile does not contain.
func subset(all []string, req string) ([]string, error) {
	have := map[string]bool{}
	for _, c := range all {
		have[c] = true
	}
	var out []string
	for _, c := range strings.Split(req, ",") {
		c = strings.TrimSpace(c)
		if c == "" {
			continue
		}
		if !have[c] {
			return nil, fmt.Errorf("circuit %q not in profile (have: %s)", c, strings.Join(all, ", "))
		}
		out = append(out, c)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty -circuits selection")
	}
	return out, nil
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "cryobench:", err)
		obs.Exit(1)
	}
}
