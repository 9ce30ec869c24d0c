// Command cryoobs reads the structured JSONL run journals written by the
// flow binaries (the -journal flag) and turns them into failure forensics:
//
//	cryoobs report  [-o report.md] [-run <id>] journal.jsonl...  # markdown post-mortem
//	cryoobs summary journal.jsonl...                             # one line per run
//	cryoobs tail    [-n 20] [-kind failure] journal.jsonl...     # last N events
//	cryoobs merge   journal.jsonl...                             # merged JSONL to stdout
//	cryoobs trend   [-last N] [-glob ...] journal.jsonl...       # run-over-run metric trends
//
// report renders per-run stage timelines, failure sites ranked by
// recurrence, watchdog stall post-mortems (active span stack + goroutine
// dump), and the worst-converging devices and nodes decoded from SPICE
// nonconvergence diagnoses. merge interleaves journals from several
// binaries of one flow invocation by wall-clock time, preserving run IDs,
// so a single file can feed later analysis. trend reads the run summaries
// that end each journal (one column per run) and renders run-over-run
// tables for glob-selected metrics, flagging values that drift outside the
// noise band of their own history; it is where cryobench's stage wall
// times (stage.*) and engine counters (sat.*, spice.*, ...) are read, and
// it labels each column with the VCS revision of the binary that wrote the
// run (present when that binary was built with go build). QoR attribution
// between two runs is cryobench -diff -explain over the baseline artifacts
// a report lists.
//
// Per-span CPU cost is not in the journal: the -cost flag of every flow
// binary writes a pprof CPU profile labelled span=<span path>, read with
// go tool pprof -tags or -tagfocus span=<path>. Live progress is the
// -progress flag of the running binary; tail -kind progress reads the same
// lines from its journal afterwards.
//
// Exit status: 0 on success (report/summary exit 0 even when the journal
// records failures — the journal being readable is the success condition),
// 2 on usage or read errors. Every exit path flushes the shared
// telemetry flags first, so a -journal run that fails still ends in its
// run.end summary.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/forensics"
	"repro/internal/obs"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	switch cmd {
	case "report":
		cmdReport(args)
	case "summary":
		cmdSummary(args)
	case "tail":
		cmdTail(args)
	case "merge":
		cmdMerge(args)
	case "trend":
		cmdTrend(args)
	case "-h", "-help", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "cryoobs: unknown command %q\n\n", cmd)
		usage()
	}
	flushObs()
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: cryoobs <command> [flags] <journal.jsonl>...

commands:
  report   render a markdown post-mortem (stage timeline, failure sites
           ranked by recurrence, stalls, worst-converging devices/nodes)
  summary  one-line status per run
  tail     pretty-print the last events (-kind progress: stage progress)
  merge    merge journals by time into one JSONL stream on stdout
  trend    run-over-run metric trend tables, one column per journaled run:
           cryoobs trend [-last 8] [-glob spice.*] <journal.jsonl>...

Per-span CPU cost is not journaled: run the flow binary with -cost <file>
and read the profile with go tool pprof -tags / -tagfocus span=<path>.`)
	os.Exit(2)
}

// flushObs writes the telemetry the shared obs flags ask for. main calls
// it after the subcommand returns and exit calls it before os.Exit, which
// skips deferred calls.
var flushObs = func() {}

// activate applies the shared obs flags (every subcommand carries the full
// surface, like every other flow binary) and arms flushObs.
func activate(of *obs.Flags) {
	flush, err := of.Activate()
	check(err)
	flushObs = flush
}

// exit flushes the telemetry and ends the process with code.
func exit(code int) {
	flushObs()
	os.Exit(code)
}

func cmdReport(args []string) {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	of := obs.InstallFlags(fs)
	out := fs.String("o", "", "write the report to this file instead of stdout")
	run := fs.String("run", "", "restrict the report to one run ID")
	fs.Parse(args)
	activate(of)
	evs := loadArgs(fs)
	if *run != "" {
		evs = forensics.FilterRun(evs, *run)
	}
	rep := forensics.Build(evs)
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		check(err)
		defer f.Close()
		w = f
	}
	check(rep.WriteMarkdown(w))
}

func cmdSummary(args []string) {
	fs := flag.NewFlagSet("summary", flag.ExitOnError)
	of := obs.InstallFlags(fs)
	fs.Parse(args)
	activate(of)
	evs := loadArgs(fs)
	check(forensics.Build(evs).WriteSummary(os.Stdout))
}

func cmdTail(args []string) {
	fs := flag.NewFlagSet("tail", flag.ExitOnError)
	of := obs.InstallFlags(fs)
	n := fs.Int("n", 20, "number of trailing events to print")
	kind := fs.String("kind", "", "only events of this kind (e.g. failure, artifact)")
	run := fs.String("run", "", "only events of this run ID")
	fs.Parse(args)
	activate(of)
	evs := loadArgs(fs)
	if *run != "" {
		evs = forensics.FilterRun(evs, *run)
	}
	if *kind != "" {
		evs = forensics.FilterKind(evs, *kind)
	}
	if *n > 0 && len(evs) > *n {
		evs = evs[len(evs)-*n:]
	}
	for i := range evs {
		check(forensics.WriteEvent(os.Stdout, &evs[i]))
	}
}

func cmdMerge(args []string) {
	fs := flag.NewFlagSet("merge", flag.ExitOnError)
	of := obs.InstallFlags(fs)
	fs.Parse(args)
	activate(of)
	evs := loadArgs(fs)
	enc := json.NewEncoder(os.Stdout)
	for i := range evs {
		check(enc.Encode(&evs[i]))
	}
}

func cmdTrend(args []string) {
	fs := flag.NewFlagSet("trend", flag.ExitOnError)
	of := obs.InstallFlags(fs)
	last := fs.Int("last", 8, "only the most recent N runs (0 = all)")
	glob := fs.String("glob", "*", "comma-separated metric globs ('*' matches any run of characters), e.g. 'spice.solver.*,stage.*'")
	md := fs.Bool("md", false, "render a markdown table instead of text")
	asJSON := fs.Bool("json", false, "emit the trend report as JSON")
	out := fs.String("o", "", "write the report to this file instead of stdout")
	fs.Parse(args)
	activate(of)
	evs := loadArgs(fs)
	var globs []string
	for _, g := range strings.Split(*glob, ",") {
		if g = strings.TrimSpace(g); g != "" {
			globs = append(globs, g)
		}
	}
	rep, err := forensics.Trend(evs, globs, *last)
	check(err)
	if len(rep.Runs) == 0 {
		fmt.Fprintln(os.Stderr, "cryoobs: no run summaries in the given journals (were they written with -journal?)")
		exit(2)
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		check(err)
		defer f.Close()
		w = f
	}
	switch {
	case *asJSON:
		check(rep.WriteJSON(w))
	case *md:
		check(rep.WriteMarkdown(w))
	default:
		check(rep.WriteText(w))
	}
}

func loadArgs(fs *flag.FlagSet) []obs.Event {
	if fs.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "cryoobs: no journal files given")
		exit(2)
	}
	evs, err := forensics.Load(fs.Args()...)
	check(err)
	return evs
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "cryoobs:", err)
		exit(2)
	}
}
