// Command cryoobs reads the structured JSONL run journals written by the
// flow binaries (the -journal flag) and turns them into failure forensics:
//
//	cryoobs report  [-o report.md] [-run <id>] journal.jsonl...  # markdown post-mortem
//	cryoobs summary journal.jsonl...                             # one line per run
//	cryoobs tail    [-n 20] [-kind failure] journal.jsonl...     # last N events
//
// report renders per-run failure sites ranked by recurrence, warning
// counts, watchdog stall post-mortems (active span stack + goroutine
// dump), and the worst-converging devices and nodes decoded from SPICE
// nonconvergence diagnoses. Every command merges the journals it is given
// by wall-clock time, preserving run IDs, so journals from several
// binaries of one flow invocation read as one stream.
//
// Cross-run questions have their own tools: QoR between two runs is
// cryobench -diff over the baseline artifacts a report lists, and
// timing across commits is perfbench. Per-span CPU cost is not in the
// journal: the -cost flag of every flow binary writes a pprof CPU profile
// labelled span=<span path>, read with go tool pprof -tags or -tagfocus
// span=<path>. Live progress is the -progress flag of the running binary;
// tail -kind progress reads the same lines from its journal afterwards.
//
// Exit status: 0 on success (report/summary exit 0 even when the journal
// records failures — the journal being readable is the success condition),
// 2 on usage or read errors. Every exit path flushes the shared
// telemetry flags first, so a -journal run that fails still ends in its
// run.end.
package main

import (
	"flag"
	"fmt"
	"os"

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
	case "-h", "-help", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "cryoobs: unknown command %q\n\n", cmd)
		usage()
	}
	obs.Exit(0)
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: cryoobs <command> [flags] <journal.jsonl>...

commands:
  report   render a markdown post-mortem (failure sites ranked by
           recurrence, stalls, worst-converging devices/nodes)
  summary  one-line status per run
  tail     pretty-print the last events (-kind progress: stage progress)

QoR across runs is cryobench -diff; timing across commits is
perfbench. Per-span CPU cost is not journaled: run the flow binary with
-cost <file> and read the profile with go tool pprof -tags / -tagfocus
span=<path>.`)
	os.Exit(2)
}

// activate applies the shared obs flags (every subcommand carries the full
// surface, like every other flow binary); obs.Exit flushes them.
func activate(of *obs.Flags) {
	_, err := of.Activate()
	check(err)
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

func loadArgs(fs *flag.FlagSet) []obs.Event {
	if fs.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "cryoobs: no journal files given")
		obs.Exit(2)
	}
	evs, err := forensics.Load(fs.Args()...)
	check(err)
	return evs
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "cryoobs:", err)
		obs.Exit(2)
	}
}
