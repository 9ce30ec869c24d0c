// Command cryoaig is an ABC-style AIG utility: it reads a circuit (an
// AIGER file or a named EPFL benchmark), optionally runs optimization
// scripts, reports statistics, and writes AIGER/Verilog-mappable output.
//
//	cryoaig -circuit adder -stats
//	cryoaig -circuit sin -script c2rs -o sin_opt.aag
//	cryoaig -in design.aag -script "balance;rewrite;resub" -verify -stats
//	cryoaig -circuit priority -export-all dir/   # dump the whole EPFL suite
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/aig"
	"repro/internal/cec"
	"repro/internal/epfl"
	"repro/internal/obs"
	"repro/internal/synth"
)

func main() {
	in := flag.String("in", "", "input AIGER file (.aag ASCII or .aig binary)")
	circuit := flag.String("circuit", "", "EPFL benchmark name (alternative to -in)")
	script := flag.String("script", "", "semicolon-separated passes: balance, rewrite, rewrite-z, refactor, resub, c2rs, lutpack")
	out := flag.String("o", "", "output AIGER path")
	stats := flag.Bool("stats", true, "print size/depth statistics")
	verify := flag.Bool("verify", false, "SAT-verify equivalence of the optimized AIG")
	exportAll := flag.String("export-all", "", "write every EPFL benchmark as AIGER into this directory and exit")
	obsFlags := obs.InstallFlags(flag.CommandLine)
	flag.Parse()

	flush, err := obsFlags.Activate()
	if err != nil {
		fatal(err)
	}
	defer flush()

	if *exportAll != "" {
		if err := exportSuite(*exportAll); err != nil {
			fatal(err)
		}
		return
	}

	g, err := load(*in, *circuit)
	if err != nil {
		fatal(err)
	}
	if *stats {
		fmt.Printf("input:  %s\n", describe(g))
	}
	opt := g
	if *script != "" {
		opt, err = runScript(g, *script)
		if err != nil {
			fatal(err)
		}
		if *stats {
			fmt.Printf("output: %s\n", describe(opt))
		}
		if *verify {
			v := cec.Check(context.Background(), g, opt, cec.Options{})
			switch v.Status {
			case cec.Undecided:
				if v.Reason != "" {
					fatal(fmt.Errorf("verification inconclusive: %s", v.Reason))
				}
				fatal(fmt.Errorf("verification inconclusive (budget exhausted on %s)",
					strings.Join(v.UndecidedOutputs, ", ")))
			case cec.NotEqual:
				fmt.Fprintf(os.Stderr, "output %s differs (input=%v optimized=%v)\n",
					v.FailingOutput, v.OutA, v.OutB)
				fmt.Fprintf(os.Stderr, "counterexample: %s\n", v.CexString())
				fatal(fmt.Errorf("VERIFICATION FAILED: optimized AIG differs"))
			default:
				fmt.Println("verified: optimized AIG is equivalent (SAT sweep)")
			}
		}
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if strings.HasSuffix(*out, ".aig") {
			err = opt.WriteAIGERBinary(f)
		} else {
			err = opt.WriteAIGER(f)
		}
		if err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *out)
	}
}

func load(in, circuit string) (*aig.AIG, error) {
	switch {
	case in != "" && circuit != "":
		return nil, fmt.Errorf("specify either -in or -circuit, not both")
	case in != "":
		f, err := os.Open(in)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if strings.HasSuffix(in, ".aig") {
			return aig.ReadAIGERBinary(f)
		}
		return aig.ReadAIGER(f)
	case circuit != "":
		return epfl.Build(circuit)
	default:
		return nil, fmt.Errorf("no input: use -in file.aag or -circuit <name> (%s)", strings.Join(epfl.Names(), ", "))
	}
}

func runScript(g *aig.AIG, script string) (*aig.AIG, error) {
	// c2rs and lutpack are the synthesis flow's own passes, at cryosynth's
	// default seed.
	flow := synth.Options{Seed: 1}
	cur := g
	for _, pass := range strings.Split(script, ";") {
		pass = strings.TrimSpace(pass)
		if pass == "" {
			continue
		}
		switch pass {
		case "balance", "b":
			cur = cur.Balance()
		case "rewrite", "rw":
			cur = cur.Rewrite(false)
		case "rewrite-z", "rwz":
			cur = cur.Rewrite(true)
		case "refactor", "rf":
			cur = cur.Refactor()
		case "resub", "rs":
			cur = cur.Resub(1)
		case "c2rs":
			cur = synth.C2RS(cur, flow)
		case "lutpack":
			cur = synth.LUTPack(cur, flow)
		default:
			return nil, fmt.Errorf("unknown pass %q", pass)
		}
		fmt.Printf("  after %-10s %s\n", pass+":", describe(cur))
	}
	return cur, nil
}

func describe(g *aig.AIG) string {
	return fmt.Sprintf("%-12s pi=%4d po=%4d and=%6d depth=%3d",
		g.Name, g.NumPIs(), g.NumPOs(), g.NumNodes(), g.Depth())
}

func exportSuite(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, gen := range epfl.Suite() {
		g := gen.Build()
		path := filepath.Join(dir, gen.Name+".aag")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := g.WriteAIGER(f); err != nil {
			f.Close()
			return err
		}
		f.Close()
		fmt.Printf("wrote %-24s %s\n", path, describe(g))
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cryoaig:", err)
	obs.Exit(1)
}
