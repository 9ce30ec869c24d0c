// Command cryospice is a standalone SPICE-subset simulator over the
// cryogenic-aware FinFET compact model: it parses a netlist deck, solves
// the DC operating point, and (when the deck has a .tran card) runs the
// transient analysis, printing node voltages.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/spice"
)

func main() {
	temp := flag.Float64("temp", 300, "simulation temperature in kelvin (.temp overrides)")
	nodes := flag.String("nodes", "", "comma-separated node names to print (default: all)")
	points := flag.Int("points", 20, "transient waveform rows to print")
	vcdPath := flag.String("vcd", "", "dump the transient waveform to this VCD file")
	obsFlags := obs.InstallFlags(flag.CommandLine)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: cryospice [-temp K] [-nodes a,b] [-vcd out.vcd] <deck.sp>")
		os.Exit(2)
	}
	flush, err := obsFlags.Activate()
	if err != nil {
		fatal(err)
	}
	defer flush()
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	res, err := spice.ParseNetlist(f, spice.ParseOptions{Temp: *temp})
	if err != nil {
		fatal(err)
	}
	c := res.Circuit
	fmt.Printf("parsed %s: %d nodes, T=%g K\n", flag.Arg(0), c.NumNodes(), c.Temp)

	var wanted []string
	if *nodes != "" {
		wanted = strings.Split(*nodes, ",")
	} else {
		for i := 0; i < c.NumNodes(); i++ {
			name := c.NodeName(spice.NodeID(i))
			if !strings.Contains(name, ".__") {
				wanted = append(wanted, name)
			}
		}
		sort.Strings(wanted)
	}

	x, err := c.OpPoint()
	if err != nil {
		fatal(err)
	}
	fmt.Println("\nDC operating point:")
	for _, n := range wanted {
		id := c.Node(n)
		if id == spice.Ground {
			continue
		}
		fmt.Printf("  V(%s) = %.6f V\n", n, x[id])
	}

	if !res.HasTran {
		if *vcdPath != "" {
			fatal(fmt.Errorf("-vcd needs a .tran card in the deck"))
		}
		return
	}
	fmt.Printf("\ntransient: tstop=%g s, tstep=%g s\n", res.Tstop, res.Tstep)
	wf, err := c.Transient(res.Tstop, res.Tstep)
	if err != nil {
		fatal(err)
	}
	if *vcdPath != "" {
		vf, err := os.Create(*vcdPath)
		if err != nil {
			fatal(err)
		}
		// -nodes also selects the dumped signals; default dumps everything.
		var sel []string
		if *nodes != "" {
			sel = wanted
		}
		err = wf.WriteVCD(vf, time.Now().UTC().Format(time.RFC3339), sel)
		if cerr := vf.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\nVCD waveform written: %s (%d samples)\n", *vcdPath, len(wf.Time))
	}
	stride := len(wf.Time) / *points
	if stride < 1 {
		stride = 1
	}
	fmt.Printf("%-12s", "time(s)")
	for _, n := range wanted {
		fmt.Printf(" %-10s", "V("+n+")")
	}
	fmt.Println()
	for i := 0; i < len(wf.Time); i += stride {
		fmt.Printf("%-12.4g", wf.Time[i])
		for _, n := range wanted {
			fmt.Printf(" %-10.4f", wf.V(n)[i])
		}
		fmt.Println()
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cryospice:", err)
	obs.Exit(1)
}
