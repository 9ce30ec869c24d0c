// Command cechard times the equivalence checks that signoff cannot afford:
// each named EPFL circuit (default: sqrt and priority) is built scaled,
// mapped on the 10 K synthetic library as the signoff workload maps its
// circuits, elaborated, and proven against its build by cec.Check with
// one worker and seed 201. It prints one line per circuit: the check's
// wall time, its status and its Stats.
//
//	go run ./bench/cechard [circuit ...]
package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/cec"
	"repro/internal/epfl"
	"repro/internal/mapper"
	"repro/internal/pdk"
	"repro/internal/testlib"
)

func main() {
	names := os.Args[1:]
	if len(names) == 0 {
		names = []string{"sqrt", "priority"}
	}
	ctx := context.Background()
	lib, cells := testlib.Build(pdk.Catalog(), testlib.Names(), 10)
	ml, err := mapper.BuildMatchLibrary(lib, cells, 6)
	if err != nil {
		fail(err)
	}
	for _, name := range names {
		src, err := epfl.BuildScaled(name)
		if err != nil {
			fail(err)
		}
		nl, err := mapper.Map(ctx, src, ml, mapper.Options{})
		if err != nil {
			fail(fmt.Errorf("map %s: %w", name, err))
		}
		e, err := cec.Elaborate(nl)
		if err != nil {
			fail(fmt.Errorf("elaborate %s: %w", name, err))
		}
		start := time.Now()
		v := cec.Check(ctx, src, e, cec.Options{Workers: 1, Seed: 201})
		fmt.Printf("%-10s %4d inputs %6d gates %8.2f s  %s %+v\n", name, src.NumPIs(), len(nl.Gates),
			time.Since(start).Seconds(), v.Status, v.Stats)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "cechard:", err)
	os.Exit(1)
}
