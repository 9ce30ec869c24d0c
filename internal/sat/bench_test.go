package sat

import "testing"

// BenchmarkSolve replays solve-digest streams (digest_test.go) on fresh
// solvers. miter is the equivalence checker's shape: Tseitin-encoded gate
// pairs queried one after another, each solve spending a few conflicts over
// mostly binary clauses. random3 is random 3-SAT climbing through its
// threshold (its two smallest streams): fewer, longer searches over ternary
// clauses.
func BenchmarkSolve(b *testing.B) {
	for _, c := range []struct {
		name  string
		seeds int64
		run   func(d *digestRun, seed int64)
	}{
		{"miter", 6, func(d *digestRun, seed int64) { d.miterStream(8+int(seed), 100+40*int(seed), seed%2 == 1) }},
		{"random3", 2, func(d *digestRun, seed int64) { n := 80 + 20*int(seed); d.randomStream(n, 3*n/4, 3, 3) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for seed := int64(1); seed <= c.seeds; seed++ {
					c.run(newDigestRun(seed), seed)
				}
			}
		})
	}
}
