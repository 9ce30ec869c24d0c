package aig

// Setters that let external tests make two graphs differ in exactly one
// place.

// SetFanins overwrites the fanins of AND variable v.
func (g *AIG) SetFanins(v int, f0, f1 Lit) { g.nodes[v].fan0, g.nodes[v].fan1 = f0, f1 }

// SetPIName renames the i-th primary input.
func (g *AIG) SetPIName(i int, name string) { g.pis[i] = name }

// SetPOName renames the i-th primary output.
func (g *AIG) SetPOName(i int, name string) { g.poNames[i] = name }

// RandomAIG exports randomAIG to the black-box tests.
var RandomAIG = randomAIG
