// Package aig implements And-Inverter Graphs — the workhorse data structure
// of modern logic synthesis — together with the optimization passes the
// paper's flow uses: structural hashing, balancing, rewriting, refactoring,
// resubstitution, k-LUT mapping with don't-care-based minimization, and
// combinational equivalence checking. It plays the role of ABC's AIG engine
// in the reproduced synthesis pipeline.
package aig

import (
	"fmt"
	"slices"
)

// Lit is a literal: a variable index shifted left once, with the low bit
// indicating complementation. Variable 0 is the constant node, so False==0
// and True==1.
type Lit uint32

// Constant literals.
const (
	False Lit = 0
	True  Lit = 1
)

// MakeLit builds a literal from a variable index and a complement flag.
func MakeLit(v int, compl bool) Lit {
	l := Lit(v << 1)
	if compl {
		l |= 1
	}
	return l
}

// Var returns the literal's variable index.
func (l Lit) Var() int { return int(l >> 1) }

// IsCompl reports whether the literal is complemented.
func (l Lit) IsCompl() bool { return l&1 != 0 }

// Not returns the complemented literal.
func (l Lit) Not() Lit { return l ^ 1 }

// NotIf complements the literal when c is true.
func (l Lit) NotIf(c bool) Lit {
	if c {
		return l ^ 1
	}
	return l
}

// Reg returns the positive-phase literal of the same variable.
func (l Lit) Reg() Lit { return l &^ 1 }

type node struct {
	fan0, fan1 Lit   // fanins; fan0 >= fan1 for AND nodes. PIs: both = piMark
	level      int32 // topological level (PIs at 0)
}

const piMark = ^Lit(0)

// AIG is a combinational And-Inverter Graph. Variable 0 is the constant
// FALSE node; variables 1..NumPIs() are primary inputs; higher variables are
// AND nodes created in topological order.
type AIG struct {
	Name    string
	nodes   []node
	numPI   int
	pis     []string // PI names (index i names var i+1)
	pos     []Lit
	poNames []string
	strash  strashTable
}

// New returns an empty AIG with the given name.
func New(name string) *AIG {
	g := &AIG{Name: name}
	g.nodes = append(g.nodes, node{fan0: piMark, fan1: piMark}) // constant
	return g
}

// newSized returns an empty AIG with room for n variables, so a pass that
// rebuilds a graph of known size does not regrow its node slice.
func newSized(name string, n int) *AIG {
	g := &AIG{Name: name, nodes: make([]node, 1, n)}
	g.nodes[0] = node{fan0: piMark, fan1: piMark} // constant
	return g
}

// AddPI appends a primary input and returns its (positive) literal. All PIs
// must be created before the first AND node.
func (g *AIG) AddPI(name string) Lit {
	if len(g.nodes) != g.numPI+1 {
		panic("aig: AddPI after AND nodes were created")
	}
	g.numPI++
	g.pis = append(g.pis, name)
	g.nodes = append(g.nodes, node{fan0: piMark, fan1: piMark})
	return MakeLit(g.numPI, false)
}

// AddPO registers a primary output.
func (g *AIG) AddPO(l Lit, name string) {
	g.checkLit(l)
	g.pos = append(g.pos, l)
	g.poNames = append(g.poNames, name)
}

// NumPIs returns the primary input count.
func (g *AIG) NumPIs() int { return g.numPI }

// NumPOs returns the primary output count.
func (g *AIG) NumPOs() int { return len(g.pos) }

// NumNodes returns the AND-node count (the conventional "size" metric).
func (g *AIG) NumNodes() int { return len(g.nodes) - 1 - g.numPI }

// NumVars returns the total variable count including constant and PIs.
func (g *AIG) NumVars() int { return len(g.nodes) }

// PI returns the literal of the i-th primary input (0-based).
func (g *AIG) PI(i int) Lit { return MakeLit(i+1, false) }

// PIName returns the name of the i-th primary input.
func (g *AIG) PIName(i int) string { return g.pis[i] }

// PO returns the literal driving the i-th primary output.
func (g *AIG) PO(i int) Lit { return g.pos[i] }

// POName returns the name of the i-th primary output.
func (g *AIG) POName(i int) string { return g.poNames[i] }

// SetPO redirects the i-th primary output.
func (g *AIG) SetPO(i int, l Lit) {
	g.checkLit(l)
	g.pos[i] = l
}

// IsPI reports whether the variable is a primary input.
func (g *AIG) IsPI(v int) bool { return v >= 1 && v <= g.numPI }

// IsAnd reports whether the variable is an AND node.
func (g *AIG) IsAnd(v int) bool { return v > g.numPI && v < len(g.nodes) }

// Fanins returns the fanin literals of an AND variable.
func (g *AIG) Fanins(v int) (Lit, Lit) {
	n := &g.nodes[v]
	return n.fan0, n.fan1
}

// Level returns the topological level of a variable.
func (g *AIG) Level(v int) int { return int(g.nodes[v].level) }

// Depth returns the number of logic levels (the conventional "depth"
// metric): the maximum level over the output drivers.
func (g *AIG) Depth() int {
	d := int32(0)
	for _, po := range g.pos {
		if lv := g.nodes[po.Var()].level; lv > d {
			d = lv
		}
	}
	return int(d)
}

func (g *AIG) checkLit(l Lit) {
	if l.Var() >= len(g.nodes) {
		panic(fmt.Sprintf("aig: literal %d references unknown variable", l))
	}
}

// And returns a literal for the conjunction of a and b, applying constant
// propagation, trivial-case simplification, and structural hashing.
func (g *AIG) And(a, b Lit) Lit {
	g.checkLit(a)
	g.checkLit(b)
	// Normalize operand order.
	if a < b {
		a, b = b, a
	}
	// Trivial cases.
	switch {
	case b == False:
		return False
	case b == True:
		return a
	case a == b:
		return a
	case a == b.Not():
		return False
	}
	key := uint64(a)<<32 | uint64(b)
	slot := g.strash.find(key)
	if l := g.strash.vals[slot]; g.strash.keys[slot] == key {
		return l
	}
	lv := g.nodes[a.Var()].level
	if l2 := g.nodes[b.Var()].level; l2 > lv {
		lv = l2
	}
	v := len(g.nodes)
	g.nodes = append(g.nodes, node{fan0: a, fan1: b, level: lv + 1})
	l := MakeLit(v, false)
	g.strash.insert(slot, key, l)
	return l
}

// Or returns a | b.
func (g *AIG) Or(a, b Lit) Lit { return g.And(a.Not(), b.Not()).Not() }

// Xor returns a ^ b.
func (g *AIG) Xor(a, b Lit) Lit {
	return g.Or(g.And(a, b.Not()), g.And(a.Not(), b))
}

// Mux returns s ? t : e.
func (g *AIG) Mux(s, t, e Lit) Lit {
	return g.Or(g.And(s, t), g.And(s.Not(), e))
}

// Ands folds And over the operands (True for none).
func (g *AIG) Ands(ls ...Lit) Lit {
	out := True
	for _, l := range ls {
		out = g.And(out, l)
	}
	return out
}

// Ors folds Or over the operands (False for none).
func (g *AIG) Ors(ls ...Lit) Lit {
	out := False
	for _, l := range ls {
		out = g.Or(out, l)
	}
	return out
}

// FanoutCounts returns, for each variable, the number of fanin references
// from AND nodes plus primary outputs.
func (g *AIG) FanoutCounts() []int {
	refs := make([]int, len(g.nodes))
	for v := g.numPI + 1; v < len(g.nodes); v++ {
		refs[g.nodes[v].fan0.Var()]++
		refs[g.nodes[v].fan1.Var()]++
	}
	for _, po := range g.pos {
		refs[po.Var()]++
	}
	return refs
}

// Sweep returns a compacted copy containing only the nodes reachable from
// the primary outputs, preserving PI/PO order and names.
func (g *AIG) Sweep() *AIG {
	out := newSized(g.Name, len(g.nodes))
	m := make([]Lit, len(g.nodes))
	m[0] = False
	for i := 0; i < g.numPI; i++ {
		m[i+1] = out.AddPI(g.pis[i])
	}
	// Mark reachable.
	mark := make([]bool, len(g.nodes))
	var stack []int
	for _, po := range g.pos {
		stack = append(stack, po.Var())
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if mark[v] || !g.IsAnd(v) {
			continue
		}
		mark[v] = true
		stack = append(stack, g.nodes[v].fan0.Var(), g.nodes[v].fan1.Var())
	}
	for v := g.numPI + 1; v < len(g.nodes); v++ {
		if !mark[v] {
			continue
		}
		f0, f1 := g.nodes[v].fan0, g.nodes[v].fan1
		n0 := m[f0.Var()].NotIf(f0.IsCompl())
		n1 := m[f1.Var()].NotIf(f1.IsCompl())
		m[v] = out.And(n0, n1)
	}
	for i, po := range g.pos {
		out.AddPO(m[po.Var()].NotIf(po.IsCompl()), g.poNames[i])
	}
	return out
}

// Clone returns a deep copy.
func (g *AIG) Clone() *AIG {
	out := &AIG{
		Name:    g.Name,
		nodes:   append([]node(nil), g.nodes...),
		numPI:   g.numPI,
		pis:     append([]string(nil), g.pis...),
		pos:     append([]Lit(nil), g.pos...),
		poNames: append([]string(nil), g.poNames...),
		strash:  g.strash.clone(),
	}
	return out
}

// SameStructure reports whether h is g node for node: the same name, the
// same named primary inputs, the same fanins (and so levels) on every AND
// variable and the same named primary outputs. A pass that reads only this
// structure gives the same result on both graphs.
func (g *AIG) SameStructure(h *AIG) bool {
	return g.Name == h.Name && g.numPI == h.numPI &&
		slices.Equal(g.pis, h.pis) && slices.Equal(g.nodes, h.nodes) &&
		slices.Equal(g.pos, h.pos) && slices.Equal(g.poNames, h.poNames)
}

func (g *AIG) String() string {
	return fmt.Sprintf("aig{%s: pi=%d po=%d and=%d depth=%d}",
		g.Name, g.numPI, len(g.pos), g.NumNodes(), g.Depth())
}
