package aig

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteAIGER emits the graph in the ASCII AIGER 1.9 format ("aag"), the
// interchange format of the logic-synthesis community (and of the original
// EPFL benchmark distribution). Symbol-table entries preserve PI/PO names.
func (g *AIG) WriteAIGER(w io.Writer) error {
	bw := bufio.NewWriter(w)
	m := g.NumVars() - 1 // maximum variable index
	fmt.Fprintf(bw, "aag %d %d 0 %d %d\n", m, g.numPI, len(g.pos), g.NumNodes())
	for i := 1; i <= g.numPI; i++ {
		fmt.Fprintf(bw, "%d\n", 2*i)
	}
	for _, po := range g.pos {
		fmt.Fprintf(bw, "%d\n", uint32(po))
	}
	for v := g.numPI + 1; v < g.NumVars(); v++ {
		n := &g.nodes[v]
		fmt.Fprintf(bw, "%d %d %d\n", 2*v, uint32(n.fan0), uint32(n.fan1))
	}
	for i, name := range g.pis {
		fmt.Fprintf(bw, "i%d %s\n", i, name)
	}
	for i, name := range g.poNames {
		fmt.Fprintf(bw, "o%d %s\n", i, name)
	}
	fmt.Fprintf(bw, "c\n%s\n", g.Name)
	return bw.Flush()
}

// ReadAIGER parses an ASCII AIGER ("aag") file written by WriteAIGER or any
// conforming producer with combinational content (no latches).
func ReadAIGER(r io.Reader) (*AIG, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	if !sc.Scan() {
		return nil, fmt.Errorf("aiger: empty input")
	}
	header := strings.Fields(sc.Text())
	if len(header) != 6 || header[0] != "aag" {
		return nil, fmt.Errorf("aiger: bad header %q", sc.Text())
	}
	nums, err := headerFields(header[1:])
	if err != nil {
		return nil, err
	}
	maxVar, nIn, nLatch, nOut, nAnd := nums[0], nums[1], nums[2], nums[3], nums[4]
	if nLatch != 0 {
		return nil, fmt.Errorf("aiger: latches unsupported (combinational AIGs only)")
	}
	if maxVar < nIn+nAnd {
		return nil, fmt.Errorf("aiger: inconsistent header")
	}
	g := New("aiger")
	for i := 0; i < nIn; i++ {
		if !sc.Scan() {
			return nil, io.ErrUnexpectedEOF
		}
		lit, err := strconv.Atoi(strings.TrimSpace(sc.Text()))
		if err != nil || lit != 2*(i+1) {
			return nil, fmt.Errorf("aiger: unexpected input literal %q (reordered inputs unsupported)", sc.Text())
		}
		g.AddPI(fmt.Sprintf("i%d", i))
	}
	// Slices grow with the lines actually read, never with header counts.
	var outLits []int
	for i := 0; i < nOut; i++ {
		if !sc.Scan() {
			return nil, io.ErrUnexpectedEOF
		}
		lit, err := strconv.Atoi(strings.TrimSpace(sc.Text()))
		if err != nil || lit < 0 {
			return nil, fmt.Errorf("aiger: bad output literal %q", sc.Text())
		}
		outLits = append(outLits, lit)
	}
	// AND definitions; map file variables onto graph literals (the graph
	// may simplify, so the mapping is explicit). Keyed by variable, since
	// M may leave gaps.
	ands := make(map[int]Lit)
	deref := func(fileLit int) (Lit, error) {
		v := fileLit >> 1
		switch {
		case v > maxVar:
			return 0, fmt.Errorf("aiger: literal %d out of range", fileLit)
		case v <= nIn:
			return MakeLit(v, false).NotIf(fileLit&1 == 1), nil
		}
		base, ok := ands[v]
		if !ok {
			return 0, fmt.Errorf("aiger: literal %d used before definition", fileLit)
		}
		return base.NotIf(fileLit&1 == 1), nil
	}
	for i := 0; i < nAnd; i++ {
		if !sc.Scan() {
			return nil, io.ErrUnexpectedEOF
		}
		fields := strings.Fields(sc.Text())
		if len(fields) != 3 {
			return nil, fmt.Errorf("aiger: bad AND line %q", sc.Text())
		}
		lhs, err0 := strconv.Atoi(fields[0])
		rhs0, err1 := strconv.Atoi(fields[1])
		rhs1, err2 := strconv.Atoi(fields[2])
		if err0 != nil || err1 != nil || err2 != nil || rhs0 < 0 || rhs1 < 0 {
			return nil, fmt.Errorf("aiger: bad AND line %q", sc.Text())
		}
		switch _, dup := ands[lhs>>1]; {
		case lhs%2 != 0:
			return nil, fmt.Errorf("aiger: AND lhs %d is complemented", lhs)
		case lhs <= 2*nIn:
			return nil, fmt.Errorf("aiger: AND lhs %d is not above the inputs", lhs)
		case lhs > 2*maxVar:
			return nil, fmt.Errorf("aiger: AND lhs %d out of range", lhs)
		case dup:
			return nil, fmt.Errorf("aiger: AND lhs %d defined twice", lhs)
		}
		a, err := deref(rhs0)
		if err != nil {
			return nil, err
		}
		b, err := deref(rhs1)
		if err != nil {
			return nil, err
		}
		ands[lhs>>1] = g.And(a, b)
	}
	poNames := make([]string, nOut)
	for i := range poNames {
		poNames[i] = fmt.Sprintf("o%d", i)
	}
	// Symbol table and comment.
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "i"):
			idx, name, ok := parseSymbol(line[1:])
			if ok && idx < len(g.pis) {
				g.pis[idx] = name
			}
		case strings.HasPrefix(line, "o"):
			idx, name, ok := parseSymbol(line[1:])
			if ok && idx < nOut {
				poNames[idx] = name
			}
		case line == "c":
			if sc.Scan() {
				g.Name = strings.TrimSpace(sc.Text())
			}
		}
	}
	for i, ol := range outLits {
		l, err := deref(ol)
		if err != nil {
			return nil, err
		}
		g.AddPO(l, poNames[i])
	}
	return g, sc.Err()
}

func parseSymbol(s string) (int, string, bool) {
	parts := strings.SplitN(s, " ", 2)
	if len(parts) != 2 {
		return 0, "", false
	}
	idx, err := strconv.Atoi(parts[0])
	if err != nil || idx < 0 {
		return 0, "", false
	}
	return idx, parts[1], true
}

// maxHeaderCount bounds every AIGER header count: variable 2^29-1 still has
// literals that fit a Lit, and sums of counts cannot overflow.
const maxHeaderCount = 1 << 29

// headerFields parses the five counts M I L O A of an AIGER header.
func headerFields(fields []string) ([5]int, error) {
	var nums [5]int
	for i := range nums {
		v, err := strconv.Atoi(fields[i])
		if err != nil || v < 0 || v >= maxHeaderCount {
			return nums, fmt.Errorf("aiger: bad header field %q", fields[i])
		}
		nums[i] = v
	}
	return nums, nil
}
