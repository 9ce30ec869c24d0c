package aig

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteAIGERBinary emits the graph in the binary AIGER format ("aig"), the
// compact form the EPFL suite is distributed in: AND definitions are
// delta-compressed LEB128 varints instead of ASCII triples.
func (g *AIG) WriteAIGERBinary(w io.Writer) error {
	bw := bufio.NewWriter(w)
	m := g.NumVars() - 1
	fmt.Fprintf(bw, "aig %d %d 0 %d %d\n", m, g.numPI, len(g.pos), g.NumNodes())
	for _, po := range g.pos {
		fmt.Fprintf(bw, "%d\n", uint32(po))
	}
	for v := g.numPI + 1; v < g.NumVars(); v++ {
		n := &g.nodes[v]
		lhs := uint32(2 * v)
		rhs0 := uint32(n.fan0)
		rhs1 := uint32(n.fan1)
		if rhs1 > rhs0 {
			rhs0, rhs1 = rhs1, rhs0
		}
		if rhs0 >= lhs {
			return fmt.Errorf("aiger: node %d not in topological literal order", v)
		}
		writeVarint(bw, lhs-rhs0)
		writeVarint(bw, rhs0-rhs1)
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

func writeVarint(w *bufio.Writer, x uint32) {
	for x >= 0x80 {
		w.WriteByte(byte(x&0x7F | 0x80))
		x >>= 7
	}
	w.WriteByte(byte(x))
}

func readVarint(r *bufio.Reader) (uint32, error) {
	var x uint32
	var shift uint
	for {
		b, err := r.ReadByte()
		if err != nil {
			return 0, err
		}
		x |= uint32(b&0x7F) << shift
		if b&0x80 == 0 {
			return x, nil
		}
		shift += 7
		if shift > 28 {
			return 0, fmt.Errorf("aiger: varint overflow")
		}
	}
}

// ReadAIGERBinary parses a binary AIGER ("aig") stream with combinational
// content.
func ReadAIGERBinary(r io.Reader) (*AIG, error) {
	br := bufio.NewReader(r)
	header, err := br.ReadString('\n')
	if err != nil {
		return nil, err
	}
	fields := strings.Fields(header)
	if len(fields) != 6 || fields[0] != "aig" {
		return nil, fmt.Errorf("aiger: bad binary header %q", header)
	}
	nums, err := headerFields(fields[1:])
	if err != nil {
		return nil, err
	}
	maxVar, nIn, nLatch, nOut, nAnd := nums[0], nums[1], nums[2], nums[3], nums[4]
	if nLatch != 0 {
		return nil, fmt.Errorf("aiger: latches unsupported")
	}
	if maxVar != nIn+nAnd {
		return nil, fmt.Errorf("aiger: binary format requires contiguous variables")
	}
	g := New("aiger")
	for i := 0; i < nIn; i++ {
		g.AddPI(fmt.Sprintf("i%d", i))
	}
	// Slices grow with the bytes actually read, never with header counts.
	var outLits []uint32
	for i := 0; i < nOut; i++ {
		line, err := br.ReadString('\n')
		if err != nil {
			return nil, err
		}
		v, err := strconv.Atoi(strings.TrimSpace(line))
		if err != nil || v < 0 || v > 2*maxVar+1 {
			return nil, fmt.Errorf("aiger: bad output literal %q", line)
		}
		outLits = append(outLits, uint32(v))
	}
	// Variables are contiguous, so varMap holds exactly the variables
	// defined so far.
	varMap := make([]Lit, nIn+1)
	for i := 1; i <= nIn; i++ {
		varMap[i] = MakeLit(i, false)
	}
	deref := func(fileLit uint32) (Lit, error) {
		v := int(fileLit >> 1)
		if v >= len(varMap) {
			return 0, fmt.Errorf("aiger: literal %d used before definition", fileLit)
		}
		return varMap[v].NotIf(fileLit&1 == 1), nil
	}
	for i := 0; i < nAnd; i++ {
		lhs := uint32(2 * (nIn + 1 + i))
		d0, err := readVarint(br)
		if err != nil {
			return nil, err
		}
		d1, err := readVarint(br)
		if err != nil {
			return nil, err
		}
		if d0 == 0 || d0 > lhs {
			return nil, fmt.Errorf("aiger: bad delta at AND %d", i)
		}
		rhs0 := lhs - d0
		if d1 > rhs0 {
			return nil, fmt.Errorf("aiger: bad second delta at AND %d", i)
		}
		rhs1 := rhs0 - d1
		a, err := deref(rhs0)
		if err != nil {
			return nil, err
		}
		b, err := deref(rhs1)
		if err != nil {
			return nil, err
		}
		varMap = append(varMap, g.And(a, b))
	}
	// Symbol table.
	poNames := make([]string, nOut)
	for i := range poNames {
		poNames[i] = fmt.Sprintf("o%d", i)
	}
	for {
		line, err := br.ReadString('\n')
		if len(line) > 0 {
			line = strings.TrimRight(line, "\n")
			switch {
			case strings.HasPrefix(line, "i"):
				if idx, name, ok := parseSymbol(line[1:]); ok && idx < len(g.pis) {
					g.pis[idx] = name
				}
			case strings.HasPrefix(line, "o"):
				if idx, name, ok := parseSymbol(line[1:]); ok && idx < nOut {
					poNames[idx] = name
				}
			case line == "c":
				if cm, err2 := br.ReadString('\n'); err2 == nil {
					g.Name = strings.TrimSpace(cm)
				}
			}
		}
		if err != nil {
			break
		}
	}
	for i, ol := range outLits {
		l, err := deref(ol)
		if err != nil {
			return nil, err
		}
		g.AddPO(l, poNames[i])
	}
	return g, nil
}
