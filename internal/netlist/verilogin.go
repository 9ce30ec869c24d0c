package netlist

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/obs"
	"repro/internal/pdk"
)

// ReadVerilog parses structural Verilog in the subset emitted by
// WriteVerilog (module header, input/output/wire declarations, named-port
// cell instances, and assigns), resolving cells against the given PDK
// catalog. Constant ties (1'b0 / 1'b1) are accepted wherever a net may
// appear. Gate order in the file must be topological (drivers first), as
// WriteVerilog guarantees. Parse errors carry the source line number.
func ReadVerilog(r io.Reader, cells []*pdk.Cell) (*Netlist, error) {
	text, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	var nl *Netlist
	var headerPorts []string
	var ports map[string]bool // input and output declarations seen
	for _, st := range lexStatements(string(text)) {
		stmt := st.text
		fields := strings.Fields(stmt)
		if len(fields) == 0 || fields[0] == "endmodule" {
			continue
		}
		switch fields[0] {
		case "module":
			name, header, err := parseModuleHeader(stmt, st.line)
			if err != nil {
				return nil, err
			}
			nl = New(name, cells)
			headerPorts = header
			ports = make(map[string]bool)
		case "input", "output", "wire":
			if nl == nil {
				return nil, fmt.Errorf("verilog: line %d: declaration before module", st.line)
			}
			for _, n := range splitList(strings.TrimPrefix(stmt, fields[0])) {
				if fields[0] == "wire" {
					continue
				}
				if ports[n] {
					return nil, fmt.Errorf("verilog: line %d: port %q declared twice", st.line, n)
				}
				ports[n] = true
				if fields[0] == "input" {
					nl.Inputs = append(nl.Inputs, n)
				} else {
					nl.Outputs = append(nl.Outputs, n)
				}
			}
		case "assign":
			if nl == nil {
				return nil, fmt.Errorf("verilog: line %d: assign before module", st.line)
			}
			rest := strings.TrimSpace(strings.TrimPrefix(stmt, "assign"))
			parts := strings.SplitN(rest, "=", 2)
			if len(parts) != 2 {
				return nil, fmt.Errorf("verilog: line %d: malformed assign %q", st.line, stmt)
			}
			nl.Aliases[strings.TrimSpace(parts[0])] = strings.TrimSpace(parts[1])
		default:
			// Cell instance: CELL name ( .P(net), ... )
			if nl == nil {
				return nil, fmt.Errorf("verilog: line %d: instance before module", st.line)
			}
			if err := parseInstance(nl, stmt, st.line); err != nil {
				return nil, err
			}
		}
	}
	if nl == nil {
		return nil, fmt.Errorf("verilog: no module found")
	}
	// Diagnostics go through the leveled logger, never straight to stderr:
	// callers (tests, servers) control verbosity and destination.
	if declared := len(nl.Inputs) + len(nl.Outputs); len(headerPorts) != declared {
		obs.Log().Warnf("verilog: module %s header lists %d ports but %d are declared",
			nl.Name, len(headerPorts), declared)
	}
	for _, issue := range nl.Check() {
		if issue.Kind == "unused-gate" {
			obs.Log().Debugf("verilog: module %s: %s", nl.Name, issue)
		} else {
			obs.Log().Warnf("verilog: module %s: %s", nl.Name, issue)
		}
	}
	obs.Log().Debugf("verilog: read module %s: %d gates, %d inputs, %d outputs",
		nl.Name, nl.NumGates(), len(nl.Inputs), len(nl.Outputs))
	return nl, nil
}

// statement is one ';'-terminated chunk with the 1-based line its first
// non-blank character appeared on.
type statement struct {
	text string
	line int
}

// lexStatements strips // comments and splits the source into statements,
// tracking line numbers. Statements may span lines; the recorded line is
// where the statement starts.
func lexStatements(src string) []statement {
	var out []statement
	var sb strings.Builder
	line, start := 1, 0
	inComment := false
	for i := 0; i < len(src); i++ {
		c := src[i]
		switch {
		case c == '\n':
			line++
			inComment = false
			sb.WriteByte(' ')
		case inComment:
			// skip
		case c == '/' && i+1 < len(src) && src[i+1] == '/':
			inComment = true
			i++
		case c == ';':
			text := strings.TrimSpace(sb.String())
			if text != "" {
				out = append(out, statement{text: text, line: start})
			}
			sb.Reset()
			start = 0
		default:
			if start == 0 && c != ' ' && c != '\t' && c != '\r' {
				start = line
			}
			sb.WriteByte(c)
		}
	}
	if text := strings.TrimSpace(sb.String()); text != "" {
		out = append(out, statement{text: text, line: start})
	}
	return out
}

func parseModuleHeader(stmt string, line int) (name string, ports []string, err error) {
	open := strings.Index(stmt, "(")
	closeIdx := strings.LastIndex(stmt, ")")
	if open < 0 || closeIdx < open {
		return "", nil, fmt.Errorf("verilog: line %d: malformed module header %q", line, stmt)
	}
	name = strings.TrimSpace(strings.TrimPrefix(stmt[:open], "module"))
	return name, splitList(stmt[open+1 : closeIdx]), nil
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if t := strings.TrimSpace(p); t != "" {
			out = append(out, t)
		}
	}
	return out
}

func parseInstance(nl *Netlist, stmt string, line int) error {
	open := strings.Index(stmt, "(")
	closeIdx := strings.LastIndex(stmt, ")")
	if open < 0 || closeIdx < open {
		return fmt.Errorf("verilog: line %d: malformed instance %q", line, stmt)
	}
	head := strings.Fields(stmt[:open])
	if len(head) != 2 {
		return fmt.Errorf("verilog: line %d: malformed instance header %q", line, strings.TrimSpace(stmt[:open]))
	}
	cellName := head[0]
	def := nl.Cell(cellName)
	if def == nil {
		return fmt.Errorf("verilog: line %d: unknown cell %q", line, cellName)
	}
	conns := make(map[string]string)
	for _, p := range splitList(stmt[open+1 : closeIdx]) {
		if !strings.HasPrefix(p, ".") {
			return fmt.Errorf("verilog: line %d: positional port %q unsupported", line, p)
		}
		po := strings.Index(p, "(")
		pc := strings.LastIndex(p, ")")
		if po < 0 || pc < po {
			return fmt.Errorf("verilog: line %d: malformed port %q", line, p)
		}
		pin := strings.TrimSpace(p[1:po])
		net := strings.TrimSpace(p[po+1 : pc])
		if err := checkNet(net); err != nil {
			return fmt.Errorf("verilog: line %d: port .%s: %v", line, pin, err)
		}
		conns[pin] = net
	}
	inputs := make([]string, len(def.Inputs))
	for i, pin := range def.Inputs {
		net, ok := conns[pin]
		if !ok {
			return fmt.Errorf("verilog: line %d: cell %s instance missing pin %s", line, cellName, pin)
		}
		inputs[i] = net
	}
	out, ok := conns[def.Outputs[0]]
	if !ok {
		return fmt.Errorf("verilog: line %d: cell %s instance missing output %s", line, cellName, def.Outputs[0])
	}
	if out == Const0 || out == Const1 {
		return fmt.Errorf("verilog: line %d: cell %s drives constant literal %s", line, cellName, out)
	}
	if err := nl.AddGate(cellName, inputs, out); err != nil {
		return fmt.Errorf("verilog: line %d: %v", line, err)
	}
	return nil
}

// checkNet validates a net reference: an identifier, or one of the scalar
// constant literals 1'b0 / 1'b1 (other literal widths are rejected).
func checkNet(net string) error {
	if net == "" {
		return fmt.Errorf("empty net")
	}
	if strings.Contains(net, "'") && net != Const0 && net != Const1 {
		return fmt.Errorf("unsupported literal %q (only %s and %s)", net, Const0, Const1)
	}
	return nil
}
