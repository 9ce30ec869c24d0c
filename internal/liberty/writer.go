package liberty

import (
	"fmt"
	"io"
	"strings"
)

// Unit conventions for emitted libraries: time in ps, capacitance in fF,
// leakage power in pW, internal (per-event) energy in fJ, voltage in V.
const (
	timeScale    = 1e12 // s  -> ps
	capScale     = 1e15 // F  -> fF
	leakScale    = 1e12 // W  -> pW
	energyScale  = 1e15 // J  -> fJ
	timeUnitStr  = "1ps"
	leakUnitStr  = "1pW"
	pullResUnits = "1kohm"
)

// Write emits the library in liberty syntax.
func (l *Library) Write(w io.Writer) error {
	b := &strings.Builder{}
	fmt.Fprintf(b, "library (%s) {\n", token(l.Name))
	fmt.Fprintf(b, "  comment : \"cryogenic-aware characterized library, T=%gK\";\n", l.TempK)
	fmt.Fprintf(b, "  delay_model : table_lookup;\n")
	fmt.Fprintf(b, "  time_unit : \"%s\";\n", timeUnitStr)
	fmt.Fprintf(b, "  voltage_unit : \"1V\";\n")
	fmt.Fprintf(b, "  current_unit : \"1uA\";\n")
	fmt.Fprintf(b, "  leakage_power_unit : \"%s\";\n", leakUnitStr)
	fmt.Fprintf(b, "  pulling_resistance_unit : \"%s\";\n", pullResUnits)
	fmt.Fprintf(b, "  capacitive_load_unit (1, ff);\n")
	fmt.Fprintf(b, "  nom_temperature : %g;\n", l.TempK)
	fmt.Fprintf(b, "  nom_voltage : %g;\n", l.Vdd)
	fmt.Fprintf(b, "  operating_conditions (typical) {\n")
	fmt.Fprintf(b, "    temperature : %g;\n", l.TempK)
	fmt.Fprintf(b, "    voltage : %g;\n", l.Vdd)
	fmt.Fprintf(b, "  }\n")
	for _, c := range l.Cells {
		writeCell(b, c)
	}
	fmt.Fprintf(b, "}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

func writeCell(b *strings.Builder, c *Cell) {
	fmt.Fprintf(b, "  cell (%s) {\n", token(c.Name))
	fmt.Fprintf(b, "    area : %.4f;\n", c.Area)
	fmt.Fprintf(b, "    cell_leakage_power : %.6g;\n", c.LeakagePower*leakScale)
	if c.Sequential {
		fmt.Fprintf(b, "    ff (IQ, IQN) {\n")
		fmt.Fprintf(b, "      clocked_on : \"%s\";\n", c.ClockPin)
		fmt.Fprintf(b, "      next_state : \"D\";\n")
		fmt.Fprintf(b, "    }\n")
	}
	for _, p := range c.Pins {
		writePin(b, p)
	}
	fmt.Fprintf(b, "  }\n")
}

func writePin(b *strings.Builder, p *Pin) {
	fmt.Fprintf(b, "    pin (%s) {\n", token(p.Name))
	fmt.Fprintf(b, "      direction : %s;\n", token(p.Direction))
	if p.Direction == "input" {
		fmt.Fprintf(b, "      capacitance : %.6g;\n", p.Cap*capScale)
	}
	if p.Function != "" {
		fmt.Fprintf(b, "      function : \"%s\";\n", p.Function)
	}
	for _, tm := range p.Timings {
		fmt.Fprintf(b, "      timing () {\n")
		fmt.Fprintf(b, "        related_pin : \"%s\";\n", tm.RelatedPin)
		if tm.Sense != "" {
			fmt.Fprintf(b, "        timing_sense : %s;\n", token(tm.Sense))
		}
		if tm.Type != "" {
			fmt.Fprintf(b, "        timing_type : %s;\n", token(tm.Type))
		}
		writeTable(b, "cell_rise", tm.CellRise, timeScale)
		writeTable(b, "cell_fall", tm.CellFall, timeScale)
		writeTable(b, "rise_transition", tm.RiseTrans, timeScale)
		writeTable(b, "fall_transition", tm.FallTrans, timeScale)
		fmt.Fprintf(b, "      }\n")
	}
	for _, pw := range p.Powers {
		fmt.Fprintf(b, "      internal_power () {\n")
		fmt.Fprintf(b, "        related_pin : \"%s\";\n", pw.RelatedPin)
		writeTable(b, "rise_power", pw.RisePower, energyScale)
		writeTable(b, "fall_power", pw.FallPower, energyScale)
		fmt.Fprintf(b, "      }\n")
	}
	fmt.Fprintf(b, "    }\n")
}

func writeTable(b *strings.Builder, kind string, t *Table, scale float64) {
	if t == nil {
		return
	}
	fmt.Fprintf(b, "        %s (tbl_%dx%d) {\n", kind, len(t.Index1), len(t.Index2))
	fmt.Fprintf(b, "          index_1 (\"%s\");\n", joinScaled(t.Index1, timeScale))
	fmt.Fprintf(b, "          index_2 (\"%s\");\n", joinScaled(t.Index2, capScale))
	fmt.Fprintf(b, "          values ( \\\n")
	for i, row := range t.Values {
		sep := ", \\"
		if i == len(t.Values)-1 {
			sep = " \\"
		}
		fmt.Fprintf(b, "            \"%s\"%s\n", joinScaled(row, scale), sep)
	}
	fmt.Fprintf(b, "          );\n")
	fmt.Fprintf(b, "        }\n")
}

// token writes a name or keyword bare when the parser reads it back
// unchanged as a bare token, and quoted otherwise (empty, spaces,
// delimiters, parentheses).
func token(s string) string {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || c == '_' || c == '.' || c == '-' || c == '+') {
			return `"` + s + `"`
		}
	}
	if s == "" {
		return `""`
	}
	return s
}

func joinScaled(vals []float64, scale float64) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = fmt.Sprintf("%.6g", v*scale)
	}
	return strings.Join(parts, ", ")
}
