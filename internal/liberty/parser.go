package liberty

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"
)

// Parse reads a liberty file written in the subset emitted by Write (which
// covers the common structure of industrial libraries: nested groups,
// simple attributes, and NLDM value tables). All quantities are converted
// back to SI units.
func Parse(r io.Reader) (*Library, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	p := &parser{src: string(data)}
	g, err := p.parseGroup()
	if err != nil {
		return nil, err
	}
	if g.name != "library" {
		return nil, fmt.Errorf("liberty: top-level group is %q, want library", g.name)
	}
	return buildLibrary(g)
}

// group is a parsed liberty group: name (args) { attrs; subgroups }.
type group struct {
	name   string
	args   []string
	attrs  map[string][]string // attribute name -> values (complex attrs keep all)
	groups []*group
}

type parser struct {
	src string
	pos int
}

func (p *parser) skipWS() {
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\\':
			p.pos++
		case c == '/' && p.pos+1 < len(p.src) && p.src[p.pos+1] == '*':
			end := strings.Index(p.src[p.pos+2:], "*/")
			if end < 0 {
				p.pos = len(p.src)
				return
			}
			p.pos += end + 4
		case c == '/' && p.pos+1 < len(p.src) && p.src[p.pos+1] == '/':
			end := strings.IndexByte(p.src[p.pos:], '\n')
			if end < 0 {
				p.pos = len(p.src)
				return
			}
			p.pos += end + 1
		default:
			return
		}
	}
}

func (p *parser) ident() string {
	start := p.pos
	for p.pos < len(p.src) {
		c := rune(p.src[p.pos])
		if unicode.IsLetter(c) || unicode.IsDigit(c) || c == '_' || c == '.' || c == '-' || c == '+' {
			p.pos++
		} else {
			break
		}
	}
	return p.src[start:p.pos]
}

// value reads one attribute value: quoted string or bare token.
func (p *parser) value() (string, error) {
	p.skipWS()
	if p.pos >= len(p.src) {
		return "", io.ErrUnexpectedEOF
	}
	if p.src[p.pos] == '"' {
		end := strings.IndexByte(p.src[p.pos+1:], '"')
		if end < 0 {
			return "", fmt.Errorf("liberty: unterminated string at %d", p.pos)
		}
		v := p.src[p.pos+1 : p.pos+1+end]
		p.pos += end + 2
		return v, nil
	}
	start := p.pos
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c == ';' || c == ')' || c == ',' || c == '\n' || c == '{' {
			break
		}
		if c == '"' {
			return "", fmt.Errorf("liberty: stray quote at offset %d", p.pos)
		}
		p.pos++
	}
	if p.pos == start {
		// Callers loop until a delimiter; a value that consumed nothing
		// would leave them spinning on it.
		return "", fmt.Errorf("liberty: expected a value at offset %d", p.pos)
	}
	return strings.TrimSpace(p.src[start:p.pos]), nil
}

// parseGroup parses "name (args) { body }".
func (p *parser) parseGroup() (*group, error) {
	p.skipWS()
	name := p.ident()
	if name == "" {
		return nil, fmt.Errorf("liberty: expected group name at offset %d", p.pos)
	}
	p.skipWS()
	g := &group{name: name, attrs: map[string][]string{}}
	if p.pos >= len(p.src) || p.src[p.pos] != '(' {
		return nil, fmt.Errorf("liberty: expected ( after %s", name)
	}
	p.pos++
	for {
		p.skipWS()
		if p.pos >= len(p.src) {
			return nil, io.ErrUnexpectedEOF
		}
		if p.src[p.pos] == ')' {
			p.pos++
			break
		}
		if p.src[p.pos] == ',' {
			p.pos++
			continue
		}
		v, err := p.value()
		if err != nil {
			return nil, err
		}
		g.args = append(g.args, v)
	}
	p.skipWS()
	if p.pos >= len(p.src) || p.src[p.pos] != '{' {
		return nil, fmt.Errorf("liberty: expected { after %s(...)", name)
	}
	p.pos++
	for {
		p.skipWS()
		if p.pos >= len(p.src) {
			return nil, io.ErrUnexpectedEOF
		}
		if p.src[p.pos] == '}' {
			p.pos++
			return g, nil
		}
		if err := p.parseStatement(g); err != nil {
			return nil, err
		}
	}
}

// parseStatement parses either an attribute "name : value;" or a complex
// attribute "name (v, v, ...);" or a subgroup.
func (p *parser) parseStatement(g *group) error {
	p.skipWS()
	mark := p.pos
	name := p.ident()
	if name == "" {
		return fmt.Errorf("liberty: expected statement at offset %d", p.pos)
	}
	p.skipWS()
	if p.pos < len(p.src) && p.src[p.pos] == ':' {
		p.pos++
		v, err := p.value()
		if err != nil {
			return err
		}
		p.skipWS()
		if p.pos < len(p.src) && p.src[p.pos] == ';' {
			p.pos++
		}
		g.attrs[name] = append(g.attrs[name], v)
		return nil
	}
	if p.pos < len(p.src) && p.src[p.pos] == '(' {
		// Look ahead: group (has '{' after ')') or complex attribute.
		save := p.pos
		depth := 0
		i := p.pos
		for ; i < len(p.src); i++ {
			if p.src[i] == '"' {
				// Parentheses inside a quoted value do not nest.
				end := strings.IndexByte(p.src[i+1:], '"')
				if end < 0 {
					break
				}
				i += end + 1
			} else if p.src[i] == '(' {
				depth++
			} else if p.src[i] == ')' {
				depth--
				if depth == 0 {
					break
				}
			}
		}
		j := i + 1
		for j < len(p.src) && (p.src[j] == ' ' || p.src[j] == '\t' || p.src[j] == '\n' || p.src[j] == '\r' || p.src[j] == '\\') {
			j++
		}
		if j < len(p.src) && p.src[j] == '{' {
			p.pos = mark
			sub, err := p.parseGroup()
			if err != nil {
				return err
			}
			g.groups = append(g.groups, sub)
			return nil
		}
		// Complex attribute: collect all comma-separated values.
		p.pos = save + 1
		var vals []string
		for {
			p.skipWS()
			if p.pos >= len(p.src) {
				return io.ErrUnexpectedEOF
			}
			if p.src[p.pos] == ')' {
				p.pos++
				break
			}
			if p.src[p.pos] == ',' {
				p.pos++
				continue
			}
			v, err := p.value()
			if err != nil {
				return err
			}
			vals = append(vals, v)
		}
		p.skipWS()
		if p.pos < len(p.src) && p.src[p.pos] == ';' {
			p.pos++
		}
		g.attrs[name] = append(g.attrs[name], vals...)
		return nil
	}
	return fmt.Errorf("liberty: malformed statement %q at offset %d", name, mark)
}

func (g *group) attr(name string) string {
	if vs := g.attrs[name]; len(vs) > 0 {
		return vs[0]
	}
	return ""
}

func (g *group) attrFloat(name string, def float64) float64 {
	s := g.attr(name)
	if s == "" {
		return def
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return def
	}
	return v
}

func parseFloatList(s string) ([]float64, error) {
	parts := strings.FieldsFunc(s, func(r rune) bool { return r == ',' || r == ' ' || r == '\t' })
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return nil, fmt.Errorf("liberty: bad number %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}

func buildTable(g *group, valueScale float64) (*Table, error) {
	idx1, err := parseFloatList(g.attr("index_1"))
	if err != nil {
		return nil, err
	}
	idx2, err := parseFloatList(g.attr("index_2"))
	if err != nil {
		return nil, err
	}
	for i := range idx1 {
		idx1[i] /= timeScale
	}
	for i := range idx2 {
		idx2[i] /= capScale
	}
	rows := g.attrs["values"]
	if len(rows) != len(idx1) {
		return nil, fmt.Errorf("liberty: table has %d rows, want %d", len(rows), len(idx1))
	}
	t := NewTable(idx1, idx2)
	for i, row := range rows {
		vals, err := parseFloatList(row)
		if err != nil {
			return nil, err
		}
		if len(vals) != len(idx2) {
			return nil, fmt.Errorf("liberty: row %d has %d values, want %d", i, len(vals), len(idx2))
		}
		for j, v := range vals {
			t.Values[i][j] = v / valueScale
		}
	}
	return t, nil
}

func buildLibrary(g *group) (*Library, error) {
	lib := &Library{
		Name:  first(g.args),
		TempK: g.attrFloat("nom_temperature", 300),
		Vdd:   g.attrFloat("nom_voltage", 0.7),
	}
	for _, cg := range g.groups {
		if cg.name != "cell" {
			continue
		}
		c := &Cell{
			Name:         first(cg.args),
			Area:         cg.attrFloat("area", 0),
			LeakagePower: cg.attrFloat("cell_leakage_power", 0) / leakScale,
		}
		for _, sub := range cg.groups {
			switch sub.name {
			case "ff":
				c.Sequential = true
				c.ClockPin = strings.Trim(sub.attr("clocked_on"), "\"")
			case "pin":
				p, err := buildPin(sub)
				if err != nil {
					return nil, fmt.Errorf("cell %s: %w", c.Name, err)
				}
				c.Pins = append(c.Pins, p)
			}
		}
		lib.Cells = append(lib.Cells, c)
	}
	return lib, nil
}

func buildPin(g *group) (*Pin, error) {
	p := &Pin{
		Name:      first(g.args),
		Direction: g.attr("direction"),
		Cap:       g.attrFloat("capacitance", 0) / capScale,
		Function:  g.attr("function"),
	}
	for _, sub := range g.groups {
		switch sub.name {
		case "timing":
			tm := &Timing{
				RelatedPin: sub.attr("related_pin"),
				Sense:      sub.attr("timing_sense"),
				Type:       sub.attr("timing_type"),
			}
			var err error
			for _, tg := range sub.groups {
				var dst **Table
				switch tg.name {
				case "cell_rise":
					dst = &tm.CellRise
				case "cell_fall":
					dst = &tm.CellFall
				case "rise_transition":
					dst = &tm.RiseTrans
				case "fall_transition":
					dst = &tm.FallTrans
				default:
					continue
				}
				*dst, err = buildTable(tg, timeScale)
				if err != nil {
					return nil, err
				}
			}
			p.Timings = append(p.Timings, tm)
		case "internal_power":
			pw := &InternalPower{RelatedPin: sub.attr("related_pin")}
			var err error
			for _, tg := range sub.groups {
				var dst **Table
				switch tg.name {
				case "rise_power":
					dst = &pw.RisePower
				case "fall_power":
					dst = &pw.FallPower
				default:
					continue
				}
				*dst, err = buildTable(tg, energyScale)
				if err != nil {
					return nil, err
				}
			}
			p.Powers = append(p.Powers, pw)
		}
	}
	return p, nil
}

func first(ss []string) string {
	if len(ss) == 0 {
		return ""
	}
	return ss[0]
}
