package obs

import (
	"fmt"
	"io"
	"strconv"
)

// The metric types a Family may declare, spelled as on a # TYPE line.
const (
	TypeCounter   = "counter"
	TypeGauge     = "gauge"
	TypeHistogram = "histogram"
)

// Family declares one metric family of a /metrics page: the name every
// series of the family carries, its Prometheus type, and its help text.
// Each tier declares its families once, as a table in render order;
// OPERATIONS.md documents each one under the same name and type.
type Family struct {
	// Name is the family name, e.g. "swcc_http_requests_total".
	Name string
	// Type is TypeCounter, TypeGauge or TypeHistogram.
	Type string
	// Help is the one-line text of the family's # HELP line.
	Help string
}

// Page writes one /metrics page in Prometheus text exposition format
// (version 0.0.4). It renders only the families of its table, in table
// order: each family opens with Family, and the sample methods that
// follow write that family's series. Labels are given as alternating
// key, value strings and render as key="value" in the order given.
//
// A Page is a one-shot writer for one scrape and is not safe for
// concurrent use. Write errors are ignored, as a scrape that lost its
// client has no one to report to.
type Page struct {
	w    io.Writer
	rest []Family // the table's families not yet opened
	fam  *Family  // the open family, nil before the first Family call
	buf  []byte   // the line being rendered
}

// NewPage returns a Page writing to w whose families are exactly table.
func NewPage(w io.Writer, table []Family) *Page {
	return &Page{w: w, rest: table}
}

// Family writes the # HELP and # TYPE header of the named family and
// opens it for the samples that follow; it returns p so a one-series
// family reads as one line. The name must be the table's next family: a
// family missing from the table, or rendered out of table order, is a
// programming error, so Family panics rather than emit it.
func (p *Page) Family(name string) *Page {
	if len(p.rest) == 0 || p.rest[0].Name != name {
		panic(fmt.Sprintf("obs: family %s is not next in the page's table", name))
	}
	f := &p.rest[0]
	p.fam, p.rest = f, p.rest[1:]
	p.line(append(p.buf[:0], "# HELP "+f.Name+" "+f.Help+"\n# TYPE "+f.Name+" "+f.Type...))
	return p
}

// Int writes one sample of the open family with an integer value.
func (p *Page) Int(v int64, labels ...string) {
	p.line(strconv.AppendInt(p.sample("", labels, ""), v, 10))
}

// Uint writes one sample of the open family with an unsigned value.
func (p *Page) Uint(v uint64, labels ...string) {
	p.line(strconv.AppendUint(p.sample("", labels, ""), v, 10))
}

// Float writes one sample of the open family with a float value in the
// shortest 'g' form that reads back exactly.
func (p *Page) Float(v float64, labels ...string) {
	p.line(strconv.AppendFloat(p.sample("", labels, ""), v, 'g', -1, 64))
}

// Histogram writes one histogram series of the open family, which must
// be declared TypeHistogram: a cumulative _bucket sample per bound plus
// le="+Inf", then _sum and _count.
func (p *Page) Histogram(s Snapshot, labels ...string) {
	if p.fam == nil || p.fam.Type != TypeHistogram {
		panic("obs: Histogram outside a histogram family")
	}
	for i, ub := range s.Bounds {
		p.line(strconv.AppendUint(p.sample("_bucket", labels, strconv.FormatFloat(ub, 'g', -1, 64)), s.Cumulative[i], 10))
	}
	p.line(strconv.AppendUint(p.sample("_bucket", labels, "+Inf"), s.Count, 10))
	p.line(strconv.AppendFloat(p.sample("_sum", labels, ""), s.Sum, 'g', -1, 64))
	p.line(strconv.AppendUint(p.sample("_count", labels, ""), s.Count, 10))
}

// sample renders a sample line of the open family up to its value: the
// name plus suffix, then the labels and, when le is non-empty, a final
// le label. It panics before any Family, or on an odd label list.
func (p *Page) sample(suffix string, labels []string, le string) []byte {
	b := append(append(p.buf[:0], p.fam.Name...), suffix...)
	sep := byte('{')
	for i := 0; i < len(labels); i += 2 {
		b = strconv.AppendQuote(append(append(append(b, sep), labels[i]...), '='), labels[i+1])
		sep = ','
	}
	if le != "" {
		b = strconv.AppendQuote(append(append(b, sep), "le="...), le)
		sep = ','
	}
	if sep == ',' {
		b = append(b, '}')
	}
	return append(b, ' ')
}

// line ends the rendered line b and writes it, keeping b's storage for
// the next line.
func (p *Page) line(b []byte) {
	p.buf = append(b, '\n')
	p.w.Write(p.buf)
}
