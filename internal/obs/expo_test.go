package obs

import (
	"bytes"
	"testing"
)

// TestPageRendersExposition pins the text a Page writes for each kind
// of sample: header, unlabeled and labeled integers, 'g' floats, quoted
// label values, and a labeled histogram's buckets, sum and count.
func TestPageRendersExposition(t *testing.T) {
	table := []Family{
		{Name: "t_total", Type: TypeCounter, Help: "Things."},
		{Name: "t_ratio", Type: TypeGauge, Help: "A ratio."},
		{Name: "t_seconds", Type: TypeHistogram, Help: "Latency."},
	}
	h := NewHistogram([]float64{0.0005, 1})
	h.Observe(0.25)
	h.Observe(3)

	var buf bytes.Buffer
	p := NewPage(&buf, table)
	p.Family("t_total")
	p.Uint(7)
	p.Int(-2, "path", `/a"b`, "code", "200")
	p.Family("t_ratio")
	p.Float(0.1, "backend", "x")
	p.Float(2.5e-07)
	p.Family("t_seconds")
	p.Histogram(h.Snapshot(), "stage", "solve")
	p.Histogram(h.Snapshot())

	want := `# HELP t_total Things.
# TYPE t_total counter
t_total 7
t_total{path="/a\"b",code="200"} -2
# HELP t_ratio A ratio.
# TYPE t_ratio gauge
t_ratio{backend="x"} 0.1
t_ratio 2.5e-07
# HELP t_seconds Latency.
# TYPE t_seconds histogram
t_seconds_bucket{stage="solve",le="0.0005"} 0
t_seconds_bucket{stage="solve",le="1"} 1
t_seconds_bucket{stage="solve",le="+Inf"} 2
t_seconds_sum{stage="solve"} 3.25
t_seconds_count{stage="solve"} 2
t_seconds_bucket{le="0.0005"} 0
t_seconds_bucket{le="1"} 1
t_seconds_bucket{le="+Inf"} 2
t_seconds_sum 3.25
t_seconds_count 2
`
	if got := buf.String(); got != want {
		t.Errorf("page:\n%s\nwant:\n%s", got, want)
	}
}

// TestPageRejectsUndeclared checks the table is the only source of
// families: a name outside it, a family out of table order, a sample
// before any family and a histogram in a non-histogram family all panic.
func TestPageRejectsUndeclared(t *testing.T) {
	table := []Family{
		{Name: "a_total", Type: TypeCounter, Help: "A."},
		{Name: "b_total", Type: TypeCounter, Help: "B."},
	}
	for name, f := range map[string]func(p *Page){
		"undeclared":       func(p *Page) { p.Family("c_total") },
		"out of order":     func(p *Page) { p.Family("b_total") },
		"sample first":     func(p *Page) { p.Int(1) },
		"histogram":        func(p *Page) { p.Family("a_total"); p.Histogram(NewHistogram([]float64{1}).Snapshot()) },
		"odd labels":       func(p *Page) { p.Family("a_total"); p.Int(1, "k") },
		"past end of page": func(p *Page) { p.Family("a_total"); p.Family("b_total"); p.Family("b_total") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f(NewPage(&bytes.Buffer{}, table))
		}()
	}
}
