package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Labels are the constant label pairs of one series.  Label sets must be
// small and bounded (routes, experiment kinds, cache tiers) — a registry
// keeps every series it has ever seen.
type Labels map[string]string

// Counter is a monotonically increasing metric.  The zero value is ready to
// use, registered or not, and all methods are safe on a nil receiver so
// optional instrumentation needs no call-site guards.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (which must be non-negative for the exposition to stay
// monotonic; this is not checked on the hot path).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value reads the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable instantaneous metric.  Like Counter, the zero value
// works and all methods are nil-safe.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Value reads the current gauge.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// MetricType classifies a family for the exposition format.
type MetricType int

const (
	TypeCounter MetricType = iota
	TypeGauge
	TypeSummary
)

func (t MetricType) String() string {
	switch t {
	case TypeCounter:
		return "counter"
	case TypeGauge:
		return "gauge"
	case TypeSummary:
		return "summary"
	}
	return "untyped"
}

// summaryQuantiles are the quantile series every histogram family exposes.
var summaryQuantiles = []float64{0.5, 0.9, 0.99}

// series is one (family, label set) instance.  Exactly one of the value
// fields is set, matching the family type: counter/gauge storage, a
// func-backed reader, or a histogram.
type series struct {
	labels    Labels
	labelsKey string // canonical rendered form, also the dedup key
	counter   *Counter
	gauge     *Gauge
	fn        func() float64
	hist      *Histogram
}

// family is every series sharing one metric name.
type family struct {
	name  string
	help  string
	typ   MetricType
	funcs bool // func-backed family (values read at scrape)
	byKey map[string]*series
	order []*series
}

// Registry holds metric families and renders them as Prometheus text
// exposition or a JSON snapshot.  Registration takes the registry lock and
// is idempotent — asking for an existing (name, labels) series returns the
// same instance — while updates on the returned Counter/Gauge/Histogram are
// lock-free atomics.  Registering one name under two types, or with help
// text that disagrees, panics: those are programming errors.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Counter returns the registered counter for (name, labels), creating it on
// first use.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	s := r.getOrCreate(name, help, TypeCounter, false, labels)
	return s.counter
}

// Gauge returns the registered gauge for (name, labels), creating it on
// first use.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	s := r.getOrCreate(name, help, TypeGauge, false, labels)
	return s.gauge
}

// Histogram returns the registered latency histogram for (name, labels),
// creating it on first use.  The family is exposed as a Prometheus summary:
// quantile series plus _sum (seconds) and _count.
func (r *Registry) Histogram(name, help string, labels Labels) *Histogram {
	s := r.getOrCreate(name, help, TypeSummary, false, labels)
	return s.hist
}

// CounterFunc registers a counter series whose value is read from fn at
// scrape time.  Use it to expose a layer's own counter storage (engine
// cache statistics, store puts) without double counting: the layer remains
// the single source of truth.
func (r *Registry) CounterFunc(name, help string, labels Labels, fn func() float64) {
	s := r.getOrCreate(name, help, TypeCounter, true, labels)
	s.fn = fn
}

// GaugeFunc registers a gauge series read from fn at scrape time (live
// queue depths, goroutine counts, heap sizes).
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	s := r.getOrCreate(name, help, TypeGauge, true, labels)
	s.fn = fn
}

func (r *Registry) getOrCreate(name, help string, typ MetricType, funcs bool, labels Labels) *series {
	if err := checkMetricName(name); err != nil {
		panic(err)
	}
	key := renderLabels(labels, "")
	r.mu.RLock()
	if f, ok := r.families[name]; ok {
		if s, ok := f.byKey[key]; ok && f.typ == typ && f.funcs == funcs && f.help == help {
			r.mu.RUnlock()
			return s
		}
	}
	r.mu.RUnlock()

	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, funcs: funcs, byKey: make(map[string]*series)}
		r.families[name] = f
	}
	if f.typ != typ || f.funcs != funcs {
		panic(fmt.Sprintf("obs: metric %q re-registered as %v/funcs=%v, was %v/funcs=%v",
			name, typ, funcs, f.typ, f.funcs))
	}
	if f.help != help {
		panic(fmt.Sprintf("obs: metric %q re-registered with different help text", name))
	}
	if s, ok := f.byKey[key]; ok {
		return s
	}
	s := &series{labelsKey: key}
	if len(labels) > 0 {
		s.labels = make(Labels, len(labels))
		for k, v := range labels {
			if err := checkLabelName(k); err != nil {
				panic(err)
			}
			s.labels[k] = v
		}
	}
	switch {
	case funcs:
		// fn assigned by the caller.
	case typ == TypeCounter:
		s.counter = &Counter{}
	case typ == TypeGauge:
		s.gauge = &Gauge{}
	case typ == TypeSummary:
		s.hist = &Histogram{}
	}
	f.byKey[key] = s
	f.order = append(f.order, s)
	return s
}

// checkMetricName enforces the Prometheus metric name grammar
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func checkMetricName(name string) error {
	if name == "" {
		return fmt.Errorf("obs: empty metric name")
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return fmt.Errorf("obs: invalid metric name %q", name)
		}
	}
	return nil
}

// checkLabelName enforces [a-zA-Z_][a-zA-Z0-9_]*.
func checkLabelName(name string) error {
	if name == "" || name[0] == ':' {
		return fmt.Errorf("obs: invalid label name %q", name)
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return fmt.Errorf("obs: invalid label name %q", name)
		}
	}
	return nil
}

// renderLabels returns the canonical `{k="v",...}` form of a label set with
// keys sorted, optionally with an extra quantile label appended; "" for an
// empty set without extra.
func renderLabels(labels Labels, quantile string) string {
	if len(labels) == 0 && quantile == "" {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(labels[k]))
		b.WriteByte('"')
	}
	if quantile != "" {
		if len(keys) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`quantile="`)
		b.WriteString(quantile)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func escapeHelp(v string) string {
	if !strings.ContainsAny(v, "\\\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(v)
}

// WritePrometheus renders every family in the text exposition format,
// sorted by family name and label signature so scrapes are deterministic.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	for i, name := range names {
		fams[i] = r.families[name]
	}
	// Snapshot each family's series slice under the lock; values are read
	// outside it (func-backed series may take the owning layer's locks).
	ordered := make([][]*series, len(fams))
	for i, f := range fams {
		ordered[i] = append([]*series(nil), f.order...)
		sort.Slice(ordered[i], func(a, b int) bool {
			return ordered[i][a].labelsKey < ordered[i][b].labelsKey
		})
	}
	r.mu.RUnlock()

	var b []byte
	for i, f := range fams {
		b = b[:0]
		b = append(b, "# HELP "...)
		b = append(b, f.name...)
		b = append(b, ' ')
		b = append(b, escapeHelp(f.help)...)
		b = append(b, "\n# TYPE "...)
		b = append(b, f.name...)
		b = append(b, ' ')
		b = append(b, f.typ.String()...)
		b = append(b, '\n')
		for _, s := range ordered[i] {
			switch {
			case s.fn != nil:
				b = append(b, f.name...)
				b = append(b, s.labelsKey...)
				b = append(b, ' ')
				b = strconv.AppendFloat(b, s.fn(), 'g', -1, 64)
				b = append(b, '\n')
			case s.counter != nil:
				b = append(b, f.name...)
				b = append(b, s.labelsKey...)
				b = append(b, ' ')
				b = strconv.AppendInt(b, s.counter.Value(), 10)
				b = append(b, '\n')
			case s.gauge != nil:
				b = append(b, f.name...)
				b = append(b, s.labelsKey...)
				b = append(b, ' ')
				b = strconv.AppendInt(b, s.gauge.Value(), 10)
				b = append(b, '\n')
			case s.hist != nil:
				for _, q := range summaryQuantiles {
					b = append(b, f.name...)
					b = append(b, renderLabels(s.labels, strconv.FormatFloat(q, 'g', -1, 64))...)
					b = append(b, ' ')
					b = strconv.AppendFloat(b, s.hist.Quantile(q).Seconds(), 'g', -1, 64)
					b = append(b, '\n')
				}
				b = append(b, f.name...)
				b = append(b, "_sum"...)
				b = append(b, s.labelsKey...)
				b = append(b, ' ')
				b = strconv.AppendFloat(b, s.hist.Sum().Seconds(), 'g', -1, 64)
				b = append(b, '\n')
				b = append(b, f.name...)
				b = append(b, "_count"...)
				b = append(b, s.labelsKey...)
				b = append(b, ' ')
				b = strconv.AppendInt(b, s.hist.Count(), 10)
				b = append(b, '\n')
			}
		}
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// Snapshot is the JSON form of the registry (GET /v1/metrics).
type Snapshot struct {
	Families []FamilySnapshot `json:"families"`
}

// FamilySnapshot is one metric family with every series' current value.
type FamilySnapshot struct {
	Name   string           `json:"name"`
	Type   string           `json:"type"`
	Help   string           `json:"help"`
	Series []SeriesSnapshot `json:"series"`
}

// SeriesSnapshot is one series: counters and gauges carry Value, summaries
// carry the quantile block.
type SeriesSnapshot struct {
	Labels  Labels           `json:"labels,omitempty"`
	Value   *float64         `json:"value,omitempty"`
	Summary *SummarySnapshot `json:"summary,omitempty"`
}

// SummarySnapshot reports a histogram series in seconds.
type SummarySnapshot struct {
	Count      int64   `json:"count"`
	SumSeconds float64 `json:"sum_seconds"`
	P50        float64 `json:"p50_seconds"`
	P90        float64 `json:"p90_seconds"`
	P99        float64 `json:"p99_seconds"`
	P999       float64 `json:"p999_seconds"`
	Max        float64 `json:"max_seconds"`
}

// TakeSnapshot evaluates every series (including func-backed ones) into a
// JSON-encodable snapshot, ordered like the exposition format.
func (r *Registry) TakeSnapshot() Snapshot {
	r.mu.RLock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	ordered := make([][]*series, len(names))
	for i, name := range names {
		fams[i] = r.families[name]
		ordered[i] = append([]*series(nil), fams[i].order...)
		sort.Slice(ordered[i], func(a, b int) bool {
			return ordered[i][a].labelsKey < ordered[i][b].labelsKey
		})
	}
	r.mu.RUnlock()

	snap := Snapshot{Families: make([]FamilySnapshot, 0, len(fams))}
	for i, f := range fams {
		fs := FamilySnapshot{Name: f.name, Type: f.typ.String(), Help: f.help}
		for _, s := range ordered[i] {
			ss := SeriesSnapshot{Labels: s.labels}
			switch {
			case s.fn != nil:
				v := s.fn()
				ss.Value = &v
			case s.counter != nil:
				v := float64(s.counter.Value())
				ss.Value = &v
			case s.gauge != nil:
				v := float64(s.gauge.Value())
				ss.Value = &v
			case s.hist != nil:
				ss.Summary = &SummarySnapshot{
					Count:      s.hist.Count(),
					SumSeconds: s.hist.Sum().Seconds(),
					P50:        s.hist.Quantile(0.5).Seconds(),
					P90:        s.hist.Quantile(0.9).Seconds(),
					P99:        s.hist.Quantile(0.99).Seconds(),
					P999:       s.hist.Quantile(0.999).Seconds(),
					Max:        s.hist.Max().Seconds(),
				}
			}
			fs.Series = append(fs.Series, ss)
		}
		snap.Families = append(snap.Families, fs)
	}
	return snap
}
