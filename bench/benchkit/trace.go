package benchkit

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span is one timed interval of the traced run, recorded by the bench
// around a call into a layer. Times are nanoseconds since the child
// process started; Parent indexes the span that caused this one (-1 for
// the root).
type Span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Attr   string `json:"attr,omitempty"`
}

// Tracer keeps the spans of one run in memory until the run ends. A nil
// *Tracer records nothing, so untraced runs pay one nil check per call
// site.
type Tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []Span
}

// NewTracer returns a tracer whose clock starts at origin.
func NewTracer(origin time.Time) *Tracer {
	// A traced phase records up to eight spans per 1 ms epoch for some
	// 20 s; size for that so recording never grows the slice mid-run.
	return &Tracer{origin: origin, spans: make([]Span, 0, 1<<18)}
}

// Now is the tracer's clock.
func (t *Tracer) Now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.origin))
}

// Add records a finished span and returns its index.
func (t *Tracer) Add(name string, parent int32, start, end int64, attr string) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	t.spans = append(t.spans, Span{Name: name, Start: start, End: end, Parent: parent, Attr: attr})
	id := int32(len(t.spans) - 1)
	t.mu.Unlock()
	return id
}

// Begin opens a span; End closes it.
func (t *Tracer) Begin(name string, parent int32) int32 {
	if t == nil {
		return -1
	}
	return t.Add(name, parent, t.Now(), 0, "")
}

// End closes a span opened by Begin.
func (t *Tracer) End(id int32) { t.EndAt(id, t.Now()) }

// EndAt closes a span at a time already taken.
func (t *Tracer) EndAt(id int32, at int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[id].End = at
	t.mu.Unlock()
}

// Spans returns the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans
}

// SpanTotal is the per-name roll-up of a trace.
type SpanTotal struct {
	Count int   `json:"count"`
	Total int64 `json:"total_ns"`
	Self  int64 `json:"self_ns"`
}

// SelfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover. Overlapping children are
// counted once, and a child is clipped to its parent's interval.
func SelfTimes(spans []Span) []int64 {
	type iv struct{ s, e int64 }
	kids := make(map[int32][]iv)
	for _, sp := range spans {
		if sp.Parent >= 0 {
			kids[sp.Parent] = append(kids[sp.Parent], iv{sp.Start, sp.End})
		}
	}
	self := make([]int64, len(spans))
	for i, sp := range spans {
		self[i] = sp.End - sp.Start
		ks := kids[int32(i)]
		sort.Slice(ks, func(a, b int) bool { return ks[a].s < ks[b].s })
		covered := sp.Start
		for _, k := range ks {
			s, e := max(k.s, covered), min(k.e, sp.End)
			if e > s {
				self[i] -= e - s
				covered = e
			}
		}
	}
	return self
}

// Totals rolls spans up by name.
func Totals(spans []Span) map[string]SpanTotal {
	self := SelfTimes(spans)
	out := make(map[string]SpanTotal)
	for i, sp := range spans {
		t := out[sp.Name]
		t.Count++
		t.Total += sp.End - sp.Start
		t.Self += self[i]
		out[sp.Name] = t
	}
	return out
}

// WriteTrace writes the spans and their roll-up to path.
func WriteTrace(path, workload string, spans []Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	doc := struct {
		Workload string               `json:"workload"`
		Totals   map[string]SpanTotal `json:"totals"`
		Spans    []Span               `json:"spans"`
	}{workload, Totals(spans), spans}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
