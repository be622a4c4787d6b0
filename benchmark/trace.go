package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark from the
// outside. Times are nanoseconds since the recorder was created. Parent is
// the id of the span that caused this one (-1 for a root); spans of one
// query share Query.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Query  int    `json:"query"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// layerOf maps a span name ("kpartite.build") to its layer ("kpartite").
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// recorder keeps spans in memory until the run ends. It is safe for
// concurrent use: the candidate stage calls Lookup from several goroutines.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its id.
func (r *recorder) begin(name string, query, parent int) int {
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Query: query, Name: name, Start: now, End: now})
	r.mu.Unlock()
	return id
}

// end closes the span and returns its duration in microseconds.
func (r *recorder) end(id int) float64 {
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id].End = now
	d := now - r.spans[id].Start
	r.mu.Unlock()
	return float64(d) / 1e3
}

// add records a span whose times were taken elsewhere (offsets from the
// recorder's creation), for spans reconstructed from a request's own
// timestamps after the window.
func (r *recorder) add(name string, query, parent int, start, end time.Duration) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Query: query, Name: name, Start: start.Nanoseconds(), End: end.Nanoseconds()})
	return id
}

// since returns the spans recorded from index from on (a query's spans are
// contiguous when queries are replayed one at a time).
func (r *recorder) since(from int) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans[from:]...)
}

func (r *recorder) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// selfTimes returns, per span id, the span's duration minus the part of
// that interval its child spans cover (children may overlap each other when
// a stage fans out; the union is subtracted once).
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// layerSelf attributes the wall-clock time of the given spans' roots to
// layers, in nanoseconds, so that the layers' shares of a query sum to one
// even where a stage fans its calls out: a span keeps the part of its time
// its children do not cover, and children that ran side by side split the
// time they cover together in proportion to their own durations.
func layerSelf(spans []span) map[string]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	raw := selfTimes(spans)
	out := make(map[string]int64)
	var give func(s span, budget float64)
	give = func(s span, budget float64) {
		if s.dur() <= 0 {
			return
		}
		own := budget * float64(raw[s.ID]) / float64(s.dur())
		out[layerOf(s.Name)] += int64(own)
		var total int64
		for _, k := range children[s.ID] {
			total += k.dur()
		}
		for _, k := range children[s.ID] {
			give(k, (budget-own)*float64(k.dur())/float64(total))
		}
	}
	for _, s := range spans {
		if s.Parent < 0 {
			give(s, float64(s.dur()))
		}
	}
	return out
}

// write dumps every span to <dir>/trace-<workload>.json.
func (r *recorder) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	r.mu.Lock()
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, r.spans})
	r.mu.Unlock()
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
