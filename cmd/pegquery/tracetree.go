package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/trace"
)

// runTraceTree renders the cross-process waterfall of one distributed
// trace: spans are gathered from any mix of /debug/trace/{id} endpoints
// (each process holds only the spans it recorded) and NDJSON
// trace files ({"span":...} lines), merged by span id, and printed as an
// indented tree with offsets relative to the earliest span.
func runTraceTree(id, endpoints, files string) error {
	byID := map[string]trace.SpanData{}
	add := func(sp trace.SpanData) {
		if sp.TraceID == id && sp.SpanID != "" {
			byID[sp.SpanID] = sp
		}
	}
	for _, base := range splitList(endpoints) {
		resp, err := http.Get(strings.TrimSuffix(base, "/") + "/debug/trace/" + id)
		if err != nil {
			return err
		}
		if resp.StatusCode == http.StatusNotFound {
			resp.Body.Close() // this process saw no half of the trace; fine
			continue
		}
		var tr struct {
			Spans []trace.SpanData `json:"spans"`
		}
		err = json.NewDecoder(resp.Body).Decode(&tr)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("%s: %v", base, err)
		}
		for _, sp := range tr.Spans {
			add(sp)
		}
	}
	for _, path := range splitList(files) {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
		for sc.Scan() {
			var line struct {
				Span *trace.SpanData `json:"span"`
			}
			if json.Unmarshal(sc.Bytes(), &line) == nil && line.Span != nil {
				add(*line.Span)
			}
		}
		err = sc.Err()
		f.Close()
		if err != nil {
			return err
		}
	}
	if len(byID) == 0 {
		return fmt.Errorf("no spans found for trace %s", id)
	}

	spans := make([]trace.SpanData, 0, len(byID))
	services := map[string]bool{}
	var t0, t1 int64
	for _, sp := range byID {
		spans = append(spans, sp)
		services[sp.Service] = true
		if t0 == 0 || sp.StartNano < t0 {
			t0 = sp.StartNano
		}
		if end := sp.StartNano + int64(sp.Micros*1e3); end > t1 {
			t1 = end
		}
	}
	children := map[string][]trace.SpanData{}
	var roots []trace.SpanData
	for _, sp := range spans {
		if sp.ParentID != "" {
			if _, ok := byID[sp.ParentID]; ok {
				children[sp.ParentID] = append(children[sp.ParentID], sp)
				continue
			}
		}
		roots = append(roots, sp) // true root, or an orphan whose parent was not gathered
	}
	byStart := func(s []trace.SpanData) {
		sort.Slice(s, func(i, j int) bool {
			if s[i].StartNano != s[j].StartNano {
				return s[i].StartNano < s[j].StartNano
			}
			return s[i].SpanID < s[j].SpanID
		})
	}
	byStart(roots)
	for _, c := range children {
		byStart(c)
	}

	fmt.Printf("trace %s: %d spans, %d services, %v\n",
		id, len(spans), len(services), time.Duration(t1-t0).Round(time.Microsecond))
	var walk func(sp trace.SpanData, indent string)
	walk = func(sp trace.SpanData, indent string) {
		attrs := make([]string, 0, len(sp.Attrs))
		for k, v := range sp.Attrs {
			attrs = append(attrs, k+"="+v)
		}
		sort.Strings(attrs)
		line := fmt.Sprintf("%s%-24s %-10s +%-11s %-11s",
			indent, sp.Name, sp.Service,
			time.Duration(sp.StartNano-t0).Round(time.Microsecond),
			time.Duration(sp.Micros*1e3).Round(time.Microsecond))
		fmt.Println(strings.TrimRight(line+" "+strings.Join(attrs, " "), " "))
		for _, c := range children[sp.SpanID] {
			walk(c, indent+"  ")
		}
	}
	for _, sp := range roots {
		walk(sp, "  ")
	}
	return nil
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
