package metrics

import (
	"bufio"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func render(r *Registry) string {
	var sb strings.Builder
	r.Render(&sb)
	return sb.String()
}

func TestCounterAndVec(t *testing.T) {
	r := NewRegistry()
	c := NewCounter("test_total", "a counter")
	v := NewCounterVec("test_by_kind_total", "a labeled counter", "kind")
	r.MustRegister(c, v)
	c.Inc()
	c.Add(2)
	v.WithLabelValues("a").Inc()
	v.WithLabelValues("b").Add(5)
	out := render(r)
	for _, want := range []string{
		"# TYPE test_total counter",
		"test_total 3",
		`test_by_kind_total{kind="a"} 1`,
		`test_by_kind_total{kind="b"} 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestDuplicateFamilyPanics(t *testing.T) {
	r := NewRegistry()
	r.MustRegister(NewCounter("dup_total", ""))
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.MustRegister(NewCounter("dup_total", ""))
}

func TestGauges(t *testing.T) {
	r := NewRegistry()
	r.MustRegister(
		NewGaugeFunc("g", "a gauge", func() float64 { return 2.5 }),
	)
	ig := NewInfoGauge("info", "identity", "id")
	ig.SetLabelValue("gen3#42")
	r.MustRegister(ig)
	out := render(r)
	for _, want := range []string{
		"g 2.5",
		`info{id="gen3#42"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestHistogramExposition checks the cumulative-bucket invariants of the
// text format: le buckets are non-decreasing, +Inf equals _count, and _sum
// is the sum of observations.
func TestHistogramExposition(t *testing.T) {
	h := NewHistogram("lat_seconds", "latency", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.5, 5, 0.005} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d, want 5", h.Count())
	}
	r := NewRegistry()
	r.MustRegister(h)
	out := render(r)
	wantBuckets := map[string]uint64{"0.01": 2, "0.1": 3, "1": 4, "+Inf": 5}
	var prev uint64
	seen := 0
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "lat_seconds_bucket") {
			continue
		}
		seen++
		le := line[strings.Index(line, `le="`)+4:]
		le = le[:strings.Index(le, `"`)]
		var n uint64
		fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%d", &n)
		if n < prev {
			t.Errorf("bucket le=%s count %d < previous %d (not cumulative)", le, n, prev)
		}
		prev = n
		if want, ok := wantBuckets[le]; ok && n != want {
			t.Errorf("bucket le=%s = %d, want %d", le, n, want)
		}
	}
	if seen != 4 {
		t.Errorf("saw %d bucket lines, want 4", seen)
	}
	var sum float64
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "lat_seconds_sum ") {
			sum, _ = strconv.ParseFloat(strings.TrimPrefix(line, "lat_seconds_sum "), 64)
		}
	}
	if math.Abs(sum-5.56) > 1e-9 {
		t.Errorf("sum = %v, want 5.56", sum)
	}
	if !strings.Contains(out, "lat_seconds_count 5") {
		t.Errorf("missing count line:\n%s", out)
	}
}

func TestHistogramVecSharesHeader(t *testing.T) {
	v := NewHistogramVec("stage_seconds", "per-stage", "stage", ExpBuckets(0.001, 10, 3))
	v.WithLabelValue("join").Observe(0.5)
	v.WithLabelValue("reduce").Observe(0.002)
	r := NewRegistry()
	r.MustRegister(v)
	out := render(r)
	if n := strings.Count(out, "# TYPE stage_seconds histogram"); n != 1 {
		t.Errorf("TYPE header rendered %d times, want 1", n)
	}
	for _, want := range []string{
		`stage_seconds_bucket{stage="join",le="+Inf"} 1`,
		`stage_seconds_count{stage="reduce"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(0.0001, 4, 5)
	want := []float64{0.0001, 0.0004, 0.0016, 0.0064, 0.0256}
	for i := range want {
		if math.Abs(b[i]-want[i]) > 1e-12 {
			t.Errorf("bucket %d = %v, want %v", i, b[i], want[i])
		}
	}
}

// TestConcurrentObserveAndScrape hammers a histogram and a counter vec from
// many goroutines while scraping — the race detector is the assertion.
func TestConcurrentObserveAndScrape(t *testing.T) {
	r := NewRegistry()
	h := NewHistogramVec("conc_seconds", "", "stage", ExpBuckets(0.001, 10, 4))
	c := NewCounterVec("conc_total", "", "outcome")
	r.MustRegister(h, c)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			stage := fmt.Sprintf("s%d", g%3)
			for i := 0; i < 500; i++ {
				h.WithLabelValue(stage).Observe(float64(i) / 1000)
				c.WithLabelValues("ok").Inc()
			}
		}(g)
	}
	for i := 0; i < 20; i++ {
		_ = render(r)
	}
	wg.Wait()
	if got := c.WithLabelValues("ok").Value(); got != 4000 {
		t.Errorf("counter = %d, want 4000", got)
	}
	total := uint64(0)
	for _, s := range h.order {
		total += h.WithLabelValue(s).Count()
	}
	if total != 4000 {
		t.Errorf("histogram observations = %d, want 4000", total)
	}
}
