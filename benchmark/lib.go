package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/join"
	"repro/internal/pathindex"
)

// window is the resource use of the measured window and what it completed.
type window struct {
	wallS      float64
	cpuS       float64
	gcS        float64
	allocBytes uint64
	completed  int // queries answered (serve: queries that were due)
	good       int // of those, the ones that count towards throughput
}

// measurement is what one run's window produced, before it is turned into
// named metrics.
type measurement struct {
	win          window
	passes       int       // library: whole passes over the pool
	latMs        []float64 // one per completed query of the untraced part
	completed    int
	matches      int // matches returned, over matchSamples answers
	matchSamples int
	sendLagMs    []float64 // open loop: actual send minus due
	offered      int       // requests the schedule held
	issued       int       // requests actually sent

	attempted int // every checked operation of the run, gate and warm-up included
	failed    int

	liveHeapMiB float64
	indexMiB    float64

	layer map[string]float64 // per-layer metrics, traced runs only
	rec   *recorder
	notes []string
}

func (m *measurement) notef(format string, args ...any) {
	m.notes = append(m.notes, fmt.Sprintf(format, args...))
}

// fail counts one failed operation and says why, a few times.
func (m *measurement) fail(format string, args ...any) {
	m.failed++
	if m.failed <= 5 {
		m.notef("FAILED: "+format, args...)
	}
}

// sizeUp records the live heap and the index size at window end.
func (m *measurement) sizeUp(sy *system) {
	m.liveHeapMiB, m.indexMiB = liveHeapMiB(), sy.indexMiB()
}

// between returns the resource use between two usage readings.
func between(a, b usage) window {
	return window{
		wallS:      b.wall.Sub(a.wall).Seconds(),
		cpuS:       b.cpuSeconds - a.cpuSeconds,
		gcS:        b.gcSeconds - a.gcSeconds,
		allocBytes: b.allocBytes - a.allocBytes,
	}
}

// add accumulates another stretch of the window: a traced library run
// accounts its untraced passes only.
func (w *window) add(o window) {
	w.wallS += o.wallS
	w.cpuS += o.cpuS
	w.gcS += o.gcS
	w.allocBytes += o.allocBytes
}

// libOptions are the options both library workloads pass: the threshold
// and nothing else, so Workers and Parallelism keep their zero values.
func libOptions(s *spec) core.Options {
	opt := core.Options{Alpha: alpha}
	if s.mode == modeFirst {
		opt.Limit = 1
	}
	return opt
}

// execute runs one pool query the way the workload's caller would.
func execute(ctx context.Context, s *spec, ix pathindex.Reader, pq *poolQuery) ([]join.Match, error) {
	if s.mode == modeCollect {
		res, err := core.Match(ctx, ix, pq.q, libOptions(s))
		if err != nil {
			return nil, err
		}
		return res.Matches, nil
	}
	var got []join.Match
	_, err := core.MatchStream(ctx, ix, pq.q, libOptions(s), func(m join.Match) bool {
		got = append(got, m)
		return true
	})
	return got, err
}

// verify checks a repeat's answer against what warm-up recorded: the whole
// set for a collect, membership with equal probability bits for a first
// match.
func verify(s *spec, pq *poolQuery, got []join.Match) error {
	if s.mode == modeCollect {
		if len(got) != pq.count || resultHash(got) != pq.hash {
			return fmt.Errorf("%d matches (hash %x), warm-up saw %d (hash %x)", len(got), resultHash(got), pq.count, pq.hash)
		}
		return nil
	}
	if len(got) != 1 {
		return fmt.Errorf("limit-1 stream returned %d matches, full set has %d", len(got), pq.count)
	}
	if _, ok := pq.set[matchHash(got[0])]; !ok {
		return fmt.Errorf("streamed match %v is not in the collected set", got[0])
	}
	return nil
}

// measureLib runs a library workload: warm-up pass recording every pool
// query's full answer, then closed-loop passes over the pool on one
// goroutine. The window always ends on a whole pass, so every query has
// the same number of samples and the median cannot drift with where the
// clock happened to stop.
func measureLib(ctx context.Context, cfg *runConfig, sy *system, p *pool, m *measurement) error {
	s, ix := cfg.spec, sy.reader()

	for _, pq := range p.queries {
		m.attempted++
		got, err := execute(ctx, s, ix, pq)
		if err != nil {
			return err
		}
		if s.mode == modeCollect {
			pq.expect(got)
			continue
		}
		res, err := core.Match(ctx, ix, pq.q, core.Options{Alpha: alpha})
		if err != nil {
			return err
		}
		pq.expect(res.Matches)
		if err := verify(s, pq, got); err != nil {
			m.fail("warm-up %s: %v", pq.shape, err)
		}
	}

	// A traced run alternates an untraced pass with a pass through the
	// staged replay, so that drift in the machine's speed lands on both
	// sides of the overhead ratio; only untraced passes are accounted.
	rng := rand.New(rand.NewSource(cfg.seed))
	limit := libOptions(s).Limit
	var obs []stageObs
	var tracedMs []float64
	if cfg.trace {
		m.rec = newRecorder()
	}
	start := time.Now()
	for time.Since(start).Seconds() < cfg.seconds {
		before := readUsage()
		for _, i := range rng.Perm(len(p.queries)) {
			pq := p.queries[i]
			t0 := time.Now()
			got, err := execute(ctx, s, ix, pq)
			lat := time.Since(t0)
			if err != nil {
				return err
			}
			m.latMs = append(m.latMs, float64(lat.Nanoseconds())/1e6)
			m.completed++
			m.matches += len(got)
			m.matchSamples++
			if err := verify(s, pq, got); err != nil {
				m.fail("%s: %v", pq.shape, err)
			}
		}
		m.win.add(between(before, readUsage()))
		m.passes++
		if !cfg.trace {
			continue
		}
		for _, i := range rng.Perm(len(p.queries)) {
			pq := p.queries[i]
			got, o, err := replay(ctx, m.rec, len(obs), ix, pq.q, limit, 0)
			if err != nil {
				return err
			}
			m.attempted++
			if err := verify(s, pq, got); err != nil {
				m.fail("replay %s: %v", pq.shape, err)
			}
			obs = append(obs, o)
			tracedMs = append(tracedMs, o.total/1e3)
		}
	}
	m.win.completed, m.win.good = m.completed, m.completed
	m.attempted += m.completed
	m.offered, m.issued = m.completed, m.completed
	m.sizeUp(sy)
	m.notef("measure: %d passes over %d queries in %.2fs", m.passes, len(p.queries), m.win.wallS)
	if cfg.trace {
		m.layer = ledger(obs, median(m.latMs)*1e3)
		m.layer["driver.trace_overhead_ratio"] = median(tracedMs) / median(m.latMs)
	}
	return nil
}
