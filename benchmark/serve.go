package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/entity"
	"repro/internal/join"
	"repro/internal/live"
	"repro/internal/refgraph"
	"repro/internal/server"
)

// client is one HTTP/1.1 connection to the server under test: a transport
// capped at a single connection, so "connections" in a workload's recipe
// means TCP connections, not goroutines sharing a pool.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// reply is what came back for one request. firstLine is the time from send
// to the first complete line of the body: the whole answer for /match (one
// JSON line), the first match for /match/stream.
type reply struct {
	status    int
	body      []byte
	firstLine time.Duration
	err       error
}

func (c *client) do(method, path string, body []byte) reply {
	start := time.Now()
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return reply{err: err}
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	first, err := br.ReadBytes('\n')
	r := reply{status: resp.StatusCode, firstLine: time.Since(start)}
	if err != nil && err != io.EOF {
		r.err = err
		return r
	}
	rest, err := io.ReadAll(br)
	if err != nil {
		r.err = err
		return r
	}
	r.body = append(first, rest...)
	return r
}

func (c *client) post(path string, body []byte) reply { return c.do(http.MethodPost, path, body) }

// stats fetches GET /stats.
func (c *client) stats() (server.StatsResponse, error) {
	var st server.StatsResponse
	r := c.do(http.MethodGet, "/stats", nil)
	if r.err != nil {
		return st, r.err
	}
	if r.status != http.StatusOK {
		return st, fmt.Errorf("/stats answered %d", r.status)
	}
	return st, json.Unmarshal(r.body, &st)
}

type reqKind uint8

const (
	kindMatch  reqKind = iota // POST /match {limit:20, order:"prob"}
	kindStream                // POST /match/stream {limit:1}
	kindIngest                // POST /ingest, one batch
)

const (
	matchLimit  = 20
	sampleEvery = 16 // every 16th answer is kept and verified after the window
)

// request is one entry of a precomputed schedule: when it is due (offset
// from the window's start), what it asks, and on which endpoint.
type request struct {
	due   time.Duration
	query int // pool index (reads) or batch index (writes)
	kind  reqKind
}

// outcome is one issued request. Latency runs from due, not from sent: a
// request that had to wait for a free connection was already late.
type outcome struct {
	req    request
	issued bool
	sent   time.Duration // offsets from the window's start
	done   time.Duration
	reply  reply // body dropped unless kept for verification or tracing
	bytes  int
}

func (o *outcome) latency() time.Duration { return o.done - o.req.due }
func (o *outcome) failed() bool           { return o.reply.err != nil || o.reply.status != http.StatusOK }

// openLoop issues every scheduled request at its due time on the first
// free connection. Connections claim requests in schedule order; one that
// claims a request early sleeps until it is due, one that claims it late
// sends at once. Nothing is skipped: issued == offered by construction,
// and the caller asserts it.
func openLoop(start time.Time, sched []request, conns int, do func(conn int, r request) reply, keep func(i int) bool) []outcome {
	out := make([]outcome, len(sched))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(sched) {
					return
				}
				r := sched[i]
				if wait := time.Until(start.Add(r.due)); wait > 0 {
					time.Sleep(wait)
				}
				o := outcome{req: r, issued: true, sent: time.Since(start)}
				o.reply = do(c, r)
				o.done = time.Since(start)
				o.bytes = len(o.reply.body)
				if !keep(i) {
					o.reply.body = nil
				}
				out[i] = o
			}
		}(c)
	}
	wg.Wait()
	return out
}

// readBodies pre-encodes both request bodies of every pool query, so the
// client spends its CPU on the wire, not on encoding/json.
type readBodies struct{ match, stream [][]byte }

func encodeBodies(p *pool) (readBodies, error) {
	var rb readBodies
	for _, pq := range p.queries {
		m, err := json.Marshal(server.MatchRequest{Query: pq.text, Alpha: alpha, Limit: matchLimit, Order: "prob"})
		if err != nil {
			return rb, err
		}
		s, err := json.Marshal(server.MatchRequest{Query: pq.text, Alpha: alpha, Limit: 1})
		if err != nil {
			return rb, err
		}
		rb.match, rb.stream = append(rb.match, m), append(rb.stream, s)
	}
	return rb, nil
}

func (rb readBodies) do(cl *client, r request) reply {
	if r.kind == kindStream {
		return cl.post("/match/stream", rb.stream[r.query])
	}
	return cl.post("/match", rb.match[r.query])
}

// readSchedule precomputes n reads at a fixed rate. Which reads they are is
// pinned by drawSeed, like the corpus and the pool: queries are drawn
// Zipf(1.1) over a ranking of the pool shuffled with the pool's seed (the
// pool cycles through the shapes in order, so ranking it as drawn would
// always make the first shape the hottest), and serve-zipf streams one read
// in five. The run's -seed decides their order. With the draws themselves
// seeded, which queries happened to miss the caches moved the per-query
// allocation of serve-zipf by up to 6 % between seeds; the order alone
// moves it by 3 %.
func readSchedule(s *spec, drawSeed, seed int64, n int, poolSize int) []request {
	ranking := rand.New(rand.NewSource(s.poolSeed)).Perm(poolSize)
	rng := rand.New(rand.NewSource(drawSeed))
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(poolSize-1))
	sched := make([]request, n)
	for i := range sched {
		sched[i].query = ranking[zipf.Uint64()]
		if s.mode == modeZipf && rng.Intn(5) == 0 {
			sched[i].kind = kindStream
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(n, func(i, j int) { sched[i], sched[j] = sched[j], sched[i] })
	for i := range sched {
		sched[i].due = time.Duration(float64(i) / s.rate * float64(time.Second))
	}
	return sched
}

// decodeMatches turns a /match body into matches.
func decodeMatches(body []byte) (*server.MatchResponse, []join.Match, error) {
	var res server.MatchResponse
	if err := json.Unmarshal(body, &res); err != nil {
		return nil, nil, err
	}
	if res.NumMatches != len(res.Matches) {
		return nil, nil, fmt.Errorf("num_matches %d but %d entries", res.NumMatches, len(res.Matches))
	}
	ms := make([]join.Match, len(res.Matches))
	for i, e := range res.Matches {
		ms[i] = entryMatch(e)
	}
	return &res, ms, nil
}

func entryMatch(e server.MatchEntry) join.Match {
	m := join.Match{Mapping: make([]entity.ID, len(e.Mapping)), Prle: e.Prle, Prn: e.Prn}
	for i, v := range e.Mapping {
		m.Mapping[i] = entity.ID(v)
	}
	return m
}

// decodeStream turns a /match/stream body (NDJSON) into its matches and
// terminal line.
func decodeStream(body []byte) (*server.StreamDone, []join.Match, error) {
	var ms []join.Match
	var done *server.StreamDone
	dec := json.NewDecoder(bytes.NewReader(body))
	for dec.More() {
		var ev server.StreamEvent
		if err := dec.Decode(&ev); err != nil {
			return nil, nil, err
		}
		switch {
		case ev.Error != "":
			return nil, nil, fmt.Errorf("stream error line: %s", ev.Error)
		case ev.Match != nil:
			ms = append(ms, entryMatch(*ev.Match))
		case ev.Done != nil:
			done = ev.Done
		}
	}
	if done == nil {
		return nil, nil, fmt.Errorf("stream ended without a done line")
	}
	return done, ms, nil
}

// mutator generates the write traffic in batches of ingestBatch mutations, half
// of them a new reference with an edge into the corpus, a quarter
// edges between existing references, a quarter linkage evidence. Linkage
// only ever pairs two references the mutator itself added and never reuses
// one, so no identity component grows past three entities and no batch can
// be refused.
type mutator struct {
	rng      *rand.Rand
	baseRefs int
	nextRef  refgraph.RefID
	prev     []refgraph.RefID // last batch's linked pair
}

func newMutator(seed int64, numRefs int) *mutator {
	return &mutator{rng: rand.New(rand.NewSource(seed)), baseRefs: numRefs, nextRef: refgraph.RefID(numRefs)}
}

func (m *mutator) existing() refgraph.RefID { return refgraph.RefID(m.rng.Intn(m.baseRefs)) }

func (m *mutator) prob() float64 { return 0.5 + 0.5*m.rng.Float64() }

func (m *mutator) addRef() (live.Mutation, refgraph.RefID) {
	a := m.rng.Intn(numLabels)
	labels := []live.LabelP{{Label: fmt.Sprintf("l%d", a), P: 1}}
	if m.rng.Intn(5) == 0 {
		b := (a + 1 + m.rng.Intn(numLabels-1)) % numLabels
		labels = []live.LabelP{{Label: fmt.Sprintf("l%d", a), P: 0.7}, {Label: fmt.Sprintf("l%d", b), P: 0.3}}
	}
	id := m.nextRef
	m.nextRef++
	return live.Mutation{Op: live.OpAddRef, Labels: labels}, id
}

func (m *mutator) addEdge(a, b refgraph.RefID) live.Mutation {
	return live.Mutation{Op: live.OpAddEdge, A: a, B: b, P: m.prob()}
}

// pair returns two distinct references of the original corpus.
func (m *mutator) pair() (refgraph.RefID, refgraph.RefID) {
	a, b := m.existing(), m.existing()
	for b == a {
		b = m.existing()
	}
	return a, b
}

func (m *mutator) batch() []live.Mutation {
	ref1, r1 := m.addRef()
	ref2, r2 := m.addRef()
	ms := []live.Mutation{
		ref1, m.addEdge(r1, m.existing()),
		ref2, m.addEdge(r2, m.existing()),
		m.addEdge(m.pair()),
		m.addEdge(m.pair()),
		{Op: live.OpSetLinkage, Members: []refgraph.RefID{r1, r2}, P: 0.9 * m.prob()},
	}
	if m.prev != nil {
		// Revised evidence for the pair linked one batch ago.
		ms = append(ms, live.Mutation{Op: live.OpSetLinkage, Members: m.prev, P: 0.9 * m.prob()})
	} else {
		ms = append(ms, m.addEdge(m.pair()))
	}
	m.prev = []refgraph.RefID{r1, r2}
	return ms
}

// encodeBatch renders a batch as the NDJSON body /ingest reads.
func encodeBatch(ms []live.Mutation) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := range ms {
		if err := enc.Encode(&ms[i]); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// writeSchedule precomputes n ingest batches at the workload's write rate.
func writeSchedule(s *spec, seed int64, n, numRefs int) ([]request, [][]byte, error) {
	mut := newMutator(seed, numRefs)
	sched := make([]request, n)
	bodies := make([][]byte, n)
	for i := range sched {
		sched[i] = request{due: time.Duration(float64(i) / s.writeRate * float64(time.Second)), query: i, kind: kindIngest}
		b, err := encodeBatch(mut.batch())
		if err != nil {
			return nil, nil, err
		}
		bodies[i] = b
	}
	return sched, bodies, nil
}
