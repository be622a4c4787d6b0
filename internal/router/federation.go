package router

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
)

// federationTimeout caps one cluster scrape: every replica is polled
// concurrently, so the page costs one slowest-replica round trip.
const federationTimeout = 5 * time.Second

// scrapedFamily is one metric family reassembled from the backends' text
// pages, with every sample re-labeled by its origin.
type scrapedFamily struct {
	name, help, typ string
	samples         []string
}

// parseFamilies runs a stateful parse over one replica's Prometheus text
// page, injecting shard/replica as leading labels on every sample. The
// family a sample belongs to is the one announced by the preceding
// # HELP/# TYPE headers (histogram _bucket/_sum/_count lines carry the base
// family's name plus a suffix); a bare sample with no header opens an
// untyped family of its own name.
func parseFamilies(page []byte, shard int, replicaURL string, out map[string]*scrapedFamily, order *[]string) {
	inject := fmt.Sprintf("shard=%q,replica=%q", strconv.Itoa(shard), replicaURL)
	family := func(name string) *scrapedFamily {
		f, ok := out[name]
		if !ok {
			f = &scrapedFamily{name: name, typ: "untyped", help: "federated from cluster replicas"}
			out[name] = f
			*order = append(*order, name)
		}
		return f
	}
	var cur string
	sc := bufio.NewScanner(bytes.NewReader(page))
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 {
				continue
			}
			switch fields[1] {
			case "HELP":
				cur = fields[2]
				f := family(cur)
				if len(fields) == 4 && f.help == "federated from cluster replicas" {
					f.help = fields[3]
				}
			case "TYPE":
				cur = fields[2]
				if len(fields) == 4 {
					family(cur).typ = fields[3]
				}
			}
			continue
		}
		// Sample line: name[{labels}] value [timestamp].
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		if name == "" {
			continue
		}
		fam := name
		if cur == "" || (name != cur && !strings.HasPrefix(name, cur+"_")) {
			cur = name
		} else {
			fam = cur
		}
		var sample string
		if i := strings.IndexByte(line, '{'); i >= 0 {
			sample = line[:i+1] + inject + "," + line[i+1:]
		} else if i := strings.IndexByte(line, ' '); i >= 0 {
			sample = line[:i] + "{" + inject + "}" + line[i:]
		} else {
			continue // no value; not a well-formed sample
		}
		family(fam).samples = append(family(fam).samples, sample+"\n")
	}
}

// handleMetricsCluster serves GET /metrics/cluster: the router's own
// families followed by every healthy replica's /metrics page, merged by
// family with shard="N",replica="URL" labels injected on each sample — a
// single scrape target for the whole serving tier. Replicas that fail to
// answer are reported through peg_cluster_scrape_up{shard,replica} = 0
// rather than failing the page.
func (r *Router) handleMetricsCluster(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet && req.Method != http.MethodHead {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	ctx, cancel := context.WithTimeout(req.Context(), federationTimeout)
	defer cancel()

	type target struct {
		shard int
		url   string
	}
	var targets []target
	for s, reps := range r.replicas {
		for _, rep := range reps {
			if rep.healthy.Load() {
				targets = append(targets, target{s, rep.url})
			}
		}
	}
	pages := make([][]byte, len(targets))
	errs := make([]error, len(targets))
	var wg sync.WaitGroup
	for i, t := range targets {
		wg.Add(1)
		go func(i int, t target) {
			defer wg.Done()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, t.url+"/metrics", nil)
			if err != nil {
				errs[i] = err
				return
			}
			resp, err := r.client.Do(req)
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				io.Copy(io.Discard, resp.Body)
				errs[i] = fmt.Errorf("HTTP %d", resp.StatusCode)
				return
			}
			b, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
			if err != nil {
				errs[i] = err
				return
			}
			pages[i] = b
		}(i, t)
	}
	wg.Wait()

	// Merge in deterministic (shard, replica) order so the page is stable
	// across scrapes modulo sample values.
	families := make(map[string]*scrapedFamily)
	var order []string
	up := &scrapedFamily{name: "peg_cluster_scrape_up", typ: "gauge",
		help: "1 if the replica's /metrics answered this cluster scrape."}
	families[up.name] = up
	order = append(order, up.name)
	for i, t := range targets {
		v := 1
		if errs[i] != nil {
			v = 0
		}
		up.samples = append(up.samples,
			fmt.Sprintf("peg_cluster_scrape_up{shard=%q,replica=%q} %d\n", strconv.Itoa(t.shard), t.url, v))
		if errs[i] != nil {
			continue
		}
		parseFamilies(pages[i], t.shard, t.url, families, &order)
	}
	sort.Strings(order[1:]) // scrape_up leads; backend families alphabetical

	// Render: the router's own registry first, then the federated families
	// through a per-scrape registry of text collectors — same renderer, so
	// escaping and header layout match a native page.
	var buf bytes.Buffer
	r.met.reg.Render(&buf)
	fed := metrics.NewRegistry()
	for _, name := range order {
		f := families[name]
		fed.MustRegister(metrics.NewTextFamily(f.name, f.help, f.typ, f.samples))
	}
	fed.Render(&buf)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write(buf.Bytes())
}
