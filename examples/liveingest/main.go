// Live ingest: the paper's Section 2 motivating example as an *evolving*
// entity-resolution workload. The offline papers-world assumption — build
// the index once, query forever — breaks as soon as linkage evidence keeps
// arriving, so this demo starts a live (read-write) server over the Figure
// 1(a) network and streams mutations against it while querying:
//
//  1. the (r, a, i) query answers with the merged-world match at Pr 0.2025,
//  2. new linkage evidence weakens the {Christopher, Chris} merge
//     probability from 0.8 to 0.3 — match probabilities shift immediately,
//     served from the live view with no index rebuild,
//  3. a freshly ingested reference (a new "C. Tucker" mention plus its
//     edge) joins the match set, and
//  4. a compaction folds everything into a new on-disk generation while
//     the server keeps answering.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"

	peg "repro"
)

const query = "node q1 r\nnode q2 a\nnode q3 i\nedge q1 q2\nedge q2 q3"

func main() {
	log.SetFlags(0)

	alpha := peg.MustAlphabet("a", "r", "i")
	a, r, i := alpha.ID("a"), alpha.ID("r"), alpha.ID("i")
	d := peg.NewPGD(alpha)
	geraldMaya := d.AddReference(peg.MustDist(
		peg.LabelProb{Label: r, P: 0.25},
		peg.LabelProb{Label: i, P: 0.75}))
	beckyCastor := d.AddReference(peg.Point(a))
	christopherTucker := d.AddReference(peg.Point(r))
	chrisTucker := d.AddReference(peg.Point(i))
	check(d.AddEdge(geraldMaya, beckyCastor, peg.EdgeDist{P: 0.9}))
	check(d.AddEdge(beckyCastor, christopherTucker, peg.EdgeDist{P: 1.0}))
	check(d.AddEdge(beckyCastor, chrisTucker, peg.EdgeDist{P: 0.5}))
	if _, err := d.AddReferenceSet([]peg.RefID{christopherTucker, chrisTucker}, 0.8); err != nil {
		log.Fatal(err)
	}

	// Live database + server, wired both ways: /ingest mutates the
	// database, every published view swaps into the server atomically.
	dir, err := os.MkdirTemp("", "peg-liveingest-*")
	check(err)
	defer os.RemoveAll(dir)
	db, err := peg.CreateLive(context.Background(), dir, d, peg.LiveOptions{
		Index:        peg.IndexOptions{MaxLen: 2, Beta: 0.02, Gamma: 0.1},
		CompactEvery: -1, CompactDirtyFrac: -1, // compacted explicitly below
	})
	check(err)
	defer db.Close()
	srv := peg.NewServer(db.View(), peg.ServerOptions{Workers: 2})
	srv.SetLive(db)
	db.SetPublisher(srv)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	check(err)
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	defer hs.Close()
	base := "http://" + ln.Addr().String()

	fmt.Println("== 1. initial evidence (merge probability 0.8)")
	match(base)

	fmt.Println("== 2. weaker linkage evidence arrives: Pr(merge) 0.8 → 0.3")
	ingest(base, peg.Mutation{Op: peg.OpSetLinkage,
		Members: []peg.RefID{christopherTucker, chrisTucker}, P: 0.3})
	match(base)

	fmt.Println("== 3. a new 'C. Tucker' mention (industry) linked to Becky")
	res := ingest(base,
		peg.Mutation{Op: peg.OpAddRef, Labels: []peg.MutationLabel{{Label: "i", P: 1}}},
		peg.Mutation{Op: peg.OpAddEdge, A: beckyCastor, B: 4, P: 0.8})
	fmt.Printf("   assigned reference ids %v (%d dirty entities)\n",
		res.Refs, res.DirtyEntities)
	match(base)

	fmt.Println("== 4. compaction folds the mutations into generation 2")
	check(db.Compact(context.Background()))
	st := db.Status()
	fmt.Printf("   generation %d, %d pending mutations, %d dirty entities\n",
		st.Generation, st.Mutations, st.DirtyEntities)
	match(base)
}

// match posts the (r, a, i) query and prints the ranked answers.
func match(base string) {
	body, _ := json.Marshal(peg.MatchRequest{Query: query, Alpha: 0.05, Order: "prob"})
	resp, err := http.Post(base+"/match", "application/json", bytes.NewReader(body))
	check(err)
	defer resp.Body.Close()
	var r peg.MatchResponse
	check(json.NewDecoder(resp.Body).Decode(&r))
	for _, m := range r.Matches {
		fmt.Printf("   %v  Pr=%.6f\n", m.Mapping, m.Pr)
	}
	fmt.Printf("   (%d matches, cached=%v)\n", r.NumMatches, r.Cached)
}

// ingest streams mutations to /ingest as NDJSON.
func ingest(base string, ms ...peg.Mutation) peg.ApplyResult {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, m := range ms {
		check(enc.Encode(m))
	}
	resp, err := http.Post(base+"/ingest", "application/x-ndjson", &buf)
	check(err)
	defer resp.Body.Close()
	var r peg.ApplyResult
	check(json.NewDecoder(resp.Body).Decode(&r))
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("ingest failed: %+v", r)
	}
	return r
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
