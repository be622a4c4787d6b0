package server

import (
	"testing"
)

// referenced reports whether the server still holds si anywhere a retired
// generation can be held: as the current one, or in any slot of the retired
// list's backing array — including those past its length, which the garbage
// collector follows just the same.
func referenced(s *Server, si *servedIndex) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.cur == si {
		return true
	}
	for _, r := range s.retired[:cap(s.retired)] {
		if r == si {
			return true
		}
	}
	return false
}

// TestDrainedGenerationUnreferenced: once a retired generation's last
// request finishes and the list is pruned — by the next publish or by
// DrainObsolete — the server holds no pointer to it. Re-slicing alone
// (retired[:0] + append) left it in the backing array until the list grew
// that long again, pinning a live view's overlay for minutes.
func TestDrainedGenerationUnreferenced(t *testing.T) {
	for _, prune := range []string{"publish", "drain"} {
		t.Run(prune, func(t *testing.T) {
			s, _ := testServer(t, Options{})
			ix := s.cur.ix

			// Three generations pinned by in-flight requests, each retired
			// by the next publish: the list grows to three slots.
			var pinned []*servedIndex
			var releases []func()
			for i := 0; i < 3; i++ {
				si, release := s.acquireIndex()
				pinned = append(pinned, si)
				releases = append(releases, release)
				s.Publish(ix)
			}
			for _, si := range pinned {
				if !referenced(s, si) {
					t.Fatal("pinned generation dropped while a request holds it")
				}
			}
			// Publish prunes without waiting, so there the first generation
			// stays pinned and the pruned list is shorter than its backing
			// array; DrainObsolete waits for every retired generation.
			drained := pinned[1:]
			releases[1]()
			releases[2]()
			if prune == "publish" {
				s.Publish(ix)
				if !referenced(s, pinned[0]) {
					t.Fatal("generation with a request in flight was dropped")
				}
				defer releases[0]()
			} else {
				drained = pinned
				releases[0]()
				s.DrainObsolete()
			}
			for _, si := range drained {
				if referenced(s, si) {
					t.Fatalf("drained generation %s is still referenced from the server", si.id)
				}
			}
		})
	}
}
