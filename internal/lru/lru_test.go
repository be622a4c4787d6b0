package lru

import (
	"context"
	"errors"
	"sync"
	"testing"
)

// waiting is a context that reports when Do first asks for its Done
// channel, which only a caller waiting on another's computation does.
type waiting struct {
	context.Context
	once   sync.Once
	joined chan struct{}
}

func newWaiting(ctx context.Context) *waiting {
	return &waiting{Context: ctx, joined: make(chan struct{})}
}

func (w *waiting) Done() <-chan struct{} {
	w.once.Do(func() { close(w.joined) })
	return w.Context.Done()
}

func constant[V any](v V) func() (V, error) { return func() (V, error) { return v, nil } }

func mustNotCompute[V any](t *testing.T) func() (V, error) {
	return func() (V, error) {
		t.Error("computed a value the cache holds")
		var zero V
		return zero, nil
	}
}

// TestCache is the suite of the one cache mechanism behind the result and
// plan caches.
func TestCache(t *testing.T) {
	bg := context.Background()
	for _, tc := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"lru-eviction", func(t *testing.T) {
			c := New[int](2, nil)
			c.Do(bg, "1", constant(1))
			c.Do(bg, "2", constant(2))
			c.Do(bg, "1", mustNotCompute[int](t)) // touch 1 so 2 is the victim
			c.Do(bg, "3", constant(3))
			if _, hit, _ := c.Do(bg, "2", constant(-2)); hit {
				t.Error("LRU victim survived")
			}
			if st := c.Stats(); st.Entries != 2 {
				t.Errorf("after 4 inserts into 2 slots: %+v, want 2 entries", st)
			}
			c.Do(bg, "3", mustNotCompute[int](t))
			if _, hit, _ := c.Do(bg, "1", constant(-1)); hit {
				t.Error("1 survived two newer entries")
			}
		}},
		{"singleflight", func(t *testing.T) {
			c := New[*int](8, nil)
			release := make(chan struct{})
			computes := 0
			const callers = 16
			got := make([]*int, callers)
			var wg sync.WaitGroup
			for i := range got {
				wg.Add(1)
				go func() {
					defer wg.Done()
					v, _, err := c.Do(bg, "k", func() (*int, error) {
						computes++ // only ever one computing goroutine
						<-release
						return new(int), nil
					})
					if err != nil {
						t.Error(err)
					}
					got[i] = v
				}()
			}
			close(release)
			wg.Wait()
			if computes != 1 {
				t.Fatalf("compute ran %d times, want 1", computes)
			}
			for i := range got {
				if got[i] != got[0] {
					t.Fatal("callers got different values")
				}
			}
			if st := c.Stats(); st.Misses != 1 || st.Hits != callers-1 {
				t.Fatalf("%+v, want 1 miss and %d hits", st, callers-1)
			}
		}},
		{"failed-leader-not-cached", func(t *testing.T) {
			c := New[int](8, nil)
			fail := errors.New("leader's deadline")
			started, release := make(chan struct{}), make(chan struct{})
			leaderErr := make(chan error, 1)
			go func() {
				_, _, err := c.Do(bg, "k", func() (int, error) {
					close(started)
					<-release
					return 0, fail
				})
				leaderErr <- err
			}()
			<-started
			w := newWaiting(bg)
			type result struct {
				v   int
				hit bool
				err error
			}
			waiter := make(chan result, 1)
			go func() {
				v, hit, err := c.Do(w, "k", constant(7))
				waiter <- result{v, hit, err}
			}()
			<-w.joined
			close(release)
			if err := <-leaderErr; !errors.Is(err, fail) {
				t.Fatalf("leader: %v, want its own error", err)
			}
			if r := <-waiter; r.err != nil || r.hit || r.v != 7 {
				t.Fatalf("waiter: %+v, want its own computation of 7", r)
			}
			if v, hit, _ := c.Do(bg, "k", mustNotCompute[int](t)); !hit || v != 7 {
				t.Fatalf("after the retry: %d hit=%v, want the stored 7", v, hit)
			}
			if st := c.Stats(); st.Misses != 2 || st.Hits != 1 || st.Entries != 1 {
				t.Fatalf("%+v, want 2 misses, 1 hit, 1 entry", st)
			}
		}},
		{"cancelled-waiter", func(t *testing.T) {
			c := New[int](8, nil)
			started, release := make(chan struct{}), make(chan struct{})
			leader := make(chan int, 1)
			go func() {
				v, _, _ := c.Do(bg, "k", func() (int, error) {
					close(started)
					<-release
					return 5, nil
				})
				leader <- v
			}()
			<-started
			ctx, cancel := context.WithCancel(bg)
			w := newWaiting(ctx)
			waiter := make(chan error, 1)
			go func() {
				_, _, err := c.Do(w, "k", mustNotCompute[int](t))
				waiter <- err
			}()
			<-w.joined
			cancel()
			if err := <-waiter; !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled waiter: %v, want context.Canceled", err)
			}
			close(release)
			if v := <-leader; v != 5 {
				t.Fatalf("leader got %d", v)
			}
			if v, hit, _ := c.Do(bg, "k", mustNotCompute[int](t)); !hit || v != 5 {
				t.Fatalf("leader's value not stored: %d hit=%v", v, hit)
			}
		}},
		{"nil-cache", func(t *testing.T) {
			c := New[int](0, nil)
			if c != nil {
				t.Fatal("size 0 made a cache")
			}
			computes := 0
			for i := 0; i < 3; i++ {
				v, hit, err := c.Do(bg, "k", func() (int, error) { computes++; return 1, nil })
				if v != 1 || hit || err != nil {
					t.Fatalf("call %d: %d hit=%v err=%v", i, v, hit, err)
				}
			}
			if computes != 3 || c.Stats() != (Stats{}) {
				t.Fatalf("%d computes, %+v", computes, c.Stats())
			}
		}},
		{"shared-counters", func(t *testing.T) {
			var ctrs Counters
			old := New[int](8, &ctrs)
			old.Do(bg, "k", constant(1))
			old.Do(bg, "k", constant(1))
			fresh := New[int](8, &ctrs)
			fresh.Do(bg, "k", constant(1))
			if st := fresh.Stats(); st.Hits != 1 || st.Misses != 2 || st.Entries != 1 {
				t.Fatalf("%+v, want the old cache's counts carried and only the fresh residency", st)
			}
		}},
	} {
		t.Run(tc.name, tc.run)
	}
}
