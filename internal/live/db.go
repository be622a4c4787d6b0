package live

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/entity"
	"repro/internal/pathindex"
	"repro/internal/prob"
	"repro/internal/refgraph"
	"repro/internal/storage"
)

// ErrClosed reports an operation on a closed database — retryable only by
// reopening; the server maps it to 503.
var ErrClosed = errors.New("live: database closed")

// ErrInvalidMutation marks a batch rejected because of the mutations
// themselves (unknown reference, bad probability, linkage chain exceeding
// the component budget, …) — the client's fault, mapped to 400. Errors not
// wrapping it (WAL I/O, build failures) are server-side and retryable.
var ErrInvalidMutation = errors.New("live: invalid mutation")

// Publisher receives freshly published views. The server implements it:
// Publish swaps the served index atomically (and invalidates the result
// cache by index identity); DrainObsolete blocks until every request that
// pinned a previously published reader has finished, after which the
// compactor may close the retired base index.
type Publisher interface {
	Publish(r pathindex.Reader)
	DrainObsolete()
}

// Options configures a live database.
type Options struct {
	// Index parameterizes base index builds (MaxLen, Beta, Gamma, Workers;
	// Dir is managed per generation by the DB).
	Index pathindex.Options
	// Build parameterizes entity graph construction.
	Build entity.BuildOptions
	// CompactEvery triggers a background compaction after this many
	// mutations on top of the current base (0 = 512, negative disables).
	CompactEvery int
	// CompactDirtyFrac triggers a background compaction once this fraction
	// of entities is dirty (0 = 0.25, negative disables).
	CompactDirtyFrac float64
	// Publisher, when set, receives every published view.
	Publisher Publisher
	// Logf, when set, receives compaction progress and failure lines.
	Logf func(format string, args ...any)
}

func (o *Options) normalize() {
	if o.CompactEvery == 0 {
		o.CompactEvery = 512
	}
	if o.CompactDirtyFrac == 0 {
		o.CompactDirtyFrac = 0.25
	}
}

// ApplyResult summarizes one accepted mutation batch.
type ApplyResult struct {
	// Applied is the number of mutations in the batch.
	Applied int `json:"applied"`
	// Refs lists the reference ids assigned to the batch's add-ref
	// mutations, in order.
	Refs []refgraph.RefID `json:"refs,omitempty"`
	// Sets lists the set ids created or updated by the batch's set-linkage
	// mutations, in order.
	Sets []refgraph.SetID `json:"sets,omitempty"`
	// Generation is the base generation the published view rides on.
	Generation uint64 `json:"generation"`
	// Mutations counts all mutations since that generation was built.
	Mutations uint64 `json:"mutations"`
	// DirtyEntities is the size of the published view's dirty set.
	DirtyEntities int `json:"dirty_entities"`
	// Compacting reports that a background compaction is running.
	Compacting bool `json:"compacting"`
}

// Status is a point-in-time summary of the database. All fields are
// captured under one lock, so they are mutually consistent: Generation and
// Mutations describe the same view that Compacting/Compactions were read
// with.
type Status struct {
	Generation    uint64 `json:"generation"`
	Mutations     uint64 `json:"mutations"`
	DirtyEntities int    `json:"dirty_entities"`
	Entities      int    `json:"entities"`
	Compacting    bool   `json:"compacting"`
	Compactions   uint64 `json:"compactions"`
	// LastApplyNanos is the wall clock of the most recent accepted batch,
	// validation to published view (WAL append included, time queued behind
	// other writers excluded); zero before the first one.
	LastApplyNanos int64 `json:"last_apply_ns,omitempty"`
	// LastCompactionNanos is the wall clock of the most recent successful
	// compaction (snapshot → fresh generation installed); zero before the
	// first one. TotalCompactionNanos accumulates across all of them.
	LastCompactionNanos  int64 `json:"last_compaction_ns,omitempty"`
	TotalCompactionNanos int64 `json:"total_compaction_ns,omitempty"`
}

// DB is a live, writable probabilistic entity graph database: a mutable PGD
// plus serving state, with single-writer mutation batches (Apply) and
// wait-free concurrent reads (View). See the package comment for the layer
// map.
type DB struct {
	dir string
	fs  storage.FS
	opt Options

	view atomic.Pointer[View]

	lock *os.File // exclusive directory lock, held until Close

	mu          sync.Mutex
	pgd         *refgraph.PGD
	baseIx      *pathindex.Index
	gen         uint64
	wal         *wal
	muts        uint64 // mutations since the current base generation
	closed      bool
	compacting  bool
	compactions uint64
	// Wall clock of the most recent accepted batch and of the most recent /
	// all successful compactions, for the serving tier's metrics export.
	lastApplyNanos    int64
	lastCompactNanos  int64
	totalCompactNanos int64
	// Mutations applied while a compaction snapshot is building, replayed
	// onto the fresh base at install time.
	sinceSnapMuts  []Mutation
	sinceSnapDelta entity.Delta
	// Retired base indexes that may still be pinned by in-flight queries
	// (no Publisher to drain them); closed on Close.
	obsolete []*pathindex.Index

	wg sync.WaitGroup // background compactions
}

const manifestName = "MANIFEST.json"

type manifest struct {
	Generation uint64 `json:"generation"`
}

func (db *DB) genDir(gen uint64) string {
	return filepath.Join(db.dir, fmt.Sprintf("gen-%06d", gen))
}

func (db *DB) walPath(gen uint64) string {
	return filepath.Join(db.dir, fmt.Sprintf("wal-%06d.log", gen))
}

const snapName = "pgd.snap"

// lockDir takes an exclusive advisory lock on the database directory so two
// processes cannot interleave appends into one WAL (which would corrupt it
// past CRC recovery). Released by closing the returned file.
func lockDir(dir string) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, "LOCK"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("live: %w", err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		return nil, fmt.Errorf("live: %s is already served by another process: %w", dir, err)
	}
	return f, nil
}

// writeManifest flips the current-generation pointer through
// storage.WriteFile: a power loss leaves either the old or the new
// manifest, and the WAL acknowledged under the named generation stays
// reachable.
func writeManifest(fs storage.FS, dir string, gen uint64) error {
	return storage.WriteFile(fs, filepath.Join(dir, manifestName), func(w io.Writer) error {
		return json.NewEncoder(w).Encode(manifest{Generation: gen})
	})
}

// Create initializes a live database directory from a PGD: generation 1 is
// built (snapshot + entity graph + path index) and an empty mutation log is
// created. The PGD is cloned; the caller's copy stays independent.
func Create(ctx context.Context, dir string, d *refgraph.PGD, opt Options) (*DB, error) {
	return create(ctx, storage.OS, dir, d, opt)
}

func create(ctx context.Context, fs storage.FS, dir string, d *refgraph.PGD, opt Options) (*DB, error) {
	opt.normalize()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("live: %w", err)
	}
	if _, err := os.Stat(filepath.Join(dir, manifestName)); err == nil {
		return nil, fmt.Errorf("live: %s already holds a database", dir)
	}
	lock, err := lockDir(dir)
	if err != nil {
		return nil, err
	}
	ok := false
	defer func() {
		if !ok {
			lock.Close()
		}
	}()
	db := &DB{dir: dir, fs: fs, opt: opt, gen: 1, lock: lock}
	pgd := d.Clone()
	genDir := db.genDir(1)
	if err := os.MkdirAll(genDir, 0o755); err != nil {
		return nil, fmt.Errorf("live: %w", err)
	}
	if err := storage.WriteFile(fs, filepath.Join(genDir, snapName), pgd.Save); err != nil {
		return nil, fmt.Errorf("live: snapshot: %w", err)
	}
	g, err := entity.Build(pgd, opt.Build)
	if err != nil {
		return nil, err
	}
	ixOpt := opt.Index
	ixOpt.Dir = genDir
	ix, err := pathindex.Build(ctx, g, ixOpt)
	if err != nil {
		return nil, err
	}
	w, err := createWAL(fs, db.walPath(1), nil)
	if err != nil {
		ix.Close()
		return nil, err
	}
	if err := writeManifest(fs, dir, 1); err != nil {
		w.Close()
		ix.Close()
		return nil, fmt.Errorf("live: manifest: %w", err)
	}
	db.pgd, db.baseIx, db.wal = pgd, ix, w
	db.view.Store(newView(ix, g, ix.Context(), nil, 1, 0))
	db.publishLocked()
	ok = true
	return db, nil
}

// Open attaches to an existing live database directory: the current
// generation's snapshot and index are loaded and the mutation log is
// replayed on top (recovering whatever a previous process had acknowledged
// but not yet compacted).
func Open(dir string, opt Options) (*DB, error) {
	opt.normalize()
	// The lock comes before the manifest read: during a process handoff the
	// outgoing server may still flip generations, and a pointer read before
	// the lock is won could name a generation that no longer exists.
	lock, err := lockDir(dir)
	if err != nil {
		return nil, err
	}
	ok := false
	defer func() {
		if !ok {
			lock.Close()
		}
	}()
	mb, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, fmt.Errorf("live: open %s: %w (not a live database? use Create)", dir, err)
	}
	var man manifest
	if err := json.Unmarshal(mb, &man); err != nil {
		return nil, fmt.Errorf("live: corrupt manifest: %w", err)
	}
	db := &DB{dir: dir, fs: storage.OS, opt: opt, gen: man.Generation, lock: lock}
	genDir := db.genDir(man.Generation)
	sf, err := os.Open(filepath.Join(genDir, snapName))
	if err != nil {
		return nil, fmt.Errorf("live: %w", err)
	}
	pgd, err := refgraph.Load(sf)
	sf.Close()
	if err != nil {
		return nil, err
	}
	g, err := entity.Build(pgd, opt.Build)
	if err != nil {
		return nil, err
	}
	ix, err := pathindex.Open(genDir, g)
	if err != nil {
		return nil, err
	}
	// Future generations inherit the database's original index parameters:
	// silently compacting with different flags would change which queries
	// the index can answer without the on-demand fallback.
	if o := opt.Index; (o.MaxLen != 0 && o.MaxLen != ix.MaxLen()) ||
		(o.Beta != 0 && o.Beta != ix.Beta()) || (o.Gamma != 0 && o.Gamma != ix.Gamma()) {
		if opt.Logf != nil {
			opt.Logf("ignoring index parameters L=%d β=%v γ=%v: database was built with L=%d β=%v γ=%v",
				o.MaxLen, o.Beta, o.Gamma, ix.MaxLen(), ix.Beta(), ix.Gamma())
		}
	}
	db.opt.Index.MaxLen, db.opt.Index.Beta, db.opt.Index.Gamma = ix.MaxLen(), ix.Beta(), ix.Gamma()
	w, muts, err := openWAL(db.fs, db.walPath(man.Generation))
	if err != nil {
		ix.Close()
		return nil, err
	}
	db.pgd, db.baseIx, db.wal = pgd, ix, w
	db.view.Store(newView(ix, g, ix.Context(), nil, man.Generation, 0))
	if len(muts) > 0 {
		db.mu.Lock()
		_, aerr := db.applyLocked(muts, false)
		db.mu.Unlock()
		if aerr != nil {
			w.Close()
			ix.Close()
			return nil, fmt.Errorf("live: wal replay: %w", aerr)
		}
	}
	db.publishLocked()
	ok = true
	return db, nil
}

// View returns the current immutable view; it implements pathindex.Reader
// and is internally consistent for as long as the caller holds it. Its
// on-disk base index stays open until the database is closed — except when
// a Publisher is attached: then a compaction closes retired generations as
// soon as the publisher's DrainObsolete returns, so queries must go through
// the publisher's request pinning (the server) rather than a directly held
// View. Without a Publisher, direct Views stay fully usable until Close.
func (db *DB) View() *View { return db.view.Load() }

// SetPublisher installs (or replaces) the publisher after construction —
// the server is usually built around the DB's first view, then registered
// here. The current view is published immediately.
func (db *DB) SetPublisher(p Publisher) {
	db.mu.Lock()
	db.opt.Publisher = p
	db.publishLocked()
	db.mu.Unlock()
}

// Graph returns the current entity graph (shorthand for View().Graph()).
func (db *DB) Graph() *entity.Graph { return db.View().Graph() }

// PGDSnapshot returns an independent copy of the current PGD — the exact
// reference-level state every applied mutation has landed in. Useful for
// offline rebuilds and tests.
func (db *DB) PGDSnapshot() *refgraph.PGD {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.pgd.Clone()
}

// Status reports generation, dirty-set and compaction counters. The view is
// read under db.mu — view installs happen under the same lock — so the
// per-view fields (Generation, Mutations) and the compactor fields
// (Compacting, Compactions) describe one moment: snapshotting the view
// before taking the lock could pair a pre-compaction generation with a
// post-compaction counter in a single report.
func (db *DB) Status() Status {
	db.mu.Lock()
	defer db.mu.Unlock()
	v := db.view.Load()
	return Status{
		Generation:           v.gen,
		Mutations:            v.muts,
		DirtyEntities:        v.DirtyEntities(),
		Entities:             v.g.NumNodes(),
		Compacting:           db.compacting,
		Compactions:          db.compactions,
		LastApplyNanos:       db.lastApplyNanos,
		LastCompactionNanos:  db.lastCompactNanos,
		TotalCompactionNanos: db.totalCompactNanos,
	}
}

// Apply validates and applies one mutation batch atomically: either every
// mutation lands (logged to the WAL, folded into the entity graph and the
// dirty set, and published as a new view) or none does. Apply serializes
// writers; readers are never blocked.
func (db *DB) Apply(ms []Mutation) (ApplyResult, error) {
	if len(ms) == 0 {
		return ApplyResult{}, fmt.Errorf("%w: empty batch", ErrInvalidMutation)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ApplyResult{}, ErrClosed
	}
	res, err := db.applyLocked(ms, true)
	if err != nil {
		return res, err
	}
	db.maybeCompactLocked()
	res.Compacting = db.compacting
	return res, nil
}

// applyLocked is Apply without locking and auto-compaction; logToWAL is
// false during WAL replay (the records are already on disk).
func (db *DB) applyLocked(ms []Mutation, logToWAL bool) (ApplyResult, error) {
	started := time.Now()
	var res ApplyResult
	invalid := func(i int, err error) error {
		return fmt.Errorf("%w %d: %v", ErrInvalidMutation, i, err)
	}
	pendingRefs := 0
	for i := range ms {
		if err := ms[i].validate(db.pgd, pendingRefs); err != nil {
			return res, invalid(i, err)
		}
		if ms[i].Op == OpAddRef {
			pendingRefs++
		}
	}

	// Mutate the PGD in place, collecting an undo log: a failure at any
	// later point (delta application, WAL write) rolls everything back, and
	// unlike a defensive whole-PGD clone the cost is O(batch), not
	// O(database). The PGD is only ever touched under db.mu, so readers
	// never observe the intermediate state.
	d := db.pgd
	refs0, sets0 := d.NumRefs(), d.NumSets()
	type edgeUndo struct {
		k       refgraph.EdgeKey
		e       refgraph.EdgeDist
		present bool
	}
	var edgeUndos []edgeUndo
	edgeSeen := make(map[refgraph.EdgeKey]bool)
	type probUndo struct {
		id refgraph.SetID
		p  float64
	}
	var probUndos []probUndo
	rollback := func() {
		for i := len(probUndos) - 1; i >= 0; i-- {
			d.SetSetProb(probUndos[i].id, probUndos[i].p)
		}
		for i := len(edgeUndos) - 1; i >= 0; i-- {
			d.RestoreEdge(edgeUndos[i].k, edgeUndos[i].e, edgeUndos[i].present)
		}
		d.TruncateSets(sets0)
		d.TruncateRefs(refs0)
	}

	var delta entity.Delta
	newSet := make(map[refgraph.SetID]bool)
	touchedSet := make(map[refgraph.SetID]bool)
	for i := range ms {
		m := &ms[i]
		var err error
		switch m.Op {
		case OpAddRef:
			var dist prob.Dist
			if dist, err = m.dist(d.Alphabet()); err == nil {
				id := d.AddReference(dist)
				delta.NewRefs = append(delta.NewRefs, id)
				res.Refs = append(res.Refs, id)
			}
		case OpAddEdge:
			k := refgraph.MakeEdgeKey(m.A, m.B)
			if !edgeSeen[k] {
				edgeSeen[k] = true
				old, present := d.Edge(m.A, m.B)
				edgeUndos = append(edgeUndos, edgeUndo{k: k, e: old, present: present})
			}
			e := refgraph.EdgeDist{P: m.P}
			if len(m.CPT) > 0 {
				e.CPT = m.CPT
			}
			if err = d.AddEdge(m.A, m.B, e); err == nil {
				delta.Edges = append(delta.Edges, k)
			}
		case OpSetLinkage:
			if sid, ok := d.FindSet(m.Members); ok {
				if !newSet[sid] && !touchedSet[sid] {
					probUndos = append(probUndos, probUndo{id: sid, p: d.Set(sid).P})
					delta.SetProbs = append(delta.SetProbs, sid)
					touchedSet[sid] = true
				}
				if err = d.SetSetProb(sid, m.P); err == nil {
					res.Sets = append(res.Sets, sid)
				}
			} else {
				var sid refgraph.SetID
				if sid, err = d.AddReferenceSet(m.Members, m.P); err == nil {
					delta.NewSets = append(delta.NewSets, sid)
					newSet[sid] = true
					res.Sets = append(res.Sets, sid)
				}
			}
		}
		if err != nil {
			rollback()
			res.Refs, res.Sets = nil, nil
			return res, invalid(i, err)
		}
	}

	cur := db.view.Load()
	ng, dirtyNew, err := entity.ApplyDelta(cur.g, d, delta)
	if err != nil {
		rollback()
		res.Refs, res.Sets = nil, nil
		// The graph delta only fails on what the mutations asked for (e.g.
		// a linkage chain exceeding the identity-component budget).
		return res, fmt.Errorf("%w: %v", ErrInvalidMutation, err)
	}
	if logToWAL {
		if err := db.wal.append(ms); err != nil {
			rollback()
			res.Refs, res.Sets = nil, nil
			return res, err
		}
	}

	// Install: the dirty set grown by this batch's dirty entities, patched
	// context tables.
	ctxTables := cur.ctx.Patch(ng, dirtyNew)
	db.muts += uint64(len(ms))
	view := newView(db.baseIx, ng, ctxTables, unionSorted(cur.dirtyIDs, dirtyNew), db.gen, db.muts)
	db.view.Store(view)
	db.publishLocked()
	if db.compacting {
		db.sinceSnapMuts = append(db.sinceSnapMuts, ms...)
		db.sinceSnapDelta = db.sinceSnapDelta.Merge(delta)
	}
	res.Applied = len(ms)
	res.Generation = db.gen
	res.Mutations = db.muts
	res.DirtyEntities = view.DirtyEntities()
	db.lastApplyNanos = time.Since(started).Nanoseconds()
	return res, nil
}

// publishLocked hands the current view to the publisher, under db.mu so
// publish order matches install order.
func (db *DB) publishLocked() {
	if db.opt.Publisher != nil {
		db.opt.Publisher.Publish(db.view.Load())
	}
}

// maybeCompactLocked starts a background compaction once the mutations or
// the dirty set cross a threshold.
func (db *DB) maybeCompactLocked() {
	if db.compacting || db.closed {
		return
	}
	trigger := db.opt.CompactEvery > 0 && db.muts >= uint64(db.opt.CompactEvery)
	if !trigger && db.opt.CompactDirtyFrac > 0 {
		v := db.view.Load()
		if n := v.g.NumNodes(); n > 0 {
			trigger = float64(v.DirtyEntities()) >= db.opt.CompactDirtyFrac*float64(n) && v.DirtyEntities() > 0
		}
	}
	if !trigger {
		return
	}
	clone, gen := db.startCompactionLocked()
	db.wg.Add(1)
	go func() {
		defer db.wg.Done()
		if err := db.compactFrom(context.Background(), clone, gen); err != nil {
			db.logf("compaction of gen %d failed: %v", gen, err)
		}
	}()
}

// startCompactionLocked snapshots the PGD and reserves the next generation.
func (db *DB) startCompactionLocked() (*refgraph.PGD, uint64) {
	db.compacting = true
	db.sinceSnapMuts = nil
	db.sinceSnapDelta = entity.Delta{}
	return db.pgd.Clone(), db.gen + 1
}

// Compact synchronously folds every mutation into a fresh on-disk
// generation and publishes it. Returns an error if a background compaction
// is already running.
func (db *DB) Compact(ctx context.Context) error {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return ErrClosed
	}
	if db.compacting {
		db.mu.Unlock()
		return errors.New("live: compaction already running")
	}
	if db.wal.broken != nil {
		db.mu.Unlock()
		return db.wal.broken
	}
	clone, gen := db.startCompactionLocked()
	// Registered under db.mu (like the background path) so Close's wg.Wait
	// cannot return — and release the directory lock — while this
	// compaction is still writing generation files.
	db.wg.Add(1)
	db.mu.Unlock()
	defer db.wg.Done()
	return db.compactFrom(ctx, clone, gen)
}

// compactFrom builds generation gen from the snapshot clone (offline, no
// locks held), then atomically installs it: pending mutations applied since
// the snapshot are replayed onto the fresh base through the same delta
// machinery, the WAL is rotated to carry only those, and the manifest flips.
// Queries keep serving the old view throughout and switch atomically.
func (db *DB) compactFrom(ctx context.Context, clone *refgraph.PGD, gen uint64) (err error) {
	started := time.Now()
	genDir := db.genDir(gen)
	defer func() {
		if err != nil {
			db.mu.Lock()
			db.compacting = false
			db.sinceSnapMuts, db.sinceSnapDelta = nil, entity.Delta{}
			db.mu.Unlock()
			if !errors.Is(err, storage.ErrRenamed) {
				os.RemoveAll(genDir)
				db.fs.Remove(db.walPath(gen))
			}
		}
	}()

	db.logf("compacting into generation %d", gen)
	if err = os.MkdirAll(genDir, 0o755); err != nil {
		return fmt.Errorf("live: %w", err)
	}
	if err = storage.WriteFile(db.fs, filepath.Join(genDir, snapName), clone.Save); err != nil {
		return fmt.Errorf("live: snapshot: %w", err)
	}
	g2, err := entity.Build(clone, db.opt.Build)
	if err != nil {
		return err
	}
	ixOpt := db.opt.Index
	ixOpt.Dir = genDir
	ix2, err := pathindex.Build(ctx, g2, ixOpt)
	if err != nil {
		return err
	}

	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		ix2.Close()
		return ErrClosed
	}
	pending := db.sinceSnapMuts
	pendDelta := db.sinceSnapDelta

	newGraph := g2
	ctxTables := ix2.Context()
	var dirtyIDs []entity.ID
	if !pendDelta.Empty() {
		ng, dirtyNew, aerr := entity.ApplyDelta(g2, db.pgd, pendDelta)
		if aerr != nil {
			db.mu.Unlock()
			ix2.Close()
			return aerr
		}
		newGraph = ng
		dirtyIDs = dirtyNew
		ctxTables = ix2.Context().Patch(newGraph, dirtyNew)
	}
	newWAL, werr := createWAL(db.fs, db.walPath(gen), pending)
	if werr != nil {
		db.mu.Unlock()
		ix2.Close()
		return werr
	}
	if merr := writeManifest(db.fs, db.dir, gen); merr != nil {
		merr = fmt.Errorf("live: manifest: %w", merr)
		if errors.Is(merr, storage.ErrRenamed) {
			db.wal.broken = fmt.Errorf("%w; reopen the database", merr)
		}
		db.mu.Unlock()
		newWAL.Close()
		ix2.Close()
		return merr
	}
	oldWAL, oldGenDir, oldBase := db.wal, db.genDir(db.gen), db.baseIx
	db.wal, db.gen, db.baseIx = newWAL, gen, ix2
	db.muts = uint64(len(pending))
	view := newView(ix2, newGraph, ctxTables, dirtyIDs, gen, db.muts)
	db.view.Store(view)
	db.publishLocked()
	db.compacting = false
	db.compactions++
	db.lastCompactNanos = time.Since(started).Nanoseconds()
	db.totalCompactNanos += db.lastCompactNanos
	db.sinceSnapMuts, db.sinceSnapDelta = nil, entity.Delta{}
	pub := db.opt.Publisher
	if pub == nil {
		// Nobody can tell us when in-flight queries on the old base finish;
		// keep it open until Close.
		db.obsolete = append(db.obsolete, oldBase)
	}
	db.mu.Unlock()

	oldWAL.Close()
	db.fs.Remove(oldWAL.path)
	if pub != nil {
		pub.DrainObsolete()
		oldBase.Close()
	}
	os.RemoveAll(oldGenDir)
	db.logf("generation %d live (%d pending mutations carried over)", gen, len(pending))
	return nil
}

// Close flushes the mutation log and releases every on-disk resource. It
// waits for a running background compaction to finish; new Apply calls fail
// immediately.
func (db *DB) Close() error {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return nil
	}
	db.closed = true
	db.mu.Unlock()
	db.wg.Wait()

	db.mu.Lock()
	defer db.mu.Unlock()
	var first error
	if err := db.wal.Close(); err != nil && first == nil {
		first = err
	}
	if err := db.baseIx.Close(); err != nil && first == nil {
		first = err
	}
	for _, ix := range db.obsolete {
		if err := ix.Close(); err != nil && first == nil {
			first = err
		}
	}
	db.obsolete = nil
	if err := db.lock.Close(); err != nil && first == nil {
		first = err
	}
	return first
}

func (db *DB) logf(format string, args ...any) {
	if db.opt.Logf != nil {
		db.opt.Logf(format, args...)
	}
}
