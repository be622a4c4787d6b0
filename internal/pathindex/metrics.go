package pathindex

// IndexMetrics is a point-in-time snapshot of the read path's counters,
// exported by the server as the peg_index_* metrics family.
type IndexMetrics struct {
	// MappedBytes is the size of the mmap'd packed.idx region.
	MappedBytes int64
	// Probes counts Scan calls (Lookup included) answered since open.
	Probes uint64
}

// MetricsSource is implemented by index readers that can report read-path
// metrics: *Index and live.View (which forwards to its base).
type MetricsSource interface {
	IndexMetrics() IndexMetrics
	// SetPostingObserver installs fn to receive the wall-clock microseconds
	// of each posting-blob scan (α ≥ β only; on-demand enumeration reads no
	// postings). Decode is streamed, so the time includes what the scan's
	// callback does per record — for a query, the context tests. fn must be
	// cheap and safe for concurrent calls; nil uninstalls.
	SetPostingObserver(fn func(micros float64))
}

// IndexMetrics implements MetricsSource.
func (ix *Index) IndexMetrics() IndexMetrics {
	m := IndexMetrics{Probes: ix.probes.Load()}
	if ix.packed != nil {
		m.MappedBytes = ix.packed.MappedBytes()
	}
	return m
}

// SetPostingObserver implements MetricsSource.
func (ix *Index) SetPostingObserver(fn func(micros float64)) {
	if fn == nil {
		ix.obs.Store(nil)
		return
	}
	ix.obs.Store(&fn)
}
