package entity

import (
	"runtime"
	"testing"

	"repro/internal/gen"
)

// heapNow reports the live heap after two forced collections (the second
// frees what the first one's sweep left behind).
func heapNow() (bytes, objects uint64) {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc, ms.HeapObjects
}

// TestGraphFootprint: a built graph is a fixed number of columns plus its
// stored components, whatever the number of entities and edges — at 8 000
// references (8 003 entities, 40 024 edges, 3 stored components) under
// 2.2 MiB, where one heap object per entity, edge and component took 6.7 MiB
// in 100 000 objects.
func TestGraphFootprint(t *testing.T) {
	d, err := gen.Synthetic(gen.SynthOptions{Refs: 8000, Seed: 1})
	if err != nil {
		t.Fatalf("Synthetic: %v", err)
	}
	b0, o0 := heapNow()
	g, err := Build(d, BuildOptions{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	b1, o1 := heapNow()
	bytes, objects := int64(b1)-int64(b0), int64(o1)-int64(o0)
	t.Logf("retained %d bytes (%.2f MiB, Bytes() says %d) in %d objects; %d entities, %d edges, %d of %d components stored",
		bytes, float64(bytes)/(1<<20), g.Bytes(), objects, g.NumNodes(), g.NumEdges(), len(g.multi), g.NumComponents())
	if bytes > 22<<20/10 {
		t.Errorf("retained %d bytes, want at most 2.2 MiB", bytes)
	}
	// The Graph, its 16 columns and the stored components' table, then a
	// Component with its members and configurations per stored component.
	if limit := int64(24 + 3*len(g.multi)); objects > limit {
		t.Errorf("retained %d heap objects, want at most %d", objects, limit)
	}
	if slack := bytes - g.Bytes(); slack < 0 || slack > bytes/20 {
		t.Errorf("Bytes() = %d, the heap says %d", g.Bytes(), bytes)
	}
	runtime.KeepAlive(d)
}
