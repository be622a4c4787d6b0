// Manifest catalog: the cluster tier's shard → generation → files map.
//
// The manifest is the shard-level analogue of the live database's
// MANIFEST.json generation pointer, and flips through the same
// storage.WriteFile (tmp file + fsync + rename + directory sync): a shard
// re-publishing a fresh generation atomically replaces its entry, so a
// router reloading the catalog sees either the old or the new generation of
// every shard — never a torn mix.
package shard

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/storage"
)

// ManifestName is the catalog file inside a sharded build directory.
const ManifestName = "MANIFEST.json"

// ManifestVersion is the format version written by this package.
const ManifestVersion = 1

// Manifest catalogs one sharded build: the partition parameters, the global
// id space (the router translates shard-local entity ids back into it), and
// one entry per shard.
type Manifest struct {
	Version int `json:"version"`
	Shards  int `json:"shards"`
	// TotalRefs / TotalSets describe the global PGD's id space: global
	// entity ids are 0..TotalRefs-1 for reference singletons, then
	// TotalRefs+s for reference set s — the layout entity.Build assigns.
	TotalRefs int `json:"total_refs"`
	TotalSets int `json:"total_sets"`
	// Labels is the alphabet in label-id order, so a router can parse and
	// validate queries without loading any shard's PGD.
	Labels  []string `json:"labels"`
	Entries []Entry  `json:"entries"`
}

// Entry is one shard's current generation in the catalog.
type Entry struct {
	Shard int `json:"shard"`
	// Generation is the shard's publication counter; a re-publish must
	// strictly advance it (the generation-flip protocol).
	Generation uint64 `json:"generation"`
	// PGD and IndexDir locate the generation's artifacts, relative to the
	// manifest directory.
	PGD      string `json:"pgd"`
	IndexDir string `json:"index_dir"`
	// Closures counts the linkage closures (identity-component groups,
	// closed under reference edges) assigned to this shard.
	Closures int `json:"closures"`
	// Refs lists the global reference ids owned by this shard, ascending;
	// shard-local reference i is global reference Refs[i]. Sets likewise
	// lists owned global set ids ascending; shard-local set j is global set
	// Sets[j]. Both maps are strictly increasing, so shard-local entity-id
	// order agrees with global order — the property the router's ordered
	// merges rely on.
	Refs []int32 `json:"refs"`
	Sets []int32 `json:"sets"`
}

// LoadManifest reads and validates the catalog in dir.
func LoadManifest(dir string) (*Manifest, error) {
	b, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("shard: manifest %s: %w", dir, err)
	}
	if err := m.validate(); err != nil {
		return nil, fmt.Errorf("shard: manifest %s: %w", dir, err)
	}
	return &m, nil
}

func (m *Manifest) validate() error {
	if m.Version != ManifestVersion {
		return fmt.Errorf("unsupported manifest version %d (want %d)", m.Version, ManifestVersion)
	}
	if m.Shards < 1 || len(m.Entries) != m.Shards {
		return fmt.Errorf("manifest lists %d entries for %d shards", len(m.Entries), m.Shards)
	}
	if len(m.Labels) == 0 {
		return fmt.Errorf("manifest has an empty alphabet")
	}
	// The maps are sized by the lists the input holds, not by the totals it
	// declares: a count nothing backs must not size an allocation (a
	// negative or unbacked total fails the count check at the end).
	var nRefs, nSets int
	for _, e := range m.Entries {
		nRefs += len(e.Refs)
		nSets += len(e.Sets)
	}
	seenRef := make(map[int32]int, nRefs)
	seenSet := make(map[int32]int, nSets)
	for i, e := range m.Entries {
		if e.Shard != i {
			return fmt.Errorf("entry %d names shard %d (entries must be dense and ordered)", i, e.Shard)
		}
		if e.Generation == 0 {
			return fmt.Errorf("shard %d has generation 0 (never published)", i)
		}
		for j, r := range e.Refs {
			if j > 0 && e.Refs[j-1] >= r {
				return fmt.Errorf("shard %d ref list not strictly increasing at %d", i, j)
			}
			if r < 0 || int(r) >= m.TotalRefs {
				return fmt.Errorf("shard %d owns unknown ref %d", i, r)
			}
			if prev, dup := seenRef[r]; dup {
				return fmt.Errorf("ref %d owned by shards %d and %d", r, prev, i)
			}
			seenRef[r] = i
		}
		for j, s := range e.Sets {
			if j > 0 && e.Sets[j-1] >= s {
				return fmt.Errorf("shard %d set list not strictly increasing at %d", i, j)
			}
			if s < 0 || int(s) >= m.TotalSets {
				return fmt.Errorf("shard %d owns unknown set %d", i, s)
			}
			if prev, dup := seenSet[s]; dup {
				return fmt.Errorf("set %d owned by shards %d and %d", s, prev, i)
			}
			seenSet[s] = i
		}
	}
	if len(seenRef) != m.TotalRefs {
		return fmt.Errorf("entries own %d refs, manifest declares %d", len(seenRef), m.TotalRefs)
	}
	if len(seenSet) != m.TotalSets {
		return fmt.Errorf("entries own %d sets, manifest declares %d", len(seenSet), m.TotalSets)
	}
	return nil
}

// writeManifest flips the catalog through storage.WriteFile, so a power
// loss leaves either the previous or the new catalog — never a torn or
// unpersisted one.
func writeManifest(fs storage.FS, dir string, m *Manifest) error {
	if err := m.validate(); err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	return storage.WriteFile(fs, filepath.Join(dir, ManifestName), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(m)
	})
}

// PublishEntry is the shard publication protocol: it reloads the catalog,
// replaces exactly one shard's entry with a strictly newer generation, and
// flips the manifest atomically. A stale publish (generation not advancing)
// or a publish changing the shard's ownership (ref/set lists) is rejected —
// re-partitioning requires a fresh build, not a flip.
func PublishEntry(dir string, e Entry) error {
	return publishEntry(storage.OS, dir, e)
}

func publishEntry(fs storage.FS, dir string, e Entry) error {
	m, err := LoadManifest(dir)
	if err != nil {
		return err
	}
	if e.Shard < 0 || e.Shard >= len(m.Entries) {
		return fmt.Errorf("shard: publish names unknown shard %d", e.Shard)
	}
	cur := &m.Entries[e.Shard]
	if e.Generation <= cur.Generation {
		return fmt.Errorf("shard: publish for shard %d does not advance generation (%d -> %d)",
			e.Shard, cur.Generation, e.Generation)
	}
	if !slices.Equal(e.Refs, cur.Refs) || !slices.Equal(e.Sets, cur.Sets) {
		return fmt.Errorf("shard: publish for shard %d changes its ref/set ownership; re-partition instead", e.Shard)
	}
	*cur = e
	return writeManifest(fs, dir, m)
}

// IDMap translates one shard's local entity ids into the global id space.
// Local layout (entity.Build): references first in Refs order, then sets in
// Sets order. Both lists are strictly increasing and every global reference
// id precedes every global set entity id, so the translation is strictly
// monotone — per-shard orderings survive translation, which is what makes
// the router's ordered merges exact.
type IDMap struct {
	refs      []int32
	sets      []int32
	totalRefs int32
}

// IDMap returns the translator for one shard.
func (m *Manifest) IDMap(shard int) *IDMap {
	e := &m.Entries[shard]
	return &IDMap{refs: e.Refs, sets: e.Sets, totalRefs: int32(m.TotalRefs)}
}

// NumEntities returns how many local entity ids the shard defines.
func (t *IDMap) NumEntities() int { return len(t.refs) + len(t.sets) }

// Global maps a shard-local entity id to its global id.
func (t *IDMap) Global(local uint32) (uint32, bool) {
	if int(local) < len(t.refs) {
		return uint32(t.refs[local]), true
	}
	j := int(local) - len(t.refs)
	if j < len(t.sets) {
		return uint32(t.totalRefs + t.sets[j]), true
	}
	return 0, false
}
