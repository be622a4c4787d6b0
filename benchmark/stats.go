package main

import (
	"math"
	"sort"

	"repro/internal/join"
)

// quantile returns the p-quantile (0 ≤ p ≤ 1) of an ascending slice by
// linear interpolation between the two nearest ranks.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := p * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// tailSamples is how many samples must lie beyond a reported percentile
// for it to be more than a handful of outliers.
const tailSamples = 10

// supportedPercentile lowers want to the highest percentile that still has
// tailSamples samples beyond it (never below the median): with 120 samples
// a "p99" is really p91.7, and reporting it as p99 would be reporting the
// maximum.
func supportedPercentile(n int, want float64) float64 {
	if n <= 0 {
		return 0.5
	}
	p := math.Min(want, 1-float64(tailSamples)/float64(n))
	return math.Max(p, 0.5)
}

// tail returns the want-percentile of xs, lowered to what the sample count
// supports, together with the percentile actually reported.
func tail(xs []float64, want float64) (value, reported float64) {
	reported = supportedPercentile(len(xs), want)
	return quantile(sortedCopy(xs), reported), reported
}

// fingerprint is a running 64-bit FNV-1a hash; value() folds it to 48 bits
// so it survives a round trip through a JSON number (float64) unchanged.
type fingerprint uint64

func newFingerprint() fingerprint { return 14695981039346656037 }

func (f *fingerprint) bytes(b []byte) {
	h := uint64(*f)
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211
	}
	*f = fingerprint(h)
}

func (f *fingerprint) str(s string) { f.bytes([]byte(s)); f.u64(uint64(len(s))) }

func (f *fingerprint) u64(v uint64) {
	var b [8]byte
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
	f.bytes(b[:])
}

func (f fingerprint) value() float64 { return float64((uint64(f) ^ uint64(f)>>48) & (1<<48 - 1)) }

// mix64 is the splitmix64 finalizer: a cheap bijective scrambler.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// matchHash hashes one match: its mapping and the exact bits of both
// probability components.
func matchHash(m join.Match) uint64 {
	h := uint64(len(m.Mapping))
	for _, v := range m.Mapping {
		h = mix64(h ^ uint64(uint32(v)))
	}
	h = mix64(h ^ math.Float64bits(m.Prle))
	return mix64(h ^ math.Float64bits(m.Prn))
}

// resultHash fingerprints a match set independent of its order (a sum of
// per-match hashes), so a sorted collect and an emission-order stream of
// the same set agree, and a repeat can be re-checked in one cheap pass.
func resultHash(ms []join.Match) uint64 {
	h := mix64(uint64(len(ms)))
	for _, m := range ms {
		h += matchHash(m)
	}
	return h
}
