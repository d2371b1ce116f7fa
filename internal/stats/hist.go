// Package stats provides the measurement substrate: exact latency
// histograms with percentile/CDF queries, binned time series for the
// paper's Fig-2/7/9-style traces, and small summary helpers.
package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"nmapsim/internal/sim"
)

// Hist collects latency samples (nanoseconds) and answers percentile and
// CDF queries. It runs in one of two modes, fixed at construction:
//
//   - Exact (NewHist): samples are kept verbatim in a slice preallocated
//     from the capacity hint, so recording is a single append — O(1),
//     allocation-free once the hint covers the run — and every query is
//     exact. Sorting happens lazily on the first query and is memoized:
//     a Summarize (five quantiles plus Max) pays for one sort, and
//     repeated queries on an unchanged histogram are pure index math.
//     Min, max and the running sum are tracked incrementally at Add time,
//     so Max() never forces a sort.
//
//   - Streaming (NewStreamingHist): samples land in a fixed 16K-bucket
//     log-linear histogram (HdrHistogram-style: 1ns-exact below 1µs, 512
//     sub-buckets per power of two above). Add is pure integer math —
//     O(1), zero allocation, zero growth — and the footprint is a flat
//     64KB no matter how many samples arrive, which is what a
//     million-request sweep cell wants. Quantiles report the midpoint of
//     a ≤2⁻⁹-wide bucket: relative error ≤0.2% worst case, ~0.1%
//     typical. Count, sum (hence Mean), min and max stay exact.
//
// The exact mode is the default everywhere and is byte-identical to the
// pre-streaming recorder; streaming is opt-in for sweeps that don't need
// exact bytes (see server.Config.StreamingHist). Both modes survive a
// checkpoint-journal round trip through MarshalJSON/UnmarshalJSON with
// full fidelity for their mode: a resumed sweep computes identical
// results from the journal whichever recorder produced it.
type Hist struct {
	samples []int64 // exact mode; nil in streaming mode
	counts  []uint32
	n       uint64
	sorted  bool
	sum     float64
	min     int64 // valid when n > 0
	max     int64
}

// Streaming-mode geometry: values below 2^subBits count in 1ns-wide
// buckets (exact); each power-of-two range above is split into
// 2^(subBits-1) sub-buckets, so a bucket is never wider than 2^(1-subBits)
// of the values in it. 30 log segments cover 1ns..2^40ns (~18 minutes);
// anything larger clamps into the last bucket (Max stays exact).
const (
	streamSubBits  = 10
	streamSegments = 30
	streamBuckets  = 1<<streamSubBits + streamSegments<<(streamSubBits-1) // 16384
	// StreamRelError is the documented worst-case relative error of a
	// streaming-mode quantile: half a bucket width around the reported
	// midpoint, 2^-10 ≈ 0.098%, which rounds up to ≤0.1% for values on a
	// bucket edge below 2^40ns. (The full-bucket bound is 2^-9 ≈ 0.2%;
	// midpoint reporting halves it.)
	StreamRelError = 1.0 / (1 << (streamSubBits - 1)) // full bucket width: 0.195%
)

// NewHist returns an empty exact-mode histogram with the given capacity
// hint. Size the hint from the run horizon (expected samples over the
// measured window) so steady-state recording never grows the slice.
func NewHist(capacity int) *Hist {
	if capacity < 0 {
		capacity = 0
	}
	return &Hist{samples: make([]int64, 0, capacity)}
}

// NewStreamingHist returns an empty streaming-mode histogram: fixed
// 64KB footprint, O(1) zero-allocation Add, quantiles within
// StreamRelError.
func NewStreamingHist() *Hist {
	return &Hist{counts: make([]uint32, streamBuckets)}
}

// Streaming reports whether the histogram is a bounded streaming-quantile
// recorder rather than an exact one.
func (h *Hist) Streaming() bool { return h.counts != nil }

// streamBucketOf maps a non-negative value to its bucket index.
func streamBucketOf(v int64) int {
	if v < 1<<streamSubBits {
		return int(v)
	}
	e := bits.Len64(uint64(v)) - streamSubBits // ≥ 1
	if e > streamSegments {
		e = streamSegments
		return streamBuckets - 1
	}
	// v>>e lies in [2^(subBits-1), 2^subBits); segment e starts at
	// 2^subBits + (e-1)·2^(subBits-1).
	return 1<<streamSubBits + (e-1)<<(streamSubBits-1) + int(v>>uint(e)) - 1<<(streamSubBits-1)
}

// streamBucketBounds returns the [lo, hi) value range of bucket idx.
func streamBucketBounds(idx int) (lo, hi int64) {
	if idx < 1<<streamSubBits {
		return int64(idx), int64(idx) + 1
	}
	seg := (idx-1<<streamSubBits)>>(streamSubBits-1) + 1
	off := int64(idx - 1<<streamSubBits - (seg-1)<<(streamSubBits-1))
	lo = (1<<(streamSubBits-1) + off) << uint(seg)
	return lo, lo + 1<<uint(seg)
}

// Add records one latency sample. O(1) in both modes; in exact mode the
// running sum is accumulated in arrival order (so Mean is bit-identical
// to the pre-streaming recorder), and min/max are tracked incrementally
// so no query ever sorts just to find an extreme.
func (h *Hist) Add(d sim.Duration) {
	v := int64(d)
	if h.n == 0 {
		h.min, h.max = v, v
	} else if v < h.min {
		h.min = v
	} else if v > h.max {
		h.max = v
	}
	h.n++
	h.sum += float64(v)
	if h.counts != nil {
		c := v
		if c < 0 {
			c = 0
		}
		h.counts[streamBucketOf(c)]++
		return
	}
	h.samples = append(h.samples, v)
	h.sorted = false
}

// N returns the number of samples.
func (h *Hist) N() int { return int(h.n) }

// histJSON is the streaming-mode wire form: the non-zero buckets as
// (index, count) pairs plus the exact scalars. The exact mode keeps the
// seed's raw-sample-array encoding, so existing journals stay readable.
type histJSON struct {
	Stream bool    `json:"stream"`
	N      uint64  `json:"n"`
	Sum    float64 `json:"sum"`
	Min    int64   `json:"min"`
	Max    int64   `json:"max"`
	// Counts is a flat [idx, count, idx, count, ...] sparse encoding.
	Counts []uint64 `json:"counts"`
}

// MarshalJSON encodes the histogram so it survives a checkpoint-journal
// round trip with full fidelity for its mode: the exact mode writes the
// raw sample array (exact percentiles, not a lossy digest), the
// streaming mode writes its bucket counts and exact scalars.
func (h *Hist) MarshalJSON() ([]byte, error) {
	if h.counts == nil {
		return json.Marshal(h.samples)
	}
	j := histJSON{Stream: true, N: h.n, Sum: h.sum, Min: h.min, Max: h.max}
	for i, c := range h.counts {
		if c != 0 {
			j.Counts = append(j.Counts, uint64(i), uint64(c))
		}
	}
	return json.Marshal(j)
}

// UnmarshalJSON restores a histogram written by MarshalJSON, detecting
// the mode from the wire form ('[' = exact raw samples, '{' =
// streaming buckets). The exact mode rebuilds its running sum by
// accumulating in stored sample order, so any journal decodes to the
// same histogram byte for byte — every resumed run computes identical
// percentiles and means from identical state.
func (h *Hist) UnmarshalJSON(b []byte) error {
	for _, c := range b {
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			continue
		}
		if c == '{' {
			var j histJSON
			if err := json.Unmarshal(b, &j); err != nil {
				return err
			}
			if !j.Stream {
				return fmt.Errorf("stats: histogram object without stream marker")
			}
			h.samples = nil
			h.counts = make([]uint32, streamBuckets)
			for i := 0; i+1 < len(j.Counts); i += 2 {
				idx := j.Counts[i]
				if idx < streamBuckets {
					h.counts[idx] = uint32(j.Counts[i+1])
				}
			}
			h.n, h.sum, h.min, h.max = j.N, j.Sum, j.Min, j.Max
			h.sorted = false
			return nil
		}
		break
	}
	h.samples = h.samples[:0]
	if err := json.Unmarshal(b, &h.samples); err != nil {
		return err
	}
	h.counts = nil
	h.sorted = false
	h.sum = 0
	h.n = uint64(len(h.samples))
	for i, v := range h.samples {
		h.sum += float64(v)
		if i == 0 {
			h.min, h.max = v, v
		} else if v < h.min {
			h.min = v
		} else if v > h.max {
			h.max = v
		}
	}
	return nil
}

// Mean returns the mean latency (exact in both modes).
func (h *Hist) Mean() sim.Duration {
	if h.n == 0 {
		return 0
	}
	return sim.Duration(h.sum / float64(h.n))
}

// sortSamples lazily sorts the exact-mode sample slice. slices.Sort
// specializes the comparison to int64 (no interface closure per
// element, unlike sort.Slice) and the result is memoized, so a
// Summarize — five quantiles plus Max — pays for at most one sort and
// every later query on an unchanged histogram is pure index math.
func (h *Hist) sortSamples() {
	if !h.sorted {
		slices.Sort(h.samples)
		h.sorted = true
	}
}

// rankIndex is the nearest-rank percentile index for q in (0,1) over n
// samples — the definition used by SLO monitoring.
func rankIndex(q float64, n int) int {
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	return idx
}

// streamValueAtRank walks the bucket counts to the 1-based rank and
// returns the bucket midpoint, clamped to the exact observed [min, max].
func (h *Hist) streamValueAtRank(rank uint64) sim.Duration {
	var cum uint64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		cum += uint64(c)
		if cum >= rank {
			lo, hi := streamBucketBounds(i)
			v := lo + (hi-lo)/2
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return sim.Duration(v)
		}
	}
	return sim.Duration(h.max)
}

// P returns the q-quantile (q in [0,1]), e.g. P(0.99) is the P99 latency.
// It returns 0 for an empty histogram. Exact mode is exact; streaming
// mode is within StreamRelError.
func (h *Hist) P(q float64) sim.Duration {
	if h.n == 0 {
		return 0
	}
	if q <= 0 {
		return sim.Duration(h.min)
	}
	if q >= 1 {
		return sim.Duration(h.max)
	}
	if h.counts != nil {
		rank := uint64(math.Ceil(q * float64(h.n)))
		if rank < 1 {
			rank = 1
		}
		return h.streamValueAtRank(rank)
	}
	h.sortSamples()
	return sim.Duration(h.samples[rankIndex(q, len(h.samples))])
}

// FracLE returns the fraction of samples <= d (the CDF at d). Exact mode
// is exact; streaming mode is within one bucket.
func (h *Hist) FracLE(d sim.Duration) float64 {
	if h.n == 0 {
		return 0
	}
	if h.counts != nil {
		v := int64(d)
		if v < 0 {
			return 0
		}
		b := streamBucketOf(v)
		var cum uint64
		for i := 0; i <= b; i++ {
			cum += uint64(h.counts[i])
		}
		return float64(cum) / float64(h.n)
	}
	h.sortSamples()
	idx := sort.Search(len(h.samples), func(i int) bool { return h.samples[i] > int64(d) })
	return float64(idx) / float64(len(h.samples))
}

// Min returns the smallest sample (exact in both modes).
func (h *Hist) Min() sim.Duration {
	if h.n == 0 {
		return 0
	}
	return sim.Duration(h.min)
}

// Max returns the largest sample (exact in both modes; never sorts).
func (h *Hist) Max() sim.Duration {
	if h.n == 0 {
		return 0
	}
	return sim.Duration(h.max)
}

// CDFPoint is one point of a rendered CDF.
type CDFPoint struct {
	Lat  sim.Duration
	Frac float64
}

// CDF renders the distribution as n evenly spaced quantile points,
// suitable for plotting Fig 4 / Fig 11. All n points come from a single
// sorted (or single cumulative, in streaming mode) pass: the per-point
// cost is pure index math, not a fresh percentile query re-checking sort
// state each time.
func (h *Hist) CDF(n int) []CDFPoint {
	if h.n == 0 || n < 2 {
		return nil
	}
	pts := make([]CDFPoint, 0, n)
	if h.counts != nil {
		// One forward walk over the buckets: quantile ranks arrive in
		// increasing order, so the cumulative scan never restarts.
		var cum uint64
		idx := 0
		lastRank := uint64(0)
		val := sim.Duration(h.min)
		for i := 0; i < n; i++ {
			q := float64(i) / float64(n-1)
			var rank uint64
			switch {
			case i == 0:
				rank = 1
			case i == n-1:
				rank = h.n
			default:
				rank = uint64(math.Ceil(q * float64(h.n)))
				if rank < 1 {
					rank = 1
				}
			}
			if rank > lastRank {
				for idx < len(h.counts) && cum < rank {
					cum += uint64(h.counts[idx])
					idx++
				}
				lo, hi := streamBucketBounds(idx - 1)
				v := lo + (hi-lo)/2
				if v < h.min {
					v = h.min
				}
				if v > h.max {
					v = h.max
				}
				val = sim.Duration(v)
				lastRank = rank
			}
			if i == 0 {
				pts = append(pts, CDFPoint{Lat: sim.Duration(h.min), Frac: 0})
				continue
			}
			if i == n-1 {
				val = sim.Duration(h.max)
			}
			pts = append(pts, CDFPoint{Lat: val, Frac: q})
		}
		return pts
	}
	h.sortSamples()
	ns := len(h.samples)
	for i := 0; i < n; i++ {
		q := float64(i) / float64(n-1)
		var v int64
		switch {
		case i == 0:
			v = h.samples[0]
		case i == n-1:
			v = h.samples[ns-1]
		default:
			v = h.samples[rankIndex(q, ns)]
		}
		pts = append(pts, CDFPoint{Lat: sim.Duration(v), Frac: q})
	}
	return pts
}

// Summary is a compact latency digest.
type Summary struct {
	N                              int
	Mean, P50, P95, P99, P999, Max sim.Duration
}

// Summarize computes the standard digest. Exact mode sorts at most once
// (memoized across later calls); streaming mode walks its buckets once
// per quantile.
func (h *Hist) Summarize() Summary {
	return Summary{
		N:    h.N(),
		Mean: h.Mean(),
		P50:  h.P(0.50),
		P95:  h.P(0.95),
		P99:  h.P(0.99),
		P999: h.P(0.999),
		Max:  h.Max(),
	}
}

// String renders the digest in microseconds.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.1fµs p50=%.1fµs p95=%.1fµs p99=%.1fµs p99.9=%.1fµs max=%.1fµs",
		s.N, s.Mean.Micros(), s.P50.Micros(), s.P95.Micros(), s.P99.Micros(), s.P999.Micros(), s.Max.Micros())
}
