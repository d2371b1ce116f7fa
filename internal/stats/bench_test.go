package stats

import (
	"testing"

	"nmapsim/internal/sim"
)

// The measurement-path benchmarks run at the scale the fleet-size sweeps
// actually record — 1e6 samples per histogram (use -benchtime to push a
// sample set to 1e7) — so a regression that only shows up past the cache
// hierarchy or in slice growth is visible here, not just in a long
// figure run. Allocs are reported on every benchmark; the recording
// paths must stay at 0 allocs/op (pinned by TestHistAddZeroAllocs).

const benchSamples = 1_000_000

func fillExact(n int) *Hist {
	h := NewHist(n)
	r := sim.NewRNG(42)
	for i := 0; i < n; i++ {
		h.Add(sim.Duration(r.Exp(500_000)))
	}
	return h
}

func fillStream(n int) *Hist {
	h := NewStreamingHist()
	r := sim.NewRNG(42)
	for i := 0; i < n; i++ {
		h.Add(sim.Duration(r.Exp(500_000)))
	}
	return h
}

// BenchmarkHistAdd is the per-request recording cost on a preallocated
// exact histogram — the cost every completed request pays once.
func BenchmarkHistAdd(b *testing.B) {
	h := NewHist(benchSamples)
	r := sim.NewRNG(42)
	vals := make([]sim.Duration, 8192)
	for i := range vals {
		vals[i] = sim.Duration(r.Exp(500_000))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if h.N() == benchSamples {
			b.StopTimer()
			h = NewHist(benchSamples)
			b.StartTimer()
		}
		h.Add(vals[i&8191])
	}
}

// BenchmarkStreamHistAdd is the streaming-mode equivalent: pure integer
// bucket math, fixed footprint.
func BenchmarkStreamHistAdd(b *testing.B) {
	h := NewStreamingHist()
	r := sim.NewRNG(42)
	vals := make([]sim.Duration, 8192)
	for i := range vals {
		vals[i] = sim.Duration(r.Exp(500_000))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Add(vals[i&8191])
	}
}

// BenchmarkHistP99Warm queries a histogram whose sort is already
// memoized — the steady-state shape of repeated Summarize/P queries.
func BenchmarkHistP99Warm(b *testing.B) {
	h := fillExact(benchSamples)
	h.P(0.5) // pay the one-time sort outside the loop
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if h.P(0.99) == 0 {
			b.Fatal("empty percentile")
		}
	}
}

// BenchmarkHistP99Cold measures the query path when the memoized sort
// has just been invalidated by an Add — the worst case for a mid-run
// quantile probe. The per-op cost is one (mostly-sorted) sort pass.
func BenchmarkHistP99Cold(b *testing.B) {
	h := fillExact(benchSamples)
	h.P(0.5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Add(sim.Duration(i))
		if h.P(0.99) == 0 {
			b.Fatal("empty percentile")
		}
	}
}

// BenchmarkStreamHistP99 is the streaming-mode quantile query: one
// forward walk over the 16K buckets, no sort ever.
func BenchmarkStreamHistP99(b *testing.B) {
	h := fillStream(benchSamples)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if h.P(0.99) == 0 {
			b.Fatal("empty percentile")
		}
	}
}

// BenchmarkHistSummarize includes the lazy sort amortised over fresh
// histograms, the shape of the per-run Collect cost.
func BenchmarkHistSummarize(b *testing.B) {
	r := sim.NewRNG(42)
	samples := make([]sim.Duration, benchSamples)
	for i := range samples {
		samples[i] = sim.Duration(r.Exp(500_000))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		h := NewHist(len(samples))
		for _, s := range samples {
			h.Add(s)
		}
		b.StartTimer()
		if h.Summarize().N != len(samples) {
			b.Fatal("bad summary")
		}
	}
}

// BenchmarkStreamHistSummarize is the streaming-mode per-run digest:
// five bucket walks, no sort.
func BenchmarkStreamHistSummarize(b *testing.B) {
	r := sim.NewRNG(42)
	samples := make([]sim.Duration, benchSamples)
	for i := range samples {
		samples[i] = sim.Duration(r.Exp(500_000))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		h := NewStreamingHist()
		for _, s := range samples {
			h.Add(s)
		}
		b.StartTimer()
		if h.Summarize().N != len(samples) {
			b.Fatal("bad summary")
		}
	}
}

// BenchmarkHistCDF renders 101 quantile points from one sorted pass —
// the figure-export path fixed by the one-pass CDF.
func BenchmarkHistCDF(b *testing.B) {
	h := fillExact(benchSamples)
	h.P(0.5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(h.CDF(101)) != 101 {
			b.Fatal("bad CDF")
		}
	}
}

// BenchmarkHistPercentile keeps the historical name tracked by
// BENCH_sim.json: the warm single-quantile query.
func BenchmarkHistPercentile(b *testing.B) {
	h := fillExact(100_000)
	h.P(0.5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if h.P(0.99) == 0 {
			b.Fatal("empty percentile")
		}
	}
}
