package wrs_test

import (
	"testing"

	"wrs"
)

// query_bench_test.go guards the non-blocking query paths' allocation
// behavior: both Sample and Candidates pre-size one snapshot buffer at
// 2·s entries per shard (released sample + withheld pool) and reuse it
// across shards, and the Windowed query grows its buffer by each
// shard's retained-candidate count before copying, so a query costs
// O(shards) small allocations — the closure per DoShard, the buffer
// growth and the sort — never a per-shard growth cascade.

func feedSampler(tb testing.TB, shards int) *wrs.DistributedSampler {
	tb.Helper()
	ds, err := wrs.NewDistributedSampler(4, 16, wrs.WithSeed(2), wrs.WithShards(shards))
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 20000; i++ {
		if err := ds.Observe(i%4, wrs.Item{ID: uint64(i), Weight: float64(1 + i%50)}); err != nil {
			tb.Fatal(err)
		}
	}
	return ds
}

func feedTracker(tb testing.TB, shards int) *wrs.HeavyHitterTracker {
	tb.Helper()
	h, err := wrs.NewHeavyHitterTracker(4, 0.1, 0.1, wrs.WithSeed(3), wrs.WithShards(shards))
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 20000; i++ {
		if err := h.Observe(i%4, wrs.Item{ID: uint64(i), Weight: float64(1 + i%50)}); err != nil {
			tb.Fatal(err)
		}
	}
	return h
}

func feedWindowed(tb testing.TB, shards int) *wrs.Handle[wrs.WindowSample] {
	tb.Helper()
	h, err := wrs.Open(wrs.Windowed(16, 64, 1024), wrs.WithSeed(4), wrs.WithShards(shards))
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { h.Close() })
	for i := 0; i < 100000; i++ {
		if err := h.Observe(i%16, wrs.Item{ID: uint64(i), Weight: float64(1 + i%50)}); err != nil {
			tb.Fatal(err)
		}
	}
	return h
}

func BenchmarkSampleQueryAllocs(b *testing.B) {
	for _, shards := range []int{1, 7} {
		b.Run("shards="+itoa(shards), func(b *testing.B) {
			ds := feedSampler(b, shards)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if len(ds.Sample()) != 16 {
					b.Fatal("bad sample")
				}
			}
		})
	}
}

func BenchmarkCandidatesQueryAllocs(b *testing.B) {
	for _, shards := range []int{1, 7} {
		b.Run("shards="+itoa(shards), func(b *testing.B) {
			h := feedTracker(b, shards)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if len(h.Candidates()) == 0 {
					b.Fatal("no candidates")
				}
			}
		})
	}
}

func BenchmarkWindowedQueryAllocs(b *testing.B) {
	for _, shards := range []int{1, 7} {
		b.Run("shards="+itoa(shards), func(b *testing.B) {
			h := feedWindowed(b, shards)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if len(h.Query().Items) != 64 {
					b.Fatal("bad windowed sample")
				}
			}
		})
	}
}

// TestQueryAllocsBounded is the regression guard behind the benchmarks:
// a pre-sized snapshot buffer keeps every query path at a handful of
// allocations even at 7 shards. A per-shard growth cascade (the bug
// this pins out: Candidates used to start from a nil slice) blows well
// past these bounds.
func TestQueryAllocsBounded(t *testing.T) {
	ds := feedSampler(t, 7)
	h := feedTracker(t, 7)
	if got := testing.AllocsPerRun(50, func() { ds.Sample() }); got > 16 {
		t.Errorf("Sample: %.1f allocs/op at 7 shards, want <= 16", got)
	}
	if got := testing.AllocsPerRun(50, func() { h.Candidates() }); got > 24 {
		t.Errorf("Candidates: %.1f allocs/op at 7 shards, want <= 24", got)
	}
	// Windowed: the closure and one exact-size buffer growth per shard,
	// plus a fixed few. Appending the 16 sub-streams' candidates into an
	// unsized buffer regrows it several times per shard.
	for _, shards := range []int{1, 7} {
		w := feedWindowed(t, shards)
		limit := float64(5 + 2*shards)
		if got := testing.AllocsPerRun(50, func() { w.Query() }); got > limit {
			t.Errorf("Windowed: %.1f allocs/op at %d shards, want <= %.0f", got, shards, limit)
		}
	}
}
