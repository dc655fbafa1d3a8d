// Package snapshotmath is the wrs-lint fixture for the snapshotmath
// analyzer: sorting and query math inside mutex regions and
// locked-view callbacks, violating the locked-snapshot/unlocked-math
// contract (DESIGN.md §10).
package snapshotmath

import (
	"cmp"
	"slices"
	"sort"
	"sync"

	"wrs/internal/core"
	"wrs/internal/window"
)

type shard struct {
	mu   sync.Mutex
	keys []float64
}

// badSortLocked sorts while holding the ingest mutex: a querier
// stalls ingest for the whole O(n log n) pass.
func (s *shard) badSortLocked() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	sort.Float64s(s.keys) // want "sort.Float64s while holding shard.mu"
	return s.keys
}

// badMergeLocked runs top-s selection while holding the mutex.
func (s *shard) badMergeLocked(entries []core.SampleEntry) []core.SampleEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	return core.TopSample(entries, 4) // want "TopSample while holding shard.mu"
}

// badSortFuncLocked uses the generic sort while holding the mutex:
// slices.SortFunc is as much query math as sort.Slice.
func (s *shard) badSortFuncLocked() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	slices.SortFunc(s.keys, func(a, b float64) int { return cmp.Compare(b, a) }) // want "slices.SortFunc while holding shard.mu"
	return s.keys
}

// goodSnapshot is the contract: O(s) copy under the lock, sort
// outside it.
func (s *shard) goodSnapshot() []float64 {
	s.mu.Lock()
	out := append([]float64(nil), s.keys...)
	s.mu.Unlock()
	sort.Float64s(out)
	return out
}

// snaps mimics the runtime's locked-view primitive: the callback runs
// under the shard's ingest lock.
type snaps struct{}

func (snaps) View(i int, f func()) { f() }

// badViewCallback sorts inside the locked-view callback.
func badViewCallback(s snaps, xs []int) {
	s.View(0, func() {
		sort.Ints(xs) // want "sort.Ints inside a View callback"
	})
}

// badTopEntriesInView selects the windowed top s inside the locked-view
// callback instead of after it returns.
func badTopEntriesInView(s snaps, entries []window.Entry) []window.Entry {
	var out []window.Entry
	s.View(0, func() {
		out = window.TopEntries(entries, 4) // want "TopEntries inside a View callback"
	})
	return out
}

// goodViewCallback copies inside the callback and sorts after it
// returns.
func goodViewCallback(s snaps, xs []int) []int {
	var out []int
	s.View(0, func() {
		out = append(out, xs...)
	})
	sort.Ints(out)
	return out
}

// goodNestedLit: a nested literal is a separate goroutine-able value,
// not part of the locked region.
func goodNestedLit(s snaps, xs []int) {
	s.View(0, func() {
		go func() {
			sort.Ints(xs)
		}()
	})
}
