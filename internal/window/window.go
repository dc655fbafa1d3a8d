// Package window implements weighted sampling without replacement over a
// sliding window — the extension the paper poses as future work in its
// conclusion ("extend our algorithm for weighted sampling to the sliding
// window model"). This is the centralized (single-stream) building block:
// a sequence-based window of the most recent `width` items, over which a
// weighted SWOR of size s is maintained at every step.
//
// It uses the same precision-sampling keys as the rest of the library
// (v = w/t, t ~ Exp(1)); the sample for any window is the top-s keys
// among the items in it. The structure retains exactly the items that
// could still enter some future sample: an item can be discarded once s
// *later* items hold larger keys, because every window that contains the
// item also contains all later items (windows are suffixes). The expected
// number of retained items is O(s·log(width/s)) — the classic bound for
// such dominance lists.
//
// The retention logic is factored into Retention, which is generalized
// for external sequence sources (caller-supplied positions, keys, and
// clock advances): the distributed windowed application (internal/core's
// WindowCoordinator) keeps one Retention per site sub-stream, fed from
// sequence-stamped protocol messages.
package window

import (
	"fmt"
	"math"
	"slices"

	"wrs/internal/stream"
	"wrs/internal/xrand"
)

// Entry is a retained item with its key and arrival position within its
// sub-stream.
type Entry struct {
	Pos  int
	Key  float64
	Item stream.Item
}

// TopEntries returns the s best entries, largest key first — ties,
// which have measure zero, break by item ID so every windowed query
// path is a deterministic function of its candidate set. It works in
// place: the returned slice is a sorted prefix of entries, and the
// rest of entries is left in unspecified order. It is the finishing
// step for AppendEntries results, always run outside any ingest lock.
//
// The best s are selected with an in-slice heap whose root is the worst
// entry kept so far (A-Res, Efraimidis 2010), so the cost is
// O(n + n·log s) at worst and most entries cost one comparison against
// the root; only the s survivors are sorted.
func TopEntries(entries []Entry, s int) []Entry {
	if s <= 0 {
		return entries[:0]
	}
	if len(entries) > s {
		top := entries[:s]
		for i := s/2 - 1; i >= 0; i-- {
			siftDown(top, i)
		}
		for i := s; i < len(entries); i++ {
			if ranksBefore(&entries[i], &top[0]) {
				entries[i], top[0] = top[0], entries[i]
				siftDown(top, 0)
			}
		}
		entries = top
	}
	slices.SortFunc(entries, compareEntries)
	return entries
}

// ranksBefore reports whether a precedes b in the sample order: key
// descending, then item ID ascending.
func ranksBefore(a, b *Entry) bool {
	if a.Key != b.Key {
		return a.Key > b.Key
	}
	return a.Item.ID < b.Item.ID
}

func compareEntries(a, b Entry) int {
	switch {
	case ranksBefore(&a, &b):
		return -1
	case ranksBefore(&b, &a):
		return 1
	}
	return 0
}

// siftDown restores the heap below h[i], where every parent ranks no
// earlier than its children, so h[0] is the worst entry in h.
func siftDown(h []Entry, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && ranksBefore(&h[c], &h[c+1]) {
			c++
		}
		if !ranksBefore(&h[i], &h[c]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// Sampler maintains a weighted SWOR of size s over the last `width`
// arrivals of a single stream: it draws a key per arrival from its own
// RNG and feeds the shared Retention structure in arrival order.
type Sampler struct {
	ret *Retention
	rng *xrand.RNG

	// KeyHook, when set, receives every generated key (tests).
	KeyHook func(id uint64, key float64)
}

type entry struct {
	Entry
	dominators int // later items with larger keys (monotone)
}

// New returns a sliding-window sampler with sample size s and window
// width in items.
func New(s, width int, rng *xrand.RNG) (*Sampler, error) {
	ret, err := NewRetention(s, width)
	if err != nil {
		return nil, err
	}
	return &Sampler{ret: ret, rng: rng}, nil
}

// Observe feeds one item; weights must be positive and finite.
func (w *Sampler) Observe(it stream.Item) error {
	if !(it.Weight > 0) || math.IsInf(it.Weight, 0) || math.IsNaN(it.Weight) {
		return fmt.Errorf("window: weight must be positive and finite, got %v", it.Weight)
	}
	key := w.rng.ExpKey(it.Weight)
	if w.KeyHook != nil {
		w.KeyHook(it.ID, key)
	}
	w.ret.Add(w.ret.Count(), key, it)
	return nil
}

// Sample returns the weighted SWOR of the current window: the items with
// the top min(s, window size) keys, largest first.
func (w *Sampler) Sample() []Entry { return w.ret.Sample() }

// Retained returns the number of items currently stored — expected
// O(s·log(width/s)), far below width.
func (w *Sampler) Retained() int { return w.ret.Retained() }

// N returns the number of items observed so far.
func (w *Sampler) N() int { return w.ret.Count() }
