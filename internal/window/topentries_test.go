package window

import (
	"sort"
	"testing"

	"wrs/internal/stream"
)

// refTopEntries is the sort-everything reference for TopEntries: a full
// sort by key descending with item-ID tie-break, truncated to s.
func refTopEntries(entries []Entry, s int) []Entry {
	out := append([]Entry(nil), entries...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key != out[j].Key {
			return out[i].Key > out[j].Key
		}
		return out[i].Item.ID < out[j].Item.ID
	})
	if len(out) > s {
		out = out[:s]
	}
	return out
}

// checkTopEntries runs TopEntries on a copy of in and compares it with
// the reference element for element. It also checks that the selection
// worked in place and left the slice a permutation of its input.
func checkTopEntries(t *testing.T, in []Entry, s int) {
	t.Helper()
	want := refTopEntries(in, s)
	work := append([]Entry(nil), in...)
	got := TopEntries(work, s)
	if len(got) != len(want) {
		t.Fatalf("s=%d n=%d: %d entries, reference %d", s, len(in), len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("s=%d n=%d: entry %d = %+v, reference %+v", s, len(in), i, got[i], want[i])
		}
	}
	if len(got) > 0 && &got[0] != &work[0] {
		t.Fatalf("s=%d n=%d: result is not a prefix of the input slice", s, len(in))
	}
	byID := func(es []Entry) {
		sort.Slice(es, func(i, j int) bool { return es[i].Item.ID < es[j].Item.ID })
	}
	orig := append([]Entry(nil), in...)
	byID(orig)
	byID(work)
	for i := range orig {
		if orig[i] != work[i] {
			t.Fatalf("s=%d n=%d: slice is no longer a permutation of the input", s, len(in))
		}
	}
}

func mkEntries(keys []float64, ids []uint64) []Entry {
	out := make([]Entry, len(keys))
	for i, k := range keys {
		out[i] = Entry{Pos: i, Key: k, Item: stream.Item{ID: ids[i], Weight: float64(i + 1)}}
	}
	return out
}

func seqIDs(n int) []uint64 {
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(n - i) // descending, so ties must reorder
	}
	return ids
}

func TestTopEntriesMatchesSortReference(t *testing.T) {
	ties := []float64{5, 3, 3, 3, 9, 3, 1, 3, 7, 3}
	cases := []struct {
		name string
		in   []Entry
		s    []int
	}{
		{"empty", nil, []int{1, 4}},
		{"single", mkEntries([]float64{2}, []uint64{7}), []int{1, 3}},
		{"s>=len", mkEntries([]float64{4, 1, 8, 2}, []uint64{1, 2, 3, 4}), []int{4, 5, 64}},
		{"s==1", mkEntries([]float64{4, 1, 8, 2, 8}, []uint64{9, 2, 5, 4, 3}), []int{1}},
		// Key 3 straddles the s-th position for s in 2..7: which of the
		// tied entries survive is fixed by the ID tie-break alone.
		{"ties at s-th", mkEntries(ties, seqIDs(len(ties))), []int{1, 2, 3, 4, 5, 6, 7, 9, 10}},
		{"all equal keys", mkEntries([]float64{1, 1, 1, 1, 1, 1}, []uint64{40, 3, 17, 8, 22, 1}), []int{1, 3, 5, 6}},
		{"ascending", mkEntries([]float64{1, 2, 3, 4, 5, 6, 7, 8}, []uint64{1, 2, 3, 4, 5, 6, 7, 8}), []int{1, 3, 7}},
		{"descending", mkEntries([]float64{8, 7, 6, 5, 4, 3, 2, 1}, []uint64{1, 2, 3, 4, 5, 6, 7, 8}), []int{1, 3, 7}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, s := range c.s {
				checkTopEntries(t, c.in, s)
			}
		})
	}
	if got := TopEntries(mkEntries([]float64{1, 2}, []uint64{1, 2}), 0); len(got) != 0 {
		t.Errorf("s=0: %d entries, want none", len(got))
	}
}

// FuzzTopEntries compares the bounded selection with the sort-everything
// reference. Each input byte becomes one entry; a set high bit draws the
// key from eight values so ties are common, including at the s-th
// position. Item IDs are distinct, as they are for stream positions, so
// the order is total and the expected prefix unique.
func FuzzTopEntries(f *testing.F) {
	f.Add(uint8(3), uint64(0), []byte{0x85, 0x83, 0x83, 0x83, 0x89, 0x83, 0x81})
	f.Add(uint8(1), uint64(5), []byte{10, 20, 30, 40, 50})
	f.Add(uint8(64), uint64(9), []byte{1, 2, 3})
	f.Add(uint8(4), uint64(77), []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80})
	f.Add(uint8(2), uint64(1), []byte{})
	f.Fuzz(func(t *testing.T, s uint8, seed uint64, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		in := make([]Entry, len(data))
		for i, b := range data {
			key := float64(b) / 7
			if b&0x80 != 0 {
				key = float64(b & 7)
			}
			in[i] = Entry{Pos: i, Key: key, Item: stream.Item{ID: uint64(i) ^ seed, Weight: 1}}
		}
		checkTopEntries(t, in, int(s%80)+1)
	})
}
