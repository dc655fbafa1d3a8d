package main

import (
	"fmt"

	"wrs"
	"wrs/internal/heavyhitter"
)

// The output checks are limited to properties a correct program cannot
// fail; each failed check counts as one failed operation.

// matches reports whether it is exactly the generated update with its ID.
func (in *inputs) matches(it wrs.Item) error {
	if it.ID >= uint64(in.n()) {
		return fmt.Errorf("item ID %d was never generated", it.ID)
	}
	if in.weights[it.ID] != it.Weight {
		return fmt.Errorf("item %d has weight %v, generated %v", it.ID, it.Weight, in.weights[it.ID])
	}
	return nil
}

// checkSampler: after the final Flush the sample has exactly min(s, n)
// items with strictly descending keys, each a generated update.
func checkSampler(s int) func([]wrs.Sampled, *inputs, bool) error {
	return func(q []wrs.Sampled, in *inputs, final bool) error {
		if final && len(q) != min(s, in.n()) {
			return fmt.Errorf("sample has %d items, want %d", len(q), min(s, in.n()))
		}
		if len(q) > s {
			return fmt.Errorf("sample has %d items, more than s=%d", len(q), s)
		}
		for i, e := range q {
			if err := in.matches(e.Item); err != nil {
				return err
			}
			if i > 0 && !(e.Key < q[i-1].Key) {
				return fmt.Errorf("keys not strictly descending at %d: %v after %v", i, e.Key, q[i-1].Key)
			}
		}
		return nil
	}
}

// checkHH: at most ceil(2/eps) candidates, each a generated update,
// sorted by weight; after the final Flush the heaviest generated item is
// among them.
func checkHH(p heavyhitter.Params) func([]wrs.Item, *inputs, bool) error {
	return func(q []wrs.Item, in *inputs, final bool) error {
		if len(q) > p.OutputSize() {
			return fmt.Errorf("%d candidates, more than ceil(2/eps)=%d", len(q), p.OutputSize())
		}
		heavy := false
		for i, it := range q {
			if err := in.matches(it); err != nil {
				return err
			}
			if i > 0 && it.Weight > q[i-1].Weight {
				return fmt.Errorf("candidates not sorted by weight at %d", i)
			}
			heavy = heavy || it.ID == in.heavy
		}
		if final && !heavy {
			return fmt.Errorf("heaviest generated item %d (weight %v) missing", in.heavy, in.weights[in.heavy])
		}
		return nil
	}
}

// checkWindow: Retained <= Window and every item is a generated update;
// after the final Flush every sampled item lies inside its site's last
// width positions.
func checkWindow(s, width int) func(wrs.WindowSample, *inputs, bool) error {
	return func(q wrs.WindowSample, in *inputs, final bool) error {
		if q.Retained > q.Window {
			return fmt.Errorf("retained %d exceeds window %d", q.Retained, q.Window)
		}
		if len(q.Items) > s {
			return fmt.Errorf("sample has %d items, more than s=%d", len(q.Items), s)
		}
		for _, e := range q.Items {
			if err := in.matches(e.Item); err != nil {
				return err
			}
			site := in.sites[e.Item.ID]
			if final && int(in.sitePos[e.Item.ID]) < in.perSite[site]-width {
				return fmt.Errorf("item %d at site %d position %d is outside the last %d of %d",
					e.Item.ID, site, in.sitePos[e.Item.ID], width, in.perSite[site])
			}
		}
		return nil
	}
}
