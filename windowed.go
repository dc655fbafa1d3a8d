package wrs

import (
	"fmt"

	"wrs/internal/core"
	rt "wrs/internal/runtime"
	"wrs/internal/window"
	"wrs/internal/xrand"
)

// WindowSample is the Windowed application's answer: the weighted SWOR
// over the union of sub-stream windows, plus coverage statistics.
type WindowSample struct {
	// Items is the sample — up to s items, largest key first.
	Items []Sampled
	// Observed counts the sub-stream positions the coordinators have
	// accounted for, summed over every site and shard. It can trail the
	// true arrival count while sites' newest items are still buffered
	// locally (which never affects Items: the expiry of any candidate
	// the coordinator holds forces a clock update first).
	Observed int64
	// Window counts the positions currently inside some sub-stream
	// window — the population Items samples from, at most
	// sites × shards × width.
	Window int
	// Retained counts the candidates held across shard coordinators —
	// expected O(s·log(width/s)) per sub-stream, far below Window.
	Retained int
}

// Windowed is the distributed sliding-window application — the fifth
// App plugin, and the paper's Section 6 open future-work direction
// made runnable on every runtime and shard count: a weighted sample
// without replacement of size s over the most recent width items of
// each site's shard-local sub-stream, merged into one sample over the
// union of those windows.
//
// The window is per sub-stream: each of the k site machines (per
// shard) stamps its arrivals with a local sequence number and keeps the
// most recent width of them; a query samples the union of all current
// sub-windows. With one site and one shard this is exactly the classic
// sliding window of NewSlidingReservoir; with more, "recent" is defined
// per stream — each source contributes its own last width items, so a
// quiet site's recent history is not flushed out by a noisy one. Note
// the sampled population therefore grows with WithShards(P): every
// (site, shard) machine keeps its own width-item window.
//
// Unlike every other application, the per-shard state is non-monotone —
// items expire — so there are no epoch thresholds and no broadcasts:
// sites push exactly the candidates that could be sampled (their local
// window top-s, the union of which provably contains the merged
// sample), buffer the rest in an O(s·log(width/s)) dominance structure,
// and promote buffered items with their original stamps when expiries
// pull them into the top-s. Expiry is applied from sequence stamps at
// the coordinator, so queries stay exact on every runtime with no
// synchrony assumption. See DESIGN.md §11.
func Windowed(k, s, width int) App[WindowSample] {
	return &windowedApp{k: k, s: s, width: width}
}

type windowedApp struct {
	k, s, width int
	coords      []*core.WindowCoordinator
}

func (a *windowedApp) Sites() int { return a.k }

func (a *windowedApp) reset() { a.coords = nil }

func (a *windowedApp) Instances(k, shards int, master *xrand.RNG) ([]rt.Instance, error) {
	if a.coords != nil {
		return nil, errAppReused
	}
	cfg := core.Config{K: k, S: a.s}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if a.width < 1 {
		return nil, fmt.Errorf("wrs: window width must be >= 1, got %d", a.width)
	}
	insts := make([]rt.Instance, shards)
	a.coords = make([]*core.WindowCoordinator, shards)
	for p := range insts {
		coord := core.NewWindowCoordinator(cfg, a.width, master.Split())
		sites := make([]*core.WindowSite, k)
		for i := 0; i < k; i++ {
			sites[i] = core.NewWindowSite(i, cfg, a.width, master.Split())
		}
		insts[p] = rt.Instance{Cfg: cfg, Coord: coord, Sites: rt.SiteList(sites)}
		a.coords[p] = coord
	}
	return insts, nil
}

func (a *windowedApp) Query(snaps Snapshots) WindowSample {
	var entries []window.Entry
	var cov core.WindowCoverage
	for p, coord := range a.coords {
		coord := coord
		snaps.View(p, func() {
			// Size the buffer under the lock that fixes the candidate
			// count, so SnapshotWindow never regrows it. (slices.Grow
			// would cost a second allocation under -race.)
			if need := len(entries) + coord.Retained(); need > cap(entries) {
				entries = append(make([]window.Entry, 0, max(need, 2*cap(entries))), entries...)
			}
			var c core.WindowCoverage
			entries, c = coord.SnapshotWindow(entries)
			cov.Add(c)
		})
	}
	// Everything below runs outside every ingest lock: select the top s
	// of the merged candidates (window.TopEntries — deterministic, key
	// descending with ID tie-break). Per-shard candidate sets sandwich
	// their shard's true window top-s, so the merged top-s is exact
	// (DESIGN.md §11).
	entries = window.TopEntries(entries, a.s)
	items := make([]Sampled, len(entries))
	for i, e := range entries {
		items[i] = Sampled{Item: fromInternal(e.Item), Key: e.Key}
	}
	return WindowSample{Items: items, Observed: cov.Observed, Window: cov.Live, Retained: cov.Retained}
}
