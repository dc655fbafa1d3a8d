package core

import (
	"fmt"

	"wrs/internal/window"
	"wrs/internal/xrand"
)

// WindowCoordStats counts windowed-protocol events at the coordinator.
type WindowCoordStats struct {
	WindowMsgs  int64 // sequence-stamped candidates received
	ClockMsgs   int64 // clock advances received
	BadStamps   int64 // messages with negative stamps (dropped)
	IgnoredMsgs int64 // messages of non-window kinds (dropped)
}

// WindowCoverage aggregates the coordinator's view of the sub-stream
// clocks at query time. Observed and Live reflect positions the
// coordinator has been told about; they can trail the sites' true
// counts while the newest arrivals are still buffered locally (the
// sample itself is exact regardless — the expiry of any reported
// candidate forces a clock update, so staleness only ever hides items
// that were never going to be sampled).
type WindowCoverage struct {
	Observed int64 // sub-stream positions accounted for, summed over sites
	Live     int   // positions currently inside some sub-stream window
	Retained int   // candidates currently held
}

// Add accumulates other into c (coverage is additive across sites and
// shards).
func (c *WindowCoverage) Add(other WindowCoverage) {
	c.Observed += other.Observed
	c.Live += other.Live
	c.Retained += other.Retained
}

// WindowCoordinator is the coordinator-side machine of the distributed
// sliding-window application: one window.Retention per site sub-stream,
// fed from sequence-stamped messages, merged at query time. Its state
// is non-monotone — candidates expire as sub-stream clocks advance —
// which is exactly what the plain Coordinator's epoch machinery cannot
// host; see WindowSite for the protocol and its exactness argument.
//
// It satisfies the same Coordinator interface as every other
// application wrapper (HandleMessage + Core), so all three runtimes and
// the sharded TCP server drive it unchanged. The inner Core coordinator
// is inert — never fed — and exists so transports can take their
// control-plane join snapshot (empty: this protocol has no broadcasts)
// and so the RNG split order of the plugin contract stays uniform (the
// coordinator split seeds it, though no keys are ever drawn).
type WindowCoordinator struct {
	cfg   Config
	width int
	inert *Coordinator
	sites []*window.Retention

	Stats WindowCoordStats
}

// NewWindowCoordinator returns the windowed coordinator for cfg.K site
// sub-streams of window width each. The rng is the coordinator's
// contract split; the windowed protocol draws nothing from it.
func NewWindowCoordinator(cfg Config, width int, rng *xrand.RNG) *WindowCoordinator {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if width < 1 {
		panic(fmt.Sprintf("core: window width must be >= 1, got %d", width))
	}
	c := &WindowCoordinator{
		cfg:   cfg,
		width: width,
		inert: NewCoordinator(cfg, rng),
		sites: make([]*window.Retention, cfg.K),
	}
	for i := range c.sites {
		ret, err := window.NewRetention(cfg.S, width)
		if err != nil {
			panic(err) // unreachable: cfg and width were validated above
		}
		c.sites[i] = ret
	}
	return c
}

// Core exposes the inert inner sampler coordinator, satisfying the
// runtime/transport Coordinator interface. Its sample is always empty;
// windowed queries go through SnapshotWindow instead.
func (c *WindowCoordinator) Core() *Coordinator { return c.inert }

// Config returns the shared protocol configuration.
func (c *WindowCoordinator) Config() Config { return c.cfg }

// Width returns the window width in sub-stream items.
func (c *WindowCoordinator) Width() int { return c.width }

// HandleMessage folds one site message. The windowed protocol never
// broadcasts, so bcast is unused.
func (c *WindowCoordinator) HandleMessage(m Message, bcast func(Message)) {
	switch m.Kind {
	case MsgWindow:
		if m.Level < 0 {
			c.Stats.BadStamps++
			return
		}
		pos, site := SplitWindowStamp(m.Level, c.cfg.K)
		c.Stats.WindowMsgs++
		c.sites[site].Add(pos, m.Key, m.Item)
	case MsgClock:
		if m.Level < 0 {
			c.Stats.BadStamps++
			return
		}
		pos, site := SplitWindowStamp(m.Level, c.cfg.K)
		c.Stats.ClockMsgs++
		c.sites[site].Advance(pos + 1)
	default:
		// Infinite-horizon kinds (early/regular/broadcasts) are not
		// part of the windowed protocol; count and drop them so a
		// misrouted frame surfaces in Stats instead of corrupting
		// window state.
		c.Stats.IgnoredMsgs++
	}
}

// SnapshotWindow appends every live candidate — expiry applied against
// each sub-stream's current clock — to dst and returns it together
// with the coverage view. It is the locked read path: O(retained)
// copies, no sorting (size dst with Retained first to append without
// regrowth); merge with window.TopEntries outside the lock.
func (c *WindowCoordinator) SnapshotWindow(dst []window.Entry) ([]window.Entry, WindowCoverage) {
	var cov WindowCoverage
	for _, r := range c.sites {
		dst = r.AppendEntries(dst)
		cov.Observed += int64(r.Count())
		cov.Live += r.Live()
		cov.Retained += r.Retained()
	}
	return dst, cov
}

// Retained returns the total candidate count across sub-streams.
func (c *WindowCoordinator) Retained() int {
	n := 0
	for _, r := range c.sites {
		n += r.Retained()
	}
	return n
}

// Site returns site i's retention structure (diagnostics and tests;
// synchronize with the runtime's Do/DoShard when live).
func (c *WindowCoordinator) Site(i int) *window.Retention { return c.sites[i] }

// Query returns the exact weighted SWOR of the union of sub-stream
// windows, largest key first (diagnostics; the application layer merges
// shard snapshots outside the locks instead).
func (c *WindowCoordinator) Query() []window.Entry {
	dst, _ := c.SnapshotWindow(make([]window.Entry, 0, c.Retained()))
	return window.TopEntries(dst, c.cfg.S)
}
