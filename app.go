package wrs

import (
	"fmt"
	"sync"

	"wrs/internal/fabric"
	rt "wrs/internal/runtime"
	"wrs/internal/xrand"
)

// App is an application descriptor: a recipe for the per-shard protocol
// instances an application runs on, plus the query that turns their
// coordinator state into the application's answer Q. The five shipped
// applications — Sampler, HeavyHitters, L1, Quantiles, Windowed — are
// all values of this interface, and Open runs any of them over any
// runtime and any shard count with one implementation of the ingest
// surface.
//
// The interface is sealed: its methods mention internal packages, so
// only this module can implement it (see DESIGN.md §10 for the contract
// an implementation must meet — in particular the RNG split order that
// keeps seeded runs replayable, and the union-mergeability that keeps
// sharded queries exact). External code consumes App values opaquely:
// build one with a shipped constructor and hand it to Open.
type App[Q any] interface {
	// Sites returns k, the number of sites the application is
	// configured over.
	Sites() int

	// Instances builds one full protocol instance — a coordinator-side
	// state machine plus k site state machines — per shard, splitting
	// every RNG off master in a fixed order (per shard ascending:
	// coordinator first, then sites 0..k-1), and retains whatever
	// per-shard state Query needs. It is called exactly once, by Open;
	// a descriptor is bound to a single Handle.
	Instances(k, shards int, master *xrand.RNG) ([]rt.Instance, error)

	// Query answers the application's query from the live per-shard
	// coordinator state. Per-shard reads must happen inside
	// snaps.View(p, ...) — serialized with that shard's message
	// processing only — and stay a plain copy of the shard's
	// candidates (snapshot, don't sort);
	// everything else (sorting, merging, estimating) runs outside
	// every lock, so a concurrent querier never stalls ingest.
	Query(snaps Snapshots) Q
}

// Snapshots gives an App's Query locked access to per-shard coordinator
// state at query time.
type Snapshots interface {
	// Shards returns the number of protocol shards.
	Shards() int
	// View runs fn serialized with shard p's coordinator message
	// processing; fn can read that shard's coordinator state
	// consistently. Other shards keep ingesting.
	View(p int, fn func())
}

// Handle is an open application: the single implementation of the
// ingest/lifecycle surface (Observe, ObserveBatch, Flush, Stats, Close,
// Shards, K) every application shares, plus the typed, non-blocking
// Query. DistributedSampler, HeavyHitterTracker, and L1Tracker are thin
// wrappers over a Handle; new applications use it directly.
type Handle[Q any] struct {
	app App[Q]
	k   int
	rt  rt.ShardedRuntime

	mu         sync.Mutex
	closed     bool
	finalStats Stats
}

// Open builds the application's protocol instances, starts the selected
// runtime over them, and returns the handle. The zero options are
// Sequential runtime, one shard, and a fixed default seed — exactly the
// model the paper analyzes, deterministic under WithSeed.
func Open[Q any](app App[Q], opts ...Option) (*Handle[Q], error) {
	o := buildOptions(opts)
	if err := fabric.Validate(o.shards); err != nil {
		return nil, err
	}
	k := app.Sites()
	insts, err := app.Instances(k, o.shards, xrand.New(o.seed))
	if err != nil {
		return nil, err
	}
	if len(insts) != o.shards {
		return nil, fmt.Errorf("wrs: app built %d instances for %d shards", len(insts), o.shards)
	}
	run, err := o.rt.buildSharded(insts)
	if err != nil {
		// No handle was created: release the descriptor so a retry with
		// corrected options (e.g. a reachable TCP address) can rebuild
		// instead of hitting the one-shot-binding error.
		if r, ok := any(app).(interface{ reset() }); ok {
			r.reset()
		}
		return nil, err
	}
	return &Handle[Q]{app: app, k: k, rt: run}, nil
}

// Observe delivers one arrival to a site (0 <= site < K()). On
// asynchronous runtimes delivery may be deferred; weight validation
// errors then surface at Flush or Close instead.
func (h *Handle[Q]) Observe(site int, it Item) error {
	return h.rt.Feed(site, it.internal())
}

// ObserveBatch delivers a slice of arrivals to a site in order through
// the runtime's batched path — one enqueue on the goroutine runtime,
// coalesced multi-message frames over TCP, split per shard in one pass
// on a sharded fabric.
func (h *Handle[Q]) ObserveBatch(site int, items []Item) error {
	return h.rt.FeedBatch(site, toInternal(items))
}

// Query answers the application's query. It is valid at any instant and
// deliberately cheap on the ingest locks: the App snapshots each shard
// under that shard's own lock and computes everything else outside
// every lock, so a concurrent querier never stalls ingest. The locked
// copy is O(s) for the top-s apps; Windowed copies every retained
// candidate, about O(k·s·log(width/s)) per shard.
// On asynchronous runtimes call Flush first for a fully-delivered view.
// Query remains usable after Close.
func (h *Handle[Q]) Query() Q {
	return h.app.Query(handleSnaps{h.rt})
}

// Flush is a barrier: when it returns, everything observed before the
// call has reached the coordinator. A no-op on the sequential runtime.
func (h *Handle[Q]) Flush() error { return h.rt.Flush() }

// Stats returns cumulative network traffic.
func (h *Handle[Q]) Stats() Stats {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return h.finalStats
	}
	return fromNetsim(h.rt.Stats())
}

// Close shuts the runtime down (goroutines joined, connections closed).
// Query remains usable; further Observe calls error. Close is
// idempotent and returns the first runtime error, if any.
func (h *Handle[Q]) Close() error {
	_, err := h.closeAndStats()
	return err
}

// closeAndStats closes the runtime and returns the final statistics
// from the same critical section — one locked path, so a caller
// draining the runtime can never observe stats from a different moment
// than the close it performed (ConcurrentSampler.Drain relies on this).
func (h *Handle[Q]) closeAndStats() (Stats, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return h.finalStats, nil
	}
	err := h.rt.Close()
	h.finalStats = fromNetsim(h.rt.Stats())
	h.closed = true
	return h.finalStats, err
}

// Shards returns the number of protocol shards (1 unless WithShards).
func (h *Handle[Q]) Shards() int { return h.rt.Shards() }

// K returns the number of sites.
func (h *Handle[Q]) K() int { return h.k }

// handleSnaps adapts the sharded runtime to the Snapshots contract.
type handleSnaps struct{ rt rt.ShardedRuntime }

func (s handleSnaps) Shards() int           { return s.rt.Shards() }
func (s handleSnaps) View(p int, fn func()) { s.rt.DoShard(p, fn) }
