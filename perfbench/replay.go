package main

import (
	"fmt"
	"time"

	"wrs"
	"wrs/internal/core"
	"wrs/internal/fabric"
	"wrs/internal/heavyhitter"
	"wrs/internal/relay"
	"wrs/internal/stream"
	"wrs/internal/window"
	"wrs/internal/wire"
	"wrs/internal/xrand"
)

// The replay feeds a round's generated input single-threaded through
// each layer's public functions, with the workload's k, s, eps, width,
// shards and tree shape, and times chunks of calls. One coupled pass runs
// the whole protocol as the sequential runtime does and records every
// upstream message and broadcast with its position; each layer is then
// timed alone on that record, so no layer's span contains another's
// work. The coupled pass's traffic must equal wrs.Sequential's (or
// wrs.SequentialTree's) Stats on the same seed exactly, and every later
// pass must reproduce the coupled pass's messages, or the replay models a
// different protocol and the run is marked incorrect.

const (
	spanMsgs    = 256     // messages per coordinator, relay and wire span
	minWireMsgs = 1 << 18 // encode/decode passes repeat up to this many messages
	expKeyCalls = 1 << 20
	endQueries  = 16 // queries at the end of a stream without a query cadence
	relayFanout = 4  // relay tier replayed on flat workloads (not on their path)
	// Heavy-hitter parameters of the candidate extraction replayed under
	// the workloads that do not run HeavyHitters (hh-fine-tree's own).
	hhEpsCross   = 0.002
	hhDeltaCross = 0.01
)

// upRec is one upstream message and where it was produced.
type upRec struct {
	shard int32
	site  int32
	g     int64 // feed-order index of the update whose Observe sent it
	m     core.Message
}

// bcRec is one coordinator broadcast and where it happened.
type bcRec struct {
	shard   int
	afterUp int // number of upstream messages sent before it
	ord     int // shard-local ordinal of the update whose message caused it
	m       core.Message
}

type replayer struct {
	w     workloadSpec
	in    *inputs
	tr    *tracer
	seed  uint64
	parts [][][]stream.Item // [chunk][shard]: the chunk's items routed to each shard
	fails []string
}

func newReplayer(w workloadSpec, in *inputs, tr *tracer, seed uint64) *replayer {
	r := &replayer{w: w, in: in, tr: tr, seed: seed, parts: make([][][]stream.Item, len(in.chunks))}
	for c, ch := range in.chunks {
		r.parts[c] = make([][]stream.Item, w.shards)
		for _, it := range ch.items {
			p := fabric.ShardOf(it.ID, w.shards)
			r.parts[c][p] = append(r.parts[c][p], stream.Item{ID: it.ID, Weight: it.Weight})
		}
	}
	return r
}

func (r *replayer) failf(format string, args ...any) {
	r.fails = append(r.fails, fmt.Sprintf(format, args...))
}

func (r *replayer) n() int64 { return int64(r.in.n()) }

// ---- sampler family (Sampler, HeavyHitters) ------------------------

type samplerFam struct {
	k, s   int
	hh     bool
	hp     heavyhitter.Params
	shards int
	tree   bool // the workload runs a relay tree
}

// build constructs the per-shard protocol instances exactly as the wrs
// application does (same RNG split order), so a replay seeded like
// wrs.WithSeed(seed) draws the same randomness. With skip the sites use
// the A-ExpJ skip-ahead filter instead.
func (f samplerFam) build(seed uint64, skip bool) ([]*core.Coordinator, [][]*core.Site, error) {
	master := xrand.New(seed)
	coords := make([]*core.Coordinator, f.shards)
	sites := make([][]*core.Site, f.shards)
	for p := range coords {
		if f.hh {
			t, err := heavyhitter.NewTracker(f.k, f.hp, master)
			if err != nil {
				return nil, nil, err
			}
			coords[p], sites[p] = t.Coord, t.Sites
		} else {
			cfg := core.Config{K: f.k, S: f.s}
			if err := cfg.Validate(); err != nil {
				return nil, nil, err
			}
			coords[p] = core.NewCoordinator(cfg, master.Split())
			sites[p] = make([]*core.Site, f.k)
			for i := range sites[p] {
				sites[p][i] = core.NewSite(i, cfg, master.Split())
			}
		}
		if skip {
			cfg := coords[p].Config()
			cfg.SkipAhead = true
			for i := range sites[p] {
				sites[p][i] = core.NewSite(i, cfg, master.Split())
			}
		}
	}
	return coords, sites, nil
}

func (f samplerFam) sampleSize() int {
	if f.hh {
		return f.hp.SampleSize()
	}
	return f.s
}

// samplerTrace is the coupled pass's record.
type samplerTrace struct {
	ups   []upRec
	bcs   []bcRec
	down  int64 // broadcast deliveries: k per broadcast
	final []core.SampleEntry
}

// coupled runs the protocol as netsim.Cluster does: a site's message
// reaches the coordinator inside Observe and a broadcast reaches every
// site of the shard before the next arrival.
func (r *replayer) coupled(f samplerFam) (*samplerTrace, error) {
	coords, sites, err := f.build(r.seed, false)
	if err != nil {
		return nil, err
	}
	t := &samplerTrace{}
	var curShard, curSite, curOrd int
	var curG int64
	bcast := func(m core.Message) {
		t.bcs = append(t.bcs, bcRec{shard: curShard, afterUp: len(t.ups), ord: curOrd, m: m})
		t.down += int64(f.k)
		for _, st := range sites[curShard] {
			st.HandleBroadcast(m)
		}
	}
	send := func(m core.Message) {
		t.ups = append(t.ups, upRec{shard: int32(curShard), site: int32(curSite), g: curG, m: m})
		coords[curShard].HandleMessage(m, bcast)
	}
	ords := make([]int, f.shards)
	for c, ch := range r.in.chunks {
		for p, part := range r.parts[c] {
			curShard, curSite = p, ch.site
			st := sites[p][ch.site]
			for _, it := range part {
				curOrd = ords[p]
				if err := st.Observe(it, send); err != nil {
					return nil, err
				}
				ords[p]++
				curG++
			}
		}
	}
	for _, c := range coords {
		t.final = c.Snapshot(t.final)
	}
	t.final = core.TopSample(t.final, f.sampleSize())
	return t, nil
}

// route times fabric.ShardOf over every update.
func (r *replayer) route() (counts []int64) {
	pass := r.tr.begin("replay.route", -1)
	counts = make([]int64, r.w.shards)
	b := r.tr.batch("fabric.route", pass)
	for _, ch := range r.in.chunks {
		for _, it := range ch.items {
			counts[fabric.ShardOf(it.ID, r.w.shards)]++
		}
		b.done(len(ch.items))
	}
	b.close()
	r.tr.end(pass, r.n())
	return counts
}

// sites times core.Site.Observe alone: broadcasts are applied at the
// positions the coupled pass recorded, and sent messages go nowhere.
// It returns the number of messages sent and a checksum of them.
func (r *replayer) sites(f samplerFam, t *samplerTrace, skip bool, name string) (int64, uint64, error) {
	_, sites, err := f.build(r.seed, skip)
	if err != nil {
		return 0, 0, err
	}
	byShard := make([][]bcRec, f.shards)
	for _, b := range t.bcs {
		byShard[b.shard] = append(byShard[b.shard], b)
	}
	next := make([]int, f.shards)
	ords := make([]int, f.shards)
	var sent int64
	var sum uint64
	send := func(m core.Message) {
		sent++
		sum = sum*31 + m.Item.ID + uint64(m.Kind)
	}
	pass := r.tr.begin("replay."+name, -1)
	b := r.tr.batch(name, pass)
	for c, ch := range r.in.chunks {
		for p, part := range r.parts[c] {
			if len(part) == 0 {
				continue
			}
			q, bi, ord := byShard[p], next[p], ords[p]
			st, all := sites[p][ch.site], sites[p]
			var oerr error
			for _, it := range part {
				if err := st.Observe(it, send); err != nil {
					oerr = err
				}
				for bi < len(q) && q[bi].ord == ord {
					for _, s := range all {
						s.HandleBroadcast(q[bi].m)
					}
					bi++
				}
				ord++
			}
			b.done(len(part))
			if oerr != nil {
				return 0, 0, oerr
			}
			next[p], ords[p] = bi, ord
		}
	}
	b.close()
	r.tr.end(pass, r.n())
	return sent, sum, nil
}

// relayTier times relay.Machine.Up over the recorded upstream messages
// on one tier of min(fanout, k) relays per shard, applying each
// broadcast (Down) where it happened. It returns the indices of the
// messages the tier forwarded.
func (r *replayer) relayTier(f samplerFam, t *samplerTrace, fanout int) (fwd []int32, filtered int64) {
	nodes := min(fanout, f.k)
	machines := make([][]*relay.Machine, f.shards)
	for p := range machines {
		machines[p] = make([]*relay.Machine, nodes)
		for i := range machines[p] {
			machines[p][i] = relay.NewMachine(f.sampleSize(), true)
		}
	}
	fwd = make([]int32, 0, len(t.ups))
	passed := false
	forward := func(core.Message) { passed = true }
	pass := r.tr.begin("replay.relay", -1)
	bi := 0
	for i := 0; i < len(t.ups); {
		j := min(i+spanMsgs, len(t.ups))
		t0 := r.tr.now()
		for u := i; u < j; u++ {
			for bi < len(t.bcs) && t.bcs[bi].afterUp <= u {
				for _, m := range machines[t.bcs[bi].shard] {
					m.Down(t.bcs[bi].m)
				}
				bi++
			}
			rec := &t.ups[u]
			passed = false
			machines[rec.shard][int(rec.site)%nodes].Up(rec.m, forward)
			if passed {
				fwd = append(fwd, int32(u))
			}
		}
		r.tr.add("relay.up", pass, t0, r.tr.now(), int64(j-i))
		i = j
	}
	r.tr.end(pass, int64(len(t.ups)))
	return fwd, int64(len(t.ups) - len(fwd))
}

type coordCounts struct {
	early, regular, dropped, bcasts int64
}

// coordinator times the coordinator path over the messages that reach
// it (idx into t.ups): the prefilter check against DropBelow, as the TCP
// server makes it before taking the shard lock, then HandleMessage.
// Spans cover runs of one message kind, so early and regular costs
// separate. At the workload's query cadence it times a snapshot of every
// shard and the heavy-hitter candidate extraction over it.
func (r *replayer) coordinator(f samplerFam, t *samplerTrace, idx []int32, every int64, snapName string) (coordCounts, error) {
	coords, _, err := f.build(r.seed, false)
	if err != nil {
		return coordCounts{}, err
	}
	var cc coordCounts
	bcast := func(core.Message) { cc.bcasts++ }
	hp := f.hp
	if !f.hh {
		hp = heavyhitter.Params{Eps: hhEpsCross, Delta: hhDeltaCross}
	}
	var buf []core.SampleEntry
	query := func(parent int32) {
		t0 := r.tr.now()
		buf = buf[:0]
		for _, c := range coords {
			buf = c.Snapshot(buf)
		}
		t1 := r.tr.now()
		heavyhitter.CandidatesFrom(buf, hp)
		t2 := r.tr.now()
		r.tr.add(snapName, parent, t0, t1, 1)
		r.tr.add("heavyhitter.candidates", parent, t1, t2, 1)
	}
	pass := r.tr.begin("replay.coordinator", -1)
	nextQ := every
	for i := 0; i < len(idx); {
		g := t.ups[idx[i]].g
		for every > 0 && nextQ <= g {
			query(pass)
			nextQ += every
		}
		kind := t.ups[idx[i]].m.Kind
		j := i
		t0 := r.tr.now()
		for ; j < len(idx) && j-i < spanMsgs; j++ {
			rec := &t.ups[idx[j]]
			if rec.m.Kind != kind || (every > 0 && rec.g >= nextQ) {
				break
			}
			c := coords[rec.shard]
			if kind == core.MsgRegular && rec.m.Key <= c.DropBelow() {
				cc.dropped++
				continue
			}
			c.HandleMessage(rec.m, bcast)
		}
		name := "core.coord_regular"
		if kind == core.MsgEarly {
			name = "core.coord_early"
			cc.early += int64(j - i)
		} else {
			cc.regular += int64(j - i)
		}
		r.tr.add(name, pass, t0, r.tr.now(), int64(j-i))
		i = j
	}
	if every > 0 {
		for ; nextQ <= r.n(); nextQ += every {
			query(pass)
		}
	} else {
		for q := 0; q < endQueries; q++ {
			query(pass)
		}
	}
	r.tr.end(pass, int64(len(idx)))

	var final []core.SampleEntry
	for _, c := range coords {
		final = c.Snapshot(final)
	}
	final = core.TopSample(final, f.sampleSize())
	if len(final) != len(t.final) {
		r.failf("coordinator pass sample has %d entries, coupled pass %d", len(final), len(t.final))
	} else {
		for i := range final {
			if final[i] != t.final[i] {
				r.failf("coordinator pass sample differs from coupled pass at %d", i)
				break
			}
		}
	}
	return cc, nil
}

// wireCodec times wire.AppendMessage and wire.ForEachMessage over the
// given messages, in frames of spanMsgs, repeating the list until at
// least minWireMsgs were encoded. It returns the bytes of one pass.
func (r *replayer) wireCodec(msgs []core.Message) (bytes int64, err error) {
	if len(msgs) == 0 {
		return 0, nil
	}
	var frames [][]byte
	for i := 0; i < len(msgs); i += spanMsgs {
		frames = append(frames, make([]byte, 0, spanMsgs*wire.MessageSize))
	}
	reps := max(1, minWireMsgs/len(msgs))
	pass := r.tr.begin("replay.wire", -1)
	for rep := 0; rep < reps; rep++ {
		for f := range frames {
			lo, hi := f*spanMsgs, min((f+1)*spanMsgs, len(msgs))
			t0 := r.tr.now()
			b := frames[f][:0]
			for _, m := range msgs[lo:hi] {
				b = wire.AppendMessage(b, m)
			}
			r.tr.add("wire.encode", pass, t0, r.tr.now(), int64(hi-lo))
			frames[f] = b
		}
	}
	for _, b := range frames {
		bytes += int64(len(b))
	}
	var decoded int64
	count := func(core.Message) { decoded++ }
	for rep := 0; rep < reps; rep++ {
		for _, b := range frames {
			t0 := r.tr.now()
			before := decoded
			if err := wire.ForEachMessage(b, count); err != nil {
				return 0, err
			}
			r.tr.add("wire.decode", pass, t0, r.tr.now(), decoded-before)
		}
	}
	r.tr.end(pass, int64(reps*len(msgs)))
	if decoded != int64(reps*len(msgs)) {
		return 0, fmt.Errorf("wire: decoded %d of %d messages", decoded, reps*len(msgs))
	}
	return bytes, nil
}

// expKey times xrand.ExpKey over the workload's weights.
func (r *replayer) expKey() {
	rng := xrand.New(r.seed)
	var sink float64
	pass := r.tr.begin("replay.expkey", -1)
	for done := 0; done < expKeyCalls; {
		lo := done % r.in.n()
		hi := min(lo+4096, r.in.n(), lo+expKeyCalls-done)
		t0 := r.tr.now()
		for _, wt := range r.in.weights[lo:hi] {
			sink += rng.ExpKey(wt)
		}
		r.tr.add("xrand.expkey", pass, t0, r.tr.now(), int64(hi-lo))
		done += hi - lo
	}
	r.tr.end(pass, expKeyCalls)
	// Using the sum keeps the calls from being optimized away; keys are
	// positive, so a non-positive sum would mean ExpKey misbehaved.
	if !(sink > 0) {
		r.failf("ExpKey sum %v is not positive", sink)
	}
}

// ---- window family (Windowed) --------------------------------------

type windowFam struct {
	k, s, width, shards int
}

func (f windowFam) build(seed uint64) ([]*core.WindowCoordinator, [][]*core.WindowSite) {
	master := xrand.New(seed)
	cfg := core.Config{K: f.k, S: f.s}
	coords := make([]*core.WindowCoordinator, f.shards)
	sites := make([][]*core.WindowSite, f.shards)
	for p := range coords {
		coords[p] = core.NewWindowCoordinator(cfg, f.width, master.Split())
		sites[p] = make([]*core.WindowSite, f.k)
		for i := range sites[p] {
			sites[p][i] = core.NewWindowSite(i, cfg, f.width, master.Split())
		}
	}
	return coords, sites
}

// windowSites times core.WindowSite.Observe and records its messages
// (the protocol is push-only, so the sites need no coordinator input).
func (r *replayer) windowSites(f windowFam) ([]upRec, error) {
	_, sites := f.build(r.seed)
	var ups []upRec
	var curShard int32
	var curG int64
	send := func(m core.Message) {
		ups = append(ups, upRec{shard: curShard, g: curG, m: m})
	}
	pass := r.tr.begin("replay.window_site", -1)
	b := r.tr.batch("core.window_site", pass)
	for c, ch := range r.in.chunks {
		for p, part := range r.parts[c] {
			if len(part) == 0 {
				continue
			}
			curShard = int32(p)
			st := sites[p][ch.site]
			var oerr error
			for _, it := range part {
				if err := st.Observe(it, send); err != nil {
					oerr = err
				}
				curG++
			}
			b.done(len(part))
			if oerr != nil {
				return nil, oerr
			}
		}
	}
	b.close()
	r.tr.end(pass, r.n())
	return ups, nil
}

// windowCoordinator times WindowCoordinator.HandleMessage over the
// recorded messages and, at the query cadence, SnapshotWindow of every
// shard plus window.TopEntries. It returns the final retained count.
func (r *replayer) windowCoordinator(f windowFam, ups []upRec, every int64, snapName string) int {
	coords, _ := f.build(r.seed)
	noBcast := func(core.Message) { r.failf("windowed coordinator broadcast") }
	var buf []window.Entry
	query := func(parent int32) {
		t0 := r.tr.now()
		buf = buf[:0]
		for _, c := range coords {
			buf, _ = c.SnapshotWindow(buf)
		}
		t1 := r.tr.now()
		window.TopEntries(buf, f.s)
		t2 := r.tr.now()
		r.tr.add(snapName, parent, t0, t1, 1)
		r.tr.add("window.topentries", parent, t1, t2, 1)
	}
	pass := r.tr.begin("replay.window_coord", -1)
	nextQ := every
	for i := 0; i < len(ups); {
		for every > 0 && nextQ <= ups[i].g {
			query(pass)
			nextQ += every
		}
		j := i
		t0 := r.tr.now()
		for ; j < len(ups) && j-i < spanMsgs && (every == 0 || ups[j].g < nextQ); j++ {
			coords[ups[j].shard].HandleMessage(ups[j].m, noBcast)
		}
		r.tr.add("core.window_coord", pass, t0, r.tr.now(), int64(j-i))
		i = j
	}
	if every > 0 {
		for ; nextQ <= r.n(); nextQ += every {
			query(pass)
		}
	} else {
		for q := 0; q < endQueries; q++ {
			query(pass)
		}
	}
	r.tr.end(pass, int64(len(ups)))
	retained := 0
	for _, c := range coords {
		retained += c.Retained()
	}
	return retained
}

// ---- sequential references -----------------------------------------

// sequentialRef feeds the round input through the public API on a
// sequential runtime and returns its traffic and wall time.
func sequentialRef[Q any](a wrs.App[Q], spec wrs.RuntimeSpec, shards int, seed uint64, in *inputs) (wrs.Stats, time.Duration, error) {
	h, err := wrs.Open(a, wrs.WithRuntime(spec), wrs.WithShards(shards), wrs.WithSeed(seed))
	if err != nil {
		return wrs.Stats{}, 0, err
	}
	t0 := time.Now()
	for _, c := range in.chunks {
		if err := h.ObserveBatch(c.site, c.items); err != nil {
			h.Close()
			return wrs.Stats{}, 0, err
		}
	}
	if err := h.Flush(); err != nil {
		h.Close()
		return wrs.Stats{}, 0, err
	}
	d := time.Since(t0)
	st := h.Stats()
	return st, d, h.Close()
}
