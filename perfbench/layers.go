package main

import (
	"fmt"

	"wrs"
	"wrs/internal/core"
	"wrs/internal/wire"
)

// layerMetrics runs the replay and reduces the traced run's spans to the
// per-layer metrics. A traced run's result line carries every per-layer
// metric of BENCHMARK.json, whatever the workload, and a placeholder
// would read the same on every run, so every layer is measured on every
// workload: a layer that is not on a workload's path (the window
// machines under the two sampler workloads, the sampler machines and a
// relay tier under window-diurnal, a relay tier under the flat
// swor-pareto) is replayed on that workload's input with its k, s=64
// and width 4096, so each row exists everywhere and is predicted not to
// move that workload's end-to-end figures. It returns the
// replay-fidelity failures.
func layerMetrics(w workloadSpec, in *inputs, res *e2eResult, tr *tracer, seed uint64) (metrics, []string) {
	var m metrics
	r := newReplayer(w, in, tr, seed)
	n := float64(in.n())

	var qpr []float64
	for _, rd := range res.rounds {
		qpr = append(qpr, float64(rd.queries))
	}
	var every int64
	if q := median(qpr); q >= 1 {
		every = int64(n / q)
	}

	sf := samplerFam{k: w.k, s: w.s, hh: w.hh, hp: w.hp, shards: w.shards, tree: w.depth > 0}
	wf := windowFam{k: w.k, s: windowS, width: w.width, shards: w.shards}
	samplerSnap, windowSnap := "core.snapshot", "cross.snapshot_window"
	if w.window {
		wf.s = w.s
		samplerSnap, windowSnap = "cross.snapshot", "core.snapshot"
	}

	// Sequential references: the same input through wrs.Sequential (or
	// wrs.SequentialTree on the tree workload).
	var sStats wrs.Stats
	var sDur float64
	var err error
	spec := wrs.Sequential()
	if sf.tree {
		spec = wrs.SequentialTree(w.fanout, w.depth)
	}
	if sf.hh {
		st, d, e := sequentialRef(wrs.HeavyHitters(sf.k, sf.hp.Eps, sf.hp.Delta), spec, sf.shards, seed, in)
		sStats, sDur, err = st, float64(d.Nanoseconds()), e
	} else {
		st, d, e := sequentialRef(wrs.Sampler(sf.k, sf.s), spec, sf.shards, seed, in)
		sStats, sDur, err = st, float64(d.Nanoseconds()), e
	}
	if err != nil {
		r.failf("sequential sampler reference: %v", err)
	}
	wStats, wd, err := sequentialRef(wrs.Windowed(wf.k, wf.s, wf.width), wrs.Sequential(), wf.shards, seed, in)
	if err != nil {
		r.failf("sequential window reference: %v", err)
	}
	seqNs := sDur / n
	if w.window {
		seqNs = float64(wd.Nanoseconds()) / n
	}

	// Sampler family.
	t, err := r.coupled(sf)
	if err != nil {
		r.failf("coupled replay: %v", err)
		return m, r.fails
	}
	up := int64(len(t.ups))
	if up != sStats.Upstream || t.down != sStats.Downstream {
		r.failf("replay traffic %d up / %d down, sequential runtime %d / %d", up, t.down, sStats.Upstream, sStats.Downstream)
	}
	var upSum uint64
	for _, u := range t.ups {
		upSum = upSum*31 + u.m.Item.ID + uint64(u.m.Kind)
	}
	counts := r.route()
	sent, sum, err := r.sites(sf, t, false, "core.site_lazy")
	if err != nil || sent != up || sum != upSum {
		r.failf("site pass sent %d messages (checksum match %v, err %v), coupled pass %d", sent, sum == upSum, err, up)
	}
	if _, _, err := r.sites(sf, t, true, "core.site_skipahead"); err != nil {
		r.failf("skip-ahead site pass: %v", err)
	}
	fanout := w.fanout
	if !sf.tree {
		fanout = relayFanout
	}
	fwd, filtered := r.relayTier(sf, t, fanout)
	idx := fwd
	if !sf.tree {
		idx = make([]int32, len(t.ups))
		for i := range idx {
			idx[i] = int32(i)
		}
	}
	cc, err := r.coordinator(sf, t, idx, every, samplerSnap)
	if err != nil {
		r.failf("coordinator pass: %v", err)
	}
	if cc.bcasts*int64(sf.k) != t.down {
		r.failf("coordinator pass broadcast %d times, coupled pass %d", cc.bcasts, t.down/int64(sf.k))
	}
	r.expKey()

	// Window family.
	wups, err := r.windowSites(wf)
	if err != nil {
		r.failf("window site pass: %v", err)
	}
	if int64(len(wups)) != wStats.Upstream || wStats.Downstream != 0 {
		r.failf("window replay traffic %d up, sequential runtime %d up / %d down", len(wups), wStats.Upstream, wStats.Downstream)
	}
	retained := r.windowCoordinator(wf, wups, every, windowSnap)

	// Wire, on the messages of the application under test.
	var msgs []core.Message
	var rootBytes float64
	if w.window {
		for _, u := range wups {
			msgs = append(msgs, u.m)
		}
	} else {
		for _, u := range t.ups {
			msgs = append(msgs, u.m)
		}
	}
	upBytes, err := r.wireCodec(msgs)
	if err != nil {
		r.failf("wire: %v", err)
	}
	// Each broadcast is one message to each of the k sites.
	bcBytes := 0.0
	if !w.window {
		for _, b := range t.bcs {
			bcBytes += float64(len(wire.AppendMessage(nil, b.m)))
		}
	}
	if sf.tree && len(t.ups) > 0 {
		// Forwarded messages cross the wire a second time, relay to root.
		rootBytes = float64(upBytes) * float64(len(fwd)) / float64(len(t.ups))
	}

	self := tr.selfTimes()
	per := func(name string) float64 {
		v := self[name]
		if v[1] == 0 {
			return 0
		}
		return float64(v[0]) / float64(v[1])
	}
	var untracedCPU, untracedUps, tracedCPU, tracedUps []float64
	for _, rd := range res.rounds {
		nu := float64(rd.updates)
		if rd.traced {
			tracedCPU = append(tracedCPU, float64(rd.cpu.Nanoseconds())/nu)
			tracedUps = append(tracedUps, nu/rd.wall.Seconds())
		} else {
			untracedCPU = append(untracedCPU, float64(rd.cpu.Nanoseconds())/nu)
			untracedUps = append(untracedUps, nu/rd.wall.Seconds())
		}
	}

	siteLazy, siteSkip := per("core.site_lazy"), per("core.site_skipahead")
	enc, dec := per("wire.encode"), per("wire.decode")
	winSite, winCoord := per("core.window_site"), per("core.window_coord")
	early, regular := per("core.coord_early"), per("core.coord_regular")
	relayUp := per("relay.up")
	route := per("fabric.route")
	snapUs, candUs, topUs := per("core.snapshot")/1e3, per("heavyhitter.candidates")/1e3, per("window.topentries")/1e3
	observeBatch := per("wrs.observe_batch")

	upPerUpd := float64(up) / n
	siteNs := siteLazy
	if w.window {
		upPerUpd = float64(len(wups)) / n
		siteNs = winSite
	}
	qpu := 0.0
	if w.probeQueries {
		var q, u float64
		for _, rd := range res.rounds {
			q += float64(rd.queries)
			u += float64(rd.updates)
		}
		qpu = q / u
	}
	var explained float64
	if w.window {
		explained = winSite + upPerUpd*(enc+dec+winCoord) + qpu*(snapUs+topUs)*1e3
	} else {
		hops := upPerUpd
		if sf.tree {
			hops += float64(len(fwd)) / n
			explained += upPerUpd * relayUp
		}
		explained += siteLazy + route + hops*(enc+dec) +
			float64(cc.early)/n*early + float64(cc.regular)/n*regular + qpu*(snapUs+candUs)*1e3
	}
	cpuNs := median(untracedCPU)

	maxC, sumC := int64(0), int64(0)
	for _, c := range counts {
		maxC, sumC = max(maxC, c), sumC+c
	}
	coordIn := float64(len(idx))

	m.set("wrs.observe_batch_ns_per_update", observeBatch, "ns")
	m.set("core.site_lazy_ns_per_update", siteLazy, "ns")
	m.set("core.site_sent_per_update", float64(up)/n, "msgs/update")
	m.set("core.site_skipahead_ns_per_update", siteSkip, "ns")
	m.set("transport.client_ns_per_update", observeBatch-siteNs-enc*upPerUpd, "ns")
	m.set("wire.encode_ns_per_msg", enc, "ns")
	m.set("wire.decode_ns_per_msg", dec, "ns")
	m.set("wire.bytes_per_update", (float64(upBytes)+rootBytes+bcBytes*float64(w.k))/n, "B/update")
	m.set("relay.up_ns_per_msg", relayUp, "ns")
	m.set("relay.filtered_frac", frac(float64(filtered), float64(len(t.ups))), "ratio")
	m.set("core.coord_early_ns_per_msg", early, "ns")
	m.set("core.coord_regular_ns_per_msg", regular, "ns")
	m.set("core.coord_early_frac", frac(float64(cc.early), float64(cc.early+cc.regular)), "ratio")
	m.set("core.coord_prefilter_drop_frac", frac(float64(cc.dropped), coordIn), "ratio")
	m.set("core.coord_broadcasts_per_update", float64(cc.bcasts)/n, "msgs/update")
	m.set("xrand.expkey_ns", per("xrand.expkey"), "ns")
	m.set("fabric.route_ns_per_update", route, "ns")
	m.set("fabric.shard_skew", float64(maxC)*float64(len(counts))/float64(max(sumC, 1)), "ratio")
	m.set("core.snapshot_us", snapUs, "us")
	m.set("heavyhitter.candidates_us", candUs, "us")
	m.set("window.topentries_us", topUs, "us")
	m.set("wrs.query_us", median(tr.durations("wrs.query")), "us")
	m.set("core.window_site_ns_per_update", winSite, "ns")
	m.set("core.window_coord_ns_per_msg", winCoord, "ns")
	m.set("core.window_retained", float64(retained), "count")
	m.set("wrs.flush_us", median(tr.durations("wrs.flush")), "us")
	m.set("runtime.sequential_ns_per_update", seqNs, "ns")
	m.set("layers.explained_frac", frac(explained, cpuNs), "ratio")
	if w.openLoop {
		// The schedule fixes an open loop's rate, so tracing shows in CPU.
		m.set("trace.overhead_frac", median(tracedCPU)/median(untracedCPU)-1, "ratio")
	} else {
		m.set("trace.overhead_frac", 1-median(tracedUps)/median(untracedUps), "ratio")
	}
	// The p99 tails are per-layer rows, not end-to-end metrics: on a
	// shared 2-vCPU host they are set by hypervisor stalls of ~10 ms that
	// hit 1-3% of samples, so they do not repeat within any usable bound.
	m.set("bench.query_p99_us", quantile(res.query, 0.99), "us")
	m.set("bench.visible_p99_us", quantile(res.visible, 0.99), "us")
	m.set("bench.sched_lag_p99_us", quantile(res.lag, 0.99), "us")
	fmt.Printf("replay: %d updates, %d sampler msgs (%d reach the coordinator), %d broadcasts, %d window msgs, query every %d updates\n",
		in.n(), len(t.ups), len(idx), len(t.bcs), len(wups), every)
	return m, r.fails
}

func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
