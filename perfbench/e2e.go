package main

import (
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"

	"wrs"
)

// roundStats is one round's timed window: from the first ObserveBatch to
// the return of the final Flush.
type roundStats struct {
	traced   bool
	updates  int
	wall     time.Duration
	cpu      time.Duration
	msgs     int64
	alloc    uint64
	heapLive float64 // MB
	queries  int     // queries issued inside the timed window
}

// e2eResult collects every round of one run.
type e2eResult struct {
	rounds    []roundStats
	setup     []float64 // s
	query     []float64 // us, from due time (prober) or call start
	visible   []float64 // us
	lag       []float64 // us
	attempted int64
	failed    int64
	failures  []string
}

func (r *e2eResult) op(err error, what string) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.failures) < 8 {
			r.failures = append(r.failures, fmt.Sprintf("%s: %v", what, err))
		}
	}
}

// app bundles a workload's application with its output check. check is
// given the round's input and told whether the query followed the
// round's final Flush.
type app[Q any] struct {
	open  func() wrs.App[Q]
	check func(q Q, in *inputs, final bool) error
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func heapAfterGC() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

func (w workloadSpec) runtimeSpec() wrs.RuntimeSpec {
	if w.depth > 0 {
		return wrs.TCPTree("", w.fanout, w.depth)
	}
	return wrs.TCP("")
}

// openTimed opens the application on the workload's TCP runtime and
// returns once every site connection has completed a round trip (Open
// followed by one Flush): that interval is one setup_s sample.
func openTimed[Q any](w workloadSpec, a app[Q], seed uint64) (*wrs.Handle[Q], time.Duration, error) {
	t0 := time.Now()
	h, err := wrs.Open(a.open(), wrs.WithRuntime(w.runtimeSpec()), wrs.WithShards(w.shards), wrs.WithSeed(seed))
	if err != nil {
		return nil, 0, err
	}
	if err := h.Flush(); err != nil {
		h.Close()
		return nil, 0, err
	}
	return h, time.Since(t0), nil
}

// runE2E runs the workload through the public API on TCP for about
// seconds. With tr non-nil, odd rounds record spans around every
// ObserveBatch, Flush and Query call and even rounds run untraced, so
// the two can be compared.
func runE2E[Q any](w workloadSpec, a app[Q], seed uint64, seconds int, tr *tracer) *e2eResult {
	res := &e2eResult{}
	// Latency buffers are sized before any round so their growth is not
	// charged to the timed windows' allocation and heap figures.
	res.query = make([]float64, 0, 1<<16)
	res.visible = make([]float64, 0, 1<<14)
	res.lag = make([]float64, 0, 1<<16)

	budget := time.Duration(seconds) * time.Second
	minRounds := 3
	if w.openLoop {
		minRounds = max(2, int(budget/w.roundLen))
	}
	start := time.Now()
	for r := 0; r < minRounds || (!w.openLoop && time.Since(start) < budget); r++ {
		traced := tr != nil && r%2 == 1
		var rtr *tracer
		if traced {
			rtr = tr
		}
		inSeed, proto := roundSeeds(seed, r)
		runRound(w, generate(w, inSeed), a, proto, rtr, res)
	}
	return res
}

func runRound[Q any](w workloadSpec, in *inputs, a app[Q], seed uint64, tr *tracer, res *e2eResult) {
	// Every timed set-up follows a GC, as the round's own Open does: one
	// made right after the previous Close runs about 1.5x slower while
	// that handle winds down, and a median over a mix of the two kinds
	// would move with the number of rounds.
	for j := 0; j < w.setups; j++ {
		heapAfterGC()
		h, d, err := openTimed(w, a, seed+uint64(j)+1)
		res.op(err, "setup open")
		if err != nil {
			continue
		}
		res.setup = append(res.setup, d.Seconds())
		res.op(h.Close(), "setup close")
	}
	heap0 := heapAfterGC()
	h, d, err := openTimed(w, a, seed)
	res.op(err, "open")
	if err != nil {
		return
	}
	defer func() { res.op(h.Close(), "close") }()
	res.setup = append(res.setup, d.Seconds())

	var root int32 = -1
	if tr != nil {
		root = tr.begin("e2e.round", -1)
	}
	alloc0 := totalAlloc()
	cpu0 := cpuTime()
	t0 := time.Now()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var probeQueries int
	if w.probe > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			probeQueries = probe(w, h, a, in, t0, stop, tr, root, res)
		}()
	}

	if w.openLoop {
		feedOpenLoop(w, in, h, t0, tr, root, res)
	} else {
		fed, nextCp := 0, w.cpEvery
		for i, c := range in.chunks {
			observe(h, c, tr, root, res)
			fed += len(c.items)
			if fed >= nextCp || i == len(in.chunks)-1 {
				last := time.Now()
				flush(h, tr, root, res)
				res.visible = append(res.visible, us(time.Since(last)))
				nextCp += w.cpEvery
			}
		}
	}
	wall := time.Since(t0)
	cpu := cpuTime() - cpu0
	alloc := totalAlloc() - alloc0
	close(stop)
	wg.Wait()
	if tr != nil {
		tr.end(root, int64(in.n()))
	}
	st := h.Stats()
	heap1 := heapAfterGC()

	for i := 0; i < w.postQueries; i++ {
		q0 := time.Now()
		var id int32 = -1
		if tr != nil {
			id = tr.begin("wrs.query", root)
		}
		q := h.Query()
		if tr != nil {
			tr.end(id, 1)
		}
		res.query = append(res.query, us(time.Since(q0)))
		res.op(a.check(q, in, true), "post-flush query check")
	}
	res.op(a.check(h.Query(), in, true), "final query check")

	res.rounds = append(res.rounds, roundStats{
		traced:   tr != nil,
		updates:  in.n(),
		wall:     wall,
		cpu:      cpu,
		msgs:     st.Total(),
		alloc:    alloc,
		heapLive: (float64(heap1) - float64(heap0)) / (1 << 20),
		queries:  probeQueries,
	})
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func observe[Q any](h *wrs.Handle[Q], c chunk, tr *tracer, parent int32, res *e2eResult) {
	if tr == nil {
		res.op(h.ObserveBatch(c.site, c.items), "ObserveBatch")
		return
	}
	id := tr.begin("wrs.observe_batch", parent)
	err := h.ObserveBatch(c.site, c.items)
	tr.end(id, int64(len(c.items)))
	res.op(err, "ObserveBatch")
}

func flush[Q any](h *wrs.Handle[Q], tr *tracer, parent int32, res *e2eResult) {
	if tr == nil {
		res.op(h.Flush(), "Flush")
		return
	}
	id := tr.begin("wrs.flush", parent)
	err := h.Flush()
	tr.end(id, 1)
	res.op(err, "Flush")
}

// sleepUntil parks the calling goroutine until t or until stop closes;
// it reports false when stopped.
func sleepUntil(timer *time.Timer, t time.Time, stop <-chan struct{}) bool {
	select {
	case <-stop:
		return false
	default:
	}
	d := time.Until(t)
	if d <= 0 {
		return true
	}
	timer.Reset(d)
	select {
	case <-timer.C:
		return true
	case <-stop:
		timer.Stop()
		return false
	}
}

// feedOpenLoop releases the arrivals of each 1 ms tick when the tick
// ends, whatever the program's progress, and issues a Flush checkpoint
// every w.checkpoint. Checkpoints come from the feeder goroutine because
// a Handle's Flush must not run concurrently with its ObserveBatch on
// the same site connection.
func feedOpenLoop[Q any](w workloadSpec, in *inputs, h *wrs.Handle[Q], t0 time.Time, tr *tracer, parent int32, res *e2eResult) {
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	nextCp := w.checkpoint
	for i := 0; i < len(in.chunks); {
		due := in.chunks[i].due
		sleepUntil(timer, t0.Add(due), nil)
		res.lag = append(res.lag, us(time.Since(t0)-due))
		for ; i < len(in.chunks) && in.chunks[i].due == due; i++ {
			observe(h, in.chunks[i], tr, parent, res)
		}
		if due >= nextCp || i == len(in.chunks) {
			flush(h, tr, parent, res)
			res.visible = append(res.visible, us(time.Since(t0)-due))
			for nextCp <= due {
				nextCp += w.checkpoint
			}
		}
	}
}

// probe wakes at a fixed period until stop closes and records how late
// each wake-up ran. With w.probeQueries it issues a Query at each
// wake-up, timed from its due time, and checks every answer. It returns
// the number of queries issued.
func probe[Q any](w workloadSpec, h *wrs.Handle[Q], a app[Q], in *inputs, t0 time.Time, stop <-chan struct{}, tr *tracer, parent int32, res *e2eResult) int {
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	lat := make([]float64, 0, 4096)
	lag := make([]float64, 0, 4096)
	checks := make([]error, 0, 4096)
	for i := 1; ; i++ {
		due := t0.Add(time.Duration(i) * w.probe)
		if !sleepUntil(timer, due, stop) {
			break
		}
		lag = append(lag, us(time.Since(due)))
		if !w.probeQueries {
			continue
		}
		var id int32 = -1
		if tr != nil {
			id = tr.begin("wrs.query", parent)
		}
		q := h.Query()
		if tr != nil {
			tr.end(id, 1)
		}
		lat = append(lat, us(time.Since(due)))
		checks = append(checks, a.check(q, in, false))
	}
	// The prober merges into res only after stop: the feeder has finished
	// by then and the caller waits for this goroutine before reading res.
	res.query = append(res.query, lat...)
	res.lag = append(res.lag, lag...)
	for _, err := range checks {
		res.op(err, "probe query check")
	}
	return len(lat)
}
