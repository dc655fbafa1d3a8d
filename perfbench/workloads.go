package main

import (
	"math"
	"time"

	"wrs"
	"wrs/internal/heavyhitter"
	"wrs/internal/stream"
	"wrs/internal/workload"
	"wrs/internal/xrand"
)

// workloadSpec is one benchmark workload: the application and runtime
// under test, the shape of its generated input, and how load is offered.
type workloadSpec struct {
	name string
	why  string

	k      int
	s      int // sample size (unused by hh, whose size follows from eps and delta)
	hh     bool
	hp     heavyhitter.Params
	shards int
	fanout int // relay tree fanout; depth 0 means the flat topology
	depth  int
	width  int  // window width of the window family
	window bool // the application under test is Windowed

	// Closed loop: each round feeds n updates, bucketed per site within
	// blocks of block updates, with a Flush delivery checkpoint after every
	// cpEvery updates and at the end.
	n       int
	block   int
	cpEvery int
	// Open loop: each round replays a diurnal arrival schedule of
	// roundLen at baseHz; the feeder issues a Flush checkpoint every
	// checkpoint. probe is the period of the concurrent prober, which
	// records how late it wakes and, with probeQueries, issues a Query
	// (the write-only workload only measures wake-up lag; it queries
	// after each round's final Flush instead).
	openLoop     bool
	baseHz       float64
	roundLen     time.Duration
	checkpoint   time.Duration
	probe        time.Duration
	probeQueries bool
	// postQueries is the number of back-to-back queries issued after each
	// round's final Flush on a workload without a prober.
	postQueries int
	// setups is how many Open/Flush/Close cycles each round times besides
	// its own Open, so setup_s is a median over many set-ups (open-loop
	// rounds are few and long, so window-diurnal makes more per round).
	setups int

	weights func() stream.WeightFn
	sites   func() stream.AssignFn
}

// windowWidth is the window width of every workload's window family
// (window-diurnal's own); windowS is the window sample size replayed
// under the two sampler workloads.
const (
	windowS     = 64
	windowWidth = 4096
)

var workloads = []workloadSpec{
	{
		name: "swor-pareto",
		why:  "closed-loop write-only Sampler(16,64) on TCP: ~0.0047 msgs/update, so the site filter and client path do the work and wire, relay and coordinator almost none",
		k:    16, s: 64, shards: 1, width: windowWidth,
		n: 2 << 20, block: 1 << 14, cpEvery: 1 << 16,
		probe:       10 * time.Millisecond,
		postQueries: 40,
		setups:      3,
		weights:     func() stream.WeightFn { return stream.ParetoWeights(1.2) },
		sites:       func() stream.AssignFn { return workload.ZipfSites(16, 1.0) },
	},
	{
		name: "hh-fine-tree",
		why:  "closed-loop HeavyHitters(64,0.002,0.01) on a fanout-4 relay tree, 2 shards: ~1 msg/update loads wire, relays, the coordinator early path and 65k-entry queries",
		k:    64, hh: true, hp: heavyhitter.Params{Eps: 0.002, Delta: 0.01},
		shards: 2, fanout: 4, depth: 1, width: windowWidth,
		n: 1 << 20, block: 1 << 16, cpEvery: 1 << 16,
		probe: 125 * time.Millisecond, probeQueries: true,
		setups:  3,
		weights: func() stream.WeightFn { return stream.ParetoWeights(1.2) },
		sites:   func() stream.AssignFn { return workload.ZipfSites(64, 1.0) },
	},
	{
		name: "window-diurnal",
		why:  "open-loop Windowed(16,64,4096) on TCP at a 50k/s diurnal rate, 250 Hz queries: the only workload on the window machines; no site filter, broadcasts or relays",
		k:    16, s: 64, shards: 1, width: windowWidth, window: true,
		openLoop: true, baseHz: 50000, roundLen: 4 * time.Second,
		checkpoint: 10 * time.Millisecond, probe: 4 * time.Millisecond, probeQueries: true,
		setups:  12,
		weights: func() stream.WeightFn { return stream.ZipfWeights(1.1, 1<<20) },
		sites:   func() stream.AssignFn { return workload.ZipfSites(16, 1.0) },
	},
}

func lookupWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// chunk is one ObserveBatch call: a site and its run of arrivals.
type chunk struct {
	site  int
	items []wrs.Item
	due   time.Duration // open loop: end of the 1 ms tick the items arrived in
}

// inputs is a workload's generated input for one round, built from its
// seed before the round's clock starts. Item i has ID i.
type inputs struct {
	weights []float64 // by ID
	sites   []uint8   // by ID
	sitePos []int32   // by ID: position within its site's sub-stream
	perSite []int     // arrivals per site
	chunks  []chunk   // feed order (open loop: 1 ms ticks bucketed per site)
	heavy   uint64    // ID of the heaviest item
}

func (in *inputs) n() int { return len(in.weights) }

// generate builds the round input for seed. Weights and sites are drawn
// from independent splits of one seeded generator, and arrival times
// (open loop) from a third, so the same seed always gives the same input.
func generate(w workloadSpec, seed uint64) *inputs {
	master := xrand.New(seed)
	wrng, srng, arng := master.Split(), master.Split(), master.Split()
	wfn, sfn := w.weights(), w.sites()
	in := &inputs{perSite: make([]int, w.k)}
	var dues []time.Duration
	if w.openLoop {
		d := workload.Diurnal{
			BaseHz:     w.baseHz,
			Components: []workload.RateComponent{{Period: w.roundLen.Seconds(), Amplitude: 0.5}},
		}
		for t := d.Gap(0, arng); t < w.roundLen.Seconds(); t += d.Gap(t, arng) {
			dues = append(dues, time.Duration(t*float64(time.Second)))
		}
	}
	n := w.n
	if w.openLoop {
		n = len(dues)
	}
	in.weights = make([]float64, n)
	in.sites = make([]uint8, n)
	in.sitePos = make([]int32, n)
	maxW := math.Inf(-1)
	for i := 0; i < n; i++ {
		wt := wfn(i, wrng)
		site := sfn(i, srng)
		in.weights[i] = wt
		in.sites[i] = uint8(site)
		in.sitePos[i] = int32(in.perSite[site])
		in.perSite[site]++
		if wt > maxW {
			maxW, in.heavy = wt, uint64(i)
		}
	}
	if w.openLoop {
		// Arrivals are released in 1 ms ticks: everything due within a
		// tick is fed, per site, when the tick ends.
		in.chunks = bucket(in, w.k, func(i int) int64 { return int64(dues[i] / time.Millisecond) })
		for i := range in.chunks {
			first := in.chunks[i].items[0].ID
			in.chunks[i].due = (dues[first]/time.Millisecond + 1) * time.Millisecond
		}
	} else {
		in.chunks = bucket(in, w.k, func(i int) int64 { return int64(i / w.block) })
	}
	return in
}

// bucket splits the stream into consecutive groups (equal group(i)) and
// each group into one chunk per site, sites ascending, keeping arrival
// order within each chunk. All chunks share one backing array.
func bucket(in *inputs, k int, group func(i int) int64) []chunk {
	backing := make([]wrs.Item, 0, in.n())
	var chunks []chunk
	perSite := make([][]int, k)
	flush := func() {
		for site, ids := range perSite {
			if len(ids) == 0 {
				continue
			}
			start := len(backing)
			for _, id := range ids {
				backing = append(backing, wrs.Item{ID: uint64(id), Weight: in.weights[id]})
			}
			chunks = append(chunks, chunk{site: site, items: backing[start:len(backing):len(backing)]})
			perSite[site] = ids[:0]
		}
	}
	for i := 0; i < in.n(); i++ {
		if i > 0 && group(i) != group(i-1) {
			flush()
		}
		perSite[in.sites[i]] = append(perSite[in.sites[i]], i)
	}
	flush()
	return chunks
}

// roundSeeds derives round r's input seed and protocol seed
// (wrs.WithSeed) from the run seed. Every round draws a fresh input, so
// a run's medians average over many inputs; the replay uses round 0's.
func roundSeeds(seed uint64, r int) (input, proto uint64) {
	z := seed*0x9E3779B97F4A7C15 + uint64(r+1)*0xBF58476D1CE4E5B9
	return xrand.SplitMix64(&z), xrand.SplitMix64(&z)
}
