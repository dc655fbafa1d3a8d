// Command perfbench is the repository benchmark. It runs one workload
// through the public wrs API on the TCP runtimes, checks every answer,
// and prints the end-to-end metrics; with -trace 1 it instead records
// spans around every API call, replays the same input through each
// layer's public functions, and prints the per-layer metrics. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": V, "unit": "U"}, ...}}
//
// Run it from the repository root through perfbench/run.sh, which builds
// it; see perfbench/README.md for the workloads and metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"wrs"
)

// defaultSeed is the seed used while the benchmark was written;
// verificationSeed is held back, so a later claim can be checked on a
// seed its author did not tune against.
const (
	defaultSeed      = 1
	verificationSeed = 20261017
)

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", defaultSeed, "seed of every round's input and protocol seed")
	seconds := fs.Int("seconds", 20, "measured seconds per run")
	trace := fs.Int("trace", 0, "1: traced run with layer replay, printing per-layer metrics")
	out := fs.String("out", ".bench_build/perfbench", "directory for span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q; known:", *name)
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, " %s", w.name)
		}
		fmt.Fprintln(os.Stderr)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	printMeta(w, *seed, *seconds, *trace)

	o := runOpts{seed: *seed, seconds: *seconds, trace: *trace == 1, out: *out}
	var r result
	switch {
	case w.window:
		r = bench(w, app[wrs.WindowSample]{
			open:  func() wrs.App[wrs.WindowSample] { return wrs.Windowed(w.k, w.s, w.width) },
			check: checkWindow(w.s, w.width),
		}, o)
	case w.hh:
		r = bench(w, app[[]wrs.Item]{
			open:  func() wrs.App[[]wrs.Item] { return wrs.HeavyHitters(w.k, w.hp.Eps, w.hp.Delta) },
			check: checkHH(w.hp),
		}, o)
	default:
		r = bench(w, app[[]wrs.Sampled]{
			open:  func() wrs.App[[]wrs.Sampled] { return wrs.Sampler(w.k, w.s) },
			check: checkSampler(w.s),
		}, o)
	}

	for _, f := range r.failures {
		fmt.Printf("FAILED: %s\n", f)
	}
	r.metrics.print()
	fmt.Printf("failed_frac %.6g (%d of %d operations and checks)\n", float64(r.failed)/float64(max(r.attempted, 1)), r.failed, r.attempted)
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0 && len(r.failures) == 0, max(r.attempted, 1), r.failed, r.metrics.m})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

type runOpts struct {
	seed    uint64
	seconds int
	trace   bool
	out     string
}

type result struct {
	metrics   metrics
	attempted int64
	failed    int64
	failures  []string
}

func bench[Q any](w workloadSpec, a app[Q], o runOpts) result {
	if !o.trace {
		res := runE2E(w, a, o.seed, o.seconds, nil)
		return result{metrics: e2eMetrics(res), attempted: res.attempted, failed: res.failed, failures: res.failures}
	}
	tr := newTracer(fmt.Sprintf("%s-seed%d", w.name, o.seed))
	res := runE2E(w, a, o.seed, o.seconds, tr)
	inSeed, proto := roundSeeds(o.seed, 0)
	m, fails := layerMetrics(w, generate(w, inSeed), res, tr, proto)
	r := result{metrics: m, attempted: res.attempted + 1, failed: res.failed, failures: res.failures}
	if len(fails) > 0 {
		// The replay-fidelity check is one operation of the traced run.
		r.failed++
		r.failures = append(r.failures, fails...)
	}
	path, err := tr.write(filepath.Join(o.out, "spans"))
	if err != nil {
		r.failures = append(r.failures, "writing spans: "+err.Error())
	} else {
		fmt.Printf("spans: %s\n", path)
	}
	return r
}

// e2eMetrics reduces the untraced rounds of a run: per-round figures are
// medians over rounds, latency quantiles medians over time blocks.
func e2eMetrics(res *e2eResult) metrics {
	var ups, cpu, msgs, alloc, heap []float64
	for _, r := range res.rounds {
		if r.traced {
			continue
		}
		n := float64(r.updates)
		ups = append(ups, n/r.wall.Seconds())
		cpu = append(cpu, float64(r.cpu.Nanoseconds())/n)
		msgs = append(msgs, float64(r.msgs)/n)
		alloc = append(alloc, float64(r.alloc)/n)
		heap = append(heap, r.heapLive)
	}
	var m metrics
	m.set("updates_per_s", median(ups), "1/s")
	m.set("cpu_ns_per_update", median(cpu), "ns")
	m.set("msgs_per_update", median(msgs), "msgs/update")
	m.set("query_p50_us", blockQuantile(res.query, 0.5), "us")
	m.set("query_p75_us", blockQuantile(res.query, 0.75), "us")
	m.set("visible_p50_us", blockQuantile(res.visible, 0.5), "us")
	m.set("visible_p75_us", blockQuantile(res.visible, 0.75), "us")
	m.set("alloc_bytes_per_update", median(alloc), "B/update")
	m.set("heap_live_mb", median(heap), "MB")
	m.set("setup_s", median(res.setup), "s")
	fmt.Printf("rounds %d, queries %d, checkpoints %d, setups %d\n", len(ups), len(res.query), len(res.visible), len(res.setup))
	return m
}

// printMeta prints the host and build record of this run.
func printMeta(w workloadSpec, seed uint64, seconds, trace int) {
	commit, dirty := "unknown", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	if dirty {
		commit += "+dirty"
	}
	meta := map[string]any{
		"workload":          w.name,
		"why":               w.why,
		"seed":              seed,
		"verification_seed": verificationSeed,
		"seconds":           seconds,
		"trace":             trace,
		"nproc":             runtime.NumCPU(),
		"gomaxprocs":        runtime.GOMAXPROCS(0),
		"goarch":            runtime.GOARCH,
		"go":                runtime.Version(),
		"commit":            commit,
		"date":              time.Now().UTC().Format("2006-01-02"),
	}
	b, _ := json.Marshal(map[string]any{"meta": meta}) // a map of plain values always marshals
	fmt.Println(string(b))
}
