package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call, or one chunk of calls into a layer: Count is
// the number of calls (or items) it covers, so per-call timer overhead
// does not swamp operations of tens of nanoseconds.
type span struct {
	ID, Parent int32
	Name       string
	Start, End int64 // ns since the run started
	Count      int64
}

// tracer keeps the spans of one run (its id is run) in memory; write
// saves them when the run ends. It is safe for concurrent use (the
// feeder and the prober both record).
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	run   string
	spans []span
}

func newTracer(run string) *tracer {
	return &tracer{t0: time.Now(), run: run, spans: make([]span, 0, 1<<16)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent int32) int32 {
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: start})
	return id
}

// end closes span id, covering count calls.
func (t *tracer) end(id int32, count int64) {
	end := t.now()
	t.mu.Lock()
	t.spans[id].End = end
	t.spans[id].Count = count
	t.mu.Unlock()
}

// add records a closed span measured by the caller (replay passes time
// their own chunks with now()).
func (t *tracer) add(name string, parent int32, start, end, count int64) {
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: int32(len(t.spans)), Parent: parent, Name: name, Start: start, End: end, Count: count})
	t.mu.Unlock()
}

// spanItems is the least number of calls a replay span covers.
const spanItems = 512

// batcher times consecutive chunks of calls into one layer and closes a
// span once it covers at least spanItems calls.
type batcher struct {
	tr     *tracer
	name   string
	parent int32
	t0, n  int64
}

func (t *tracer) batch(name string, parent int32) *batcher {
	return &batcher{tr: t, name: name, parent: parent, t0: t.now()}
}

// done counts n more calls since the last span closed.
func (b *batcher) done(n int) {
	b.n += int64(n)
	if b.n >= spanItems {
		now := b.tr.now()
		b.tr.add(b.name, b.parent, b.t0, now, b.n)
		b.t0, b.n = now, 0
	}
}

func (b *batcher) close() {
	if b.n > 0 {
		b.tr.add(b.name, b.parent, b.t0, b.tr.now(), b.n)
	}
}

// selfTimes returns, per span name, the summed self time (duration minus
// the part covered by child spans) and the summed count.
func (t *tracer) selfTimes() map[string][2]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string][2]int64)
	for i, s := range t.spans {
		v := out[s.Name]
		v[0] += s.End - s.Start - child[i]
		v[1] += s.Count
		out[s.Name] = v
	}
	return out
}

// durations returns the duration of every span named name, in µs.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// write saves the spans under dir as JSON lines: a header line naming the
// run and the fields, then one array per span.
func (t *tracer) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, t.run+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	defer t.mu.Unlock()
	err = enc.Encode(map[string]any{"run": t.run, "fields": []string{"id", "parent", "name", "start_ns", "end_ns", "count"}})
	for _, s := range t.spans {
		if err != nil {
			break
		}
		err = enc.Encode([]any{s.ID, s.Parent, s.Name, s.Start, s.End, s.Count})
	}
	if err != nil {
		f.Close()
		return "", err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	return path, nil
}

// quantile returns the nearest-rank q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// latBlocks is the number of consecutive time blocks a run's latency
// samples are cut into for blockQuantile.
const latBlocks = 5

// blockQuantile is the median over latBlocks consecutive blocks of
// time-ordered samples of each block's q-quantile, so a burst of load
// from outside the program that covers less than half the run does not
// move it. With fewer than ten samples per block it is the plain
// nearest-rank quantile.
func blockQuantile(xs []float64, q float64) float64 {
	if len(xs) < 10*latBlocks {
		return quantile(xs, q)
	}
	per := make([]float64, latBlocks)
	for b := range per {
		per[b] = quantile(xs[b*len(xs)/latBlocks:(b+1)*len(xs)/latBlocks], q)
	}
	return median(per)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// metric is one printed figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics struct {
	order []string
	m     map[string]metric
}

func (ms *metrics) set(name string, v float64, unit string) {
	if ms.m == nil {
		ms.m = make(map[string]metric)
	}
	if _, ok := ms.m[name]; !ok {
		ms.order = append(ms.order, name)
	}
	ms.m[name] = metric{Value: v, Unit: unit}
}

func (ms *metrics) print() {
	for _, name := range ms.order {
		v := ms.m[name]
		fmt.Printf("%-40s %14.6g %s\n", name, v.Value, v.Unit)
	}
}
