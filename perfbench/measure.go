package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"syscall"
	"time"
)

// latencies records one duration per operation together with the moment
// (offset into the timed phase) the operation finished, so a run can also
// report its first and second half separately.
type latencies struct {
	at  []time.Duration
	dur []time.Duration
}

func (l *latencies) add(at, d time.Duration) {
	l.at = append(l.at, at)
	l.dur = append(l.dur, d)
}

func (l *latencies) merge(o *latencies) {
	l.at = append(l.at, o.at...)
	l.dur = append(l.dur, o.dur...)
}

func (l *latencies) n() int { return len(l.dur) }

// quantile returns the nearest-rank q-quantile in milliseconds.
func quantileMS(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	i = max(0, min(i, len(s)-1))
	return ms(s[i])
}

func (l *latencies) q(q float64) float64 { return quantileMS(l.dur, q) }

// summary lists the distribution's quantiles for the report, in ms.
func (l *latencies) summary() map[string]float64 {
	return map[string]float64{
		"p50": l.q(0.5), "p90": l.q(0.9), "p95": l.q(0.95), "p99": l.q(0.99), "p999": l.q(0.999), "max": l.q(1), "n": float64(l.n()),
	}
}

// halves returns the p50 of the operations that finished in the first and
// in the second half of a phase of the given length.
func (l *latencies) halves(phase time.Duration) (first, second float64) {
	var a, b []time.Duration
	for i, at := range l.at {
		if at < phase/2 {
			a = append(a, l.dur[i])
		} else {
			b = append(b, l.dur[i])
		}
	}
	return quantileMS(a, 0.5), quantileMS(b, 0.5)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// rtSample is a reading of the Go runtime's own counters.
type rtSample struct {
	cpu    time.Duration // user + system CPU of the process (getrusage)
	allocs uint64        // cumulative heap bytes allocated
	pauses *metrics.Float64Histogram
}

const (
	mAllocs = "/gc/heap/allocs:bytes"
	mPauses = "/sched/pauses/total/gc:seconds"
	mLive   = "/gc/heap/live:bytes"
)

func readRuntime() rtSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	s := []metrics.Sample{{Name: mAllocs}, {Name: mPauses}}
	metrics.Read(s)
	return rtSample{cpu: cpu, allocs: s[0].Value.Uint64(), pauses: s[1].Value.Float64Histogram()}
}

// runtimeMetrics derives the per-layer runtime figures for ops operations
// between two readings.
func runtimeMetrics(a, b rtSample, ops int) map[string]float64 {
	if ops == 0 {
		ops = 1
	}
	return map[string]float64{
		"runtime.cpu_ms_per_op":   ms(b.cpu-a.cpu) / float64(ops),
		"runtime.alloc_kb_per_op": float64(b.allocs-a.allocs) / 1024 / float64(ops),
		"runtime.gc_pause_p99_us": pauseQuantile(a.pauses, b.pauses, 0.99) * 1e6,
	}
}

// pauseQuantile returns the q-quantile (upper bucket bound, in seconds) of
// the GC pauses recorded between two histogram readings.
func pauseQuantile(a, b *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	delta := make([]uint64, len(b.Counts))
	for i := range b.Counts {
		delta[i] = b.Counts[i] - a.Counts[i]
		total += delta[i]
	}
	if total == 0 {
		return 0
	}
	need := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i, c := range delta {
		seen += c
		if seen >= need {
			hi := b.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = b.Buckets[i]
			}
			return hi
		}
	}
	return 0
}

// halfMark takes a runtime reading once, when a phase passes its midpoint,
// so the work per operation of the two halves can be compared.
type halfMark struct {
	once sync.Once
	at   rtSample
	ops  int
}

// check records the reading if the phase is past its midpoint; ops is the
// number of operations finished so far.
func (h *halfMark) check(start time.Time, phase time.Duration, ops int) {
	if time.Since(start) >= phase/2 {
		h.once.Do(func() { h.at, h.ops = readRuntime(), ops })
	}
}

// endToEnd returns the end-to-end metrics of an untraced phase of ops
// operations between readings a and b, and the drift figures: CPU per
// operation and op p50 in each half of the phase.
func endToEnd(setups setupTimes, heap float64, a, b rtSample, mark *halfMark, ops int, lat *latencies, phase time.Duration) (map[string]float64, map[string]float64) {
	e2e := map[string]float64{
		"setup_s":       median(setups.CPU),
		"heap_live_mb":  heap,
		"cpu_ms_per_op": ms(b.cpu-a.cpu) / float64(ops),
	}
	p1, p2 := lat.halves(phase)
	drift := map[string]float64{"op_p50_first_half_ms": p1, "op_p50_second_half_ms": p2}
	if mark.ops > 0 && mark.ops < ops {
		drift["cpu_ms_per_op_first_half"] = ms(mark.at.cpu-a.cpu) / float64(mark.ops)
		drift["cpu_ms_per_op_second_half"] = ms(b.cpu-mark.at.cpu) / float64(ops-mark.ops)
	}
	return e2e, drift
}

// overhead reports the traced phase's median operation latency against the
// untraced phase's.
func overhead(oc *outcome, untraced, traced *latencies) {
	u, t := untraced.q(0.5), traced.q(0.5)
	if u > 0 {
		oc.layers["trace.overhead_pct"] = (t - u) / u * 100
	}
	oc.report["trace_overhead"] = map[string]float64{"untraced_p50_ms": u, "traced_p50_ms": t, "overhead_ms": t - u}
	oc.report["traced_ops"] = traced.n()
}

// heapLiveMB forces a collection and returns the live heap in MB (10^6 B).
func heapLiveMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: mLive}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / 1e6
}

// span is one timed call into a layer. Spans of one operation share Op, and
// Parent names the call one layer up. A child is the next layer down
// re-run on a copy of the operation's data right after its parent, so it is
// timed next to its parent rather than inside it; a layer's self time is its
// span's duration minus its children's durations.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written out when the run ends.
// A nil tracer records nothing, which is how untraced phases call it.
type tracer struct {
	t0     time.Time
	mu     sync.Mutex
	spans  []span
	counts map[string][]float64
}

func newTracer() *tracer { return &tracer{t0: time.Now(), counts: map[string][]float64{}} }

// begin opens a span starting now and returns its ID.
func (t *tracer) begin(op, parent int, name string) int {
	if t == nil {
		return 0
	}
	s := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: s, End: s})
	return id
}

// finish closes a span with the measured duration of its call.
func (t *tracer) finish(id int, d time.Duration) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = t.spans[id-1].Start + d.Nanoseconds()
}

// timed runs fn and records it as a span.
func (t *tracer) timed(op, parent int, name string, fn func() error) (int, time.Duration, error) {
	id := t.begin(op, parent, name)
	start := time.Now()
	err := fn()
	d := time.Since(start)
	t.finish(id, d)
	return id, d, err
}

// count records a per-operation count measured at a layer boundary.
func (t *tracer) count(op int, name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.counts[name] = append(t.counts[name], v)
}

// countMedian is the median over operations of a recorded count.
func (t *tracer) countMedian(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return median(t.counts[name])
}

// selfTimes returns, per span name, the self time of every span (in ms)
// and, per operation, the summed self time of that name.
func (t *tracer) selfTimes() (perCall map[string][]float64, perOp map[string]map[int]float64) {
	child := make(map[int]time.Duration)
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.dur()
		}
	}
	perCall = map[string][]float64{}
	perOp = map[string]map[int]float64{}
	for _, s := range t.spans {
		self := ms(s.dur() - child[s.ID])
		perCall[s.Name] = append(perCall[s.Name], self)
		if perOp[s.Name] == nil {
			perOp[s.Name] = map[int]float64{}
		}
		perOp[s.Name][s.Op] += self
	}
	return perCall, perOp
}

// medianPerOp is the median over operations of a span name's summed self
// time per operation.
func medianPerOp(perOp map[string]map[int]float64, name string) float64 {
	var xs []float64
	for _, v := range perOp[name] {
		xs = append(xs, v)
	}
	return median(xs)
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
