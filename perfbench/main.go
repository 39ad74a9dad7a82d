// Command perfbench is the repository's benchmark for ajdlossd: it drives
// the real service.NewHandler in-process (no sockets) through one of three
// closed-loop workloads — fit, serve and ingest — checks every answer, and
// prints one JSON result line. See README.md in this directory.
//
//	bash perfbench/run.sh --workload fit --seed 1 --seconds 20 --trace 0
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one run's settings.
type config struct {
	workload string
	seed     uint64
	dur      time.Duration // timed phase
	trace    bool
	maxOps   int    // > 0: stop each timed phase after this many operations
	scratch  string // private scratch directory of this run
}

// outcome is what a workload hands back: operation counts, the end-to-end
// metrics (untraced runs), the per-layer metrics (traced runs) and a report
// with the workload's own metric names, sample counts and drift halves.
type outcome struct {
	attempted, failed int
	e2e               map[string]float64
	layers            map[string]float64
	report            map[string]any
	tr                *tracer
}

// Units of the end-to-end metrics, identical for every workload.
var e2eUnits = map[string]string{
	"setup_s":       "s",
	"heap_live_mb":  "MB",
	"cpu_ms_per_op": "ms",
}

// Units of the per-layer metrics. Every workload reports all of them; a
// layer a workload does not exercise reads 0.
var layerUnits = map[string]string{
	"relation.parse_ms":          "ms",
	"service.register_ms":        "ms",
	"engine.refine_ms":           "ms",
	"engine.refine_sets":         "count",
	"discovery.chowliu_ms":       "ms",
	"discovery.findmvds_ms":      "ms",
	"discovery.coarsen_ms":       "ms",
	"join.count_ms":              "ms",
	"join.candidates":            "count",
	"core.analyze_ms":            "ms",
	"http.self_us":               "us",
	"service.hit_us":             "us",
	"service.miss_us":            "us",
	"engine.eval_us":             "us",
	"service.hit_ratio":          "ratio",
	"service.coalesced":          "per_1k_req",
	"persist.wal_append_us":      "us",
	"engine.extend_ms":           "ms",
	"persist.checkpoint_ms":      "ms",
	"persist.write_amp":          "ratio",
	"discovery.refresh_ms":       "ms",
	"discovery.recomputed_nodes": "count",
	"discovery.cold_runs":        "count",
	"persist.recover_ms":         "ms",
	"service.materialize_ms":     "ms",
	"runtime.cpu_ms_per_op":      "ms",
	"runtime.alloc_kb_per_op":    "KiB",
	"runtime.gc_pause_p99_us":    "us",
	"trace.overhead_pct":         "%",
}

var workloads = map[string]func(config) (*outcome, error){
	"fit":    runFit,
	"serve":  runServe,
	"ingest": runIngest,
}

func main() {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: fit, serve or ingest")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 30, "length of the timed phase")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if _, ok := workloads[*workload]; !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload fit|serve|ingest, -seconds >= 1, -trace 0|1")
		os.Exit(2)
	}
	// Run from the checkout root: scratch data and outputs go under
	// .bench_build/perfbench there.
	const root = "."
	out := filepath.Join(root, ".bench_build", "perfbench")
	if err := os.MkdirAll(out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	scratch, err := os.MkdirTemp(out, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg := config{
		workload: *workload, seed: *seed, dur: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, scratch: scratch,
	}
	res, rep, err := run(cfg, root)
	os.RemoveAll(scratch)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	name := fmt.Sprintf("%s-trace%d", cfg.workload, *trace)
	if b, err := json.MarshalIndent(rep, "", "  "); err == nil {
		if err := os.WriteFile(filepath.Join(out, name+".report.json"), b, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
		}
	}
	b, _ := json.Marshal(rep)
	fmt.Printf("report %s\n", b)
	b, _ = json.Marshal(res)
	fmt.Println(string(b))
}

// run executes one workload and assembles its result and report. With
// cfg.trace the span log is written next to the report.
func run(cfg config, root string) (*result, map[string]any, error) {
	oc, err := workloads[cfg.workload](cfg)
	if err != nil {
		return nil, nil, err
	}
	res := &result{
		Correct:   oc.failed == 0,
		Attempted: oc.attempted,
		Failed:    oc.failed,
		Metrics:   map[string]metric{},
	}
	if oc.attempted == 0 {
		return nil, nil, fmt.Errorf("%s: no operation completed", cfg.workload)
	}
	units, values := e2eUnits, oc.e2e
	if cfg.trace {
		units, values = layerUnits, oc.layers
	}
	for name, unit := range units {
		res.Metrics[name] = metric{Value: values[name], Unit: unit}
	}
	rep := oc.report
	rep["env"] = envRecord(cfg, root)
	rep["attempted"], rep["failed"] = oc.attempted, oc.failed
	if cfg.trace && oc.tr != nil {
		path := filepath.Join(root, ".bench_build", "perfbench", cfg.workload+".spans.jsonl")
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return nil, nil, err
		}
		if err := oc.tr.write(path); err != nil {
			return nil, nil, fmt.Errorf("writing spans: %w", err)
		}
		rep["spans"] = map[string]any{"file": filepath.Join(".bench_build", "perfbench", cfg.workload+".spans.jsonl"), "count": len(oc.tr.spans)}
	}
	return res, rep, nil
}

// envRecord identifies the machine, toolchain and source the run measured.
func envRecord(cfg config, root string) map[string]any {
	return map[string]any{
		"go":                runtime.Version(),
		"goos":              runtime.GOOS,
		"goarch":            runtime.GOARCH,
		"cpu":               cpuModel(),
		"nproc":             runtime.NumCPU(),
		"gomaxprocs":        runtime.GOMAXPROCS(0),
		"engine_worker_cap": "0 (GOMAXPROCS; the daemon's -procs 0 default)",
		"commit":            sourceDigest(root),
		"seed":              cfg.seed,
		"seconds":           cfg.dur.Seconds(),
		"trace":             cfg.trace,
		"wal_compact_bytes": ingestCompactAt,
		"fsync":             false,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest stands in for the commit: checkouts the benchmark runs in
// need not be git repositories, so it fingerprints the module's Go sources
// outside this directory (plus go.mod), in path order.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", ".bench_build", "perfbench", "testdata":
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") || d.Name() == "go.mod" {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	var parts [][]byte
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		parts = append(parts, []byte(rel), b)
	}
	return "src-sha256:" + digest(parts...)
}

// call sends one request through the in-process handler and returns the
// status, the response body and the handler's wall time.
func call(h http.Handler, method, target string, body []byte, ctype string) (int, []byte, time.Duration) {
	var r io.Reader
	if body != nil {
		r = bytes.NewReader(body)
	}
	req := httptest.NewRequest(method, target, r)
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	w := httptest.NewRecorder()
	start := time.Now()
	h.ServeHTTP(w, req)
	d := time.Since(start)
	return w.Code, w.Body.Bytes(), d
}

// decode unmarshals a response body, reporting the status on mismatch.
func decode(code, want int, body []byte, v any) error {
	if code != want {
		return fmt.Errorf("status %d (want %d): %s", code, want, bytes.TrimSpace(body))
	}
	if v == nil {
		return nil
	}
	return json.Unmarshal(body, v)
}

// more reports whether another operation should start: a phase runs for
// phaseLen, or for cfg.maxOps operations when that is set.
func (cfg config) more(start time.Time, ops int) bool {
	if cfg.maxOps > 0 {
		return ops < cfg.maxOps
	}
	return time.Since(start) < cfg.phaseLen()
}

// phaseLen is the length of one timed phase: a traced run splits its time
// into an untraced phase (runtime counters, overhead baseline) and a
// traced phase (spans).
func (cfg config) phaseLen() time.Duration {
	if cfg.trace {
		return cfg.dur / 2
	}
	return cfg.dur
}

// setupRepeats is how often a run builds its set-up from scratch; setup_s
// is the median.
const setupRepeats = 5

// setupTimes are the wall and process CPU seconds of each set-up of a run.
type setupTimes struct {
	Wall []float64 `json:"wall_s"`
	CPU  []float64 `json:"cpu_s"`
}

// timeSetups runs build setupRepeats times, tearing down all but the last
// result, and returns the last result with every set-up's times.
func timeSetups[T any](build func() (T, error), teardown func(T)) (T, setupTimes, error) {
	var last T
	var st setupTimes
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			teardown(last)
		}
		runtime.GC()
		start, cpu := time.Now(), readRuntime().cpu
		v, err := build()
		if err != nil {
			return last, st, fmt.Errorf("set-up: %w", err)
		}
		st.Wall = append(st.Wall, time.Since(start).Seconds())
		st.CPU = append(st.CPU, (readRuntime().cpu - cpu).Seconds())
		last = v
	}
	return last, st, nil
}
