package main

import (
	"encoding/json"
	"maps"
	"math"
	"os"
	"slices"
	"testing"
	"time"
)

// These tests run the workloads in-process, briefly:
//
//	cd perfbench && go test ./...

// runBrief runs one workload and returns its result and report.
func runBrief(t *testing.T, cfg config) (*result, map[string]any) {
	t.Helper()
	cfg.scratch = t.TempDir()
	res, rep, err := run(cfg, t.TempDir())
	if err != nil {
		t.Fatalf("%s seed %d: %v", cfg.workload, cfg.seed, err)
	}
	if res.Failed != 0 || !res.Correct {
		t.Fatalf("%s seed %d: %d of %d operations failed", cfg.workload, cfg.seed, res.Failed, res.Attempted)
	}
	return res, rep
}

// bounds reads the end-to-end bounds from BENCHMARK.json.
func bounds(t *testing.T) map[string]float64 {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for _, m := range spec.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out
}

// TestDrift fails when a workload's work per operation in the second half
// of its timed phase differs from the first half's by more than the
// cpu_ms_per_op bound, which is how a workload whose operations grow with
// run length (a dataset that keeps growing) shows up. The check uses
// process CPU per operation rather than the op p50 the report also
// halves: on a shared VM, steal time moves wall-clock p50 within a run
// by more than the bound.
func TestDrift(t *testing.T) {
	bound := bounds(t)["cpu_ms_per_op"]
	for _, wl := range []string{"fit", "serve", "ingest"} {
		_, rep := runBrief(t, config{workload: wl, seed: 7, dur: 10 * time.Second})
		d := rep["drift"].(map[string]float64)
		first, second := d["cpu_ms_per_op_first_half"], d["cpu_ms_per_op_second_half"]
		if first == 0 || second == 0 {
			t.Fatalf("%s: no CPU reading for one half: %v", wl, d)
		}
		if rel := math.Abs(second-first) / first; rel > bound {
			t.Errorf("%s: %.4g CPU ms per op in the first half, %.4g in the second: drift %.2f > bound %.2f", wl, first, second, rel, bound)
		}
	}
}

// countMetrics are the per-layer metrics that count work rather than time
// it; a seed fixes them exactly.
func countMetrics(res *result) map[string]float64 {
	out := map[string]float64{}
	for name, m := range res.Metrics {
		if m.Unit == "count" || name == "persist.write_amp" {
			out[name] = m.Value
		}
	}
	return out
}

// TestServeInputs checks that the serve workload's inputs depend on the
// seed alone: the same seed gives the same datasets and reads, in order.
func TestServeInputs(t *testing.T) {
	fingerprint := func(seed uint64) string {
		in, err := genServe(seed)
		if err != nil {
			t.Fatal(err)
		}
		parts := append([][]byte(nil), in.datasets...)
		for _, kind := range serveKinds {
			for _, k := range in.keys[kind] {
				parts = append(parts, []byte(k.target), k.body)
			}
		}
		return digest(parts...)
	}
	a, b, c := fingerprint(11), fingerprint(11), fingerprint(12)
	if a != b {
		t.Errorf("seed 11 generated different serve inputs: %s, %s", a, b)
	}
	if a == c {
		t.Errorf("seeds 11 and 12 generated the same serve inputs")
	}
}

func metricNames(res *result) []string {
	var out []string
	for name := range res.Metrics {
		out = append(out, name)
	}
	slices.Sort(out)
	return out
}

// TestDeterminism runs fit and ingest twice with one seed and a fixed
// operation count, and checks that the per-layer counts repeat exactly;
// a second seed must change the inputs but not the set of metrics.
func TestDeterminism(t *testing.T) {
	for _, tc := range []struct {
		wl  string
		ops int
	}{{"fit", 4}, {"ingest", 40}} {
		cfg := config{workload: tc.wl, seed: 11, dur: time.Minute, trace: true, maxOps: tc.ops}
		a, repA := runBrief(t, cfg)
		b, _ := runBrief(t, cfg)
		ca, cb := countMetrics(a), countMetrics(b)
		if !maps.Equal(ca, cb) {
			t.Errorf("%s: per-layer counts differ between runs with one seed:\n%v\n%v", tc.wl, ca, cb)
		}
		nonzero := 0
		for _, v := range ca {
			if v != 0 {
				nonzero++
			}
		}
		if nonzero == 0 {
			t.Errorf("%s: no per-layer count measured: %v", tc.wl, ca)
		}
		cfg.seed = 12
		c, repC := runBrief(t, cfg)
		inA := repA["inputs"].(map[string]any)["digest"]
		inC := repC["inputs"].(map[string]any)["digest"]
		if inA == inC {
			t.Errorf("%s: seeds 11 and 12 generated the same inputs (%v)", tc.wl, inA)
		}
		if ka, kc := metricNames(a), metricNames(c); !slices.Equal(ka, kc) {
			t.Errorf("%s: metric sets differ between seeds:\n%v\n%v", tc.wl, ka, kc)
		}
	}
}
