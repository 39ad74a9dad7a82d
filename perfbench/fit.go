package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"os"
	"time"

	"ajdloss/internal/core"
	"ajdloss/internal/discovery"
	"ajdloss/internal/join"
	"ajdloss/internal/jointree"
	"ajdloss/internal/relation"
	"ajdloss/internal/service"
)

// The fit workload is the paper's use case: one client uploads a fresh
// relation, discovers a schema for it, analyzes the discovered schema and a
// fixed chain schema (J, ρ and their bounds), and deletes it. Every step
// works on new data, so nothing is served from the cache.

const fitNS = "fit"

// tolerance for the paper's inequalities on floating-point answers.
func tol(x float64) float64 { return 1e-9 * math.Max(1, math.Abs(x)) }

// checkLoss checks a loss view against the uploaded relation: n rows, the
// join holds the relation plus its spurious tuples, and Lemma 4.1's
// J ≤ log(1+ρ).
func checkLoss(what string, l service.LossView, n int, j float64) error {
	if l.N != n {
		return fmt.Errorf("%s: n=%d, uploaded %d rows", what, l.N, n)
	}
	if l.JoinSize != int64(l.N)+l.Spurious {
		return fmt.Errorf("%s: join_size %d != n %d + spurious %d", what, l.JoinSize, l.N, l.Spurious)
	}
	if j > l.LogOnePlusRho+tol(l.LogOnePlusRho) {
		return fmt.Errorf("%s: Lemma 4.1 violated: J=%g > log(1+rho)=%g", what, j, l.LogOnePlusRho)
	}
	return nil
}

func checkDiscover(dv *service.DiscoverView, n int) error {
	if dv.Rows != n {
		return fmt.Errorf("discover: rows=%d, uploaded %d", dv.Rows, n)
	}
	if err := checkLoss("discover chow_liu", dv.ChowLiu.Loss, n, dv.ChowLiu.J); err != nil {
		return err
	}
	if err := checkLoss("discover best", dv.Best.Loss, n, dv.Best.J); err != nil {
		return err
	}
	for _, m := range dv.MVDs {
		if l := math.Log1p(m.Rho); m.J > l+tol(l) {
			return fmt.Errorf("discover mvd %v: Lemma 4.1 violated: J=%g > log(1+rho)=%g", m.X, m.J, l)
		}
	}
	return nil
}

func checkReport(rep *service.ReportView, n int) error {
	if rep.N != n {
		return fmt.Errorf("analyze %s: n=%d, uploaded %d", rep.Schema, rep.N, n)
	}
	if err := checkLoss("analyze "+rep.Schema, rep.Loss, n, rep.J); err != nil {
		return err
	}
	if rep.RhoLower > rep.Loss.Rho+tol(rep.Loss.Rho) {
		return fmt.Errorf("analyze %s: rho_lower_bound %g > rho %g", rep.Schema, rep.RhoLower, rep.Loss.Rho)
	}
	return nil
}

type fitWork struct {
	inputs []fitInput
	svc    *service.Service
	h      http.Handler
	copy   *service.Service // traced ladder: the same calls one layer down
}

// fitIDs are the handler spans of one traced operation, parents of the
// ladder's service-layer spans.
type fitIDs struct {
	register, discover int
	analyze            []int
}

// op runs one fit operation through the handler. It returns the summed
// handler time (the operation's latency) and the latency of each read.
func (w *fitWork) op(op int, name string, in fitInput, tr *tracer) (time.Duration, []time.Duration, error) {
	root := tr.begin(op, 0, "fit.op")
	var total time.Duration
	var reads []time.Duration
	var ids fitIDs
	do := func(spanName, method, target string, body []byte, ctype string, want int, v any) (int, error) {
		id := tr.begin(op, root, spanName)
		code, b, d := call(w.h, method, target, body, ctype)
		tr.finish(id, d)
		total += d
		if method == http.MethodGet {
			reads = append(reads, d)
		}
		return id, decode(code, want, b, v)
	}
	var info service.Info
	var err error
	ids.register, err = do("http.register", http.MethodPost, "/v1/"+fitNS+"/datasets?name="+name, in.csv, "text/csv", http.StatusCreated, &info)
	if err == nil && info.Rows != in.rows {
		err = fmt.Errorf("register: %d rows, uploaded %d", info.Rows, in.rows)
	}
	var dv service.DiscoverView
	if err == nil {
		ids.discover, err = do("http.discover", http.MethodGet, "/v1/"+fitNS+"/discover?dataset="+name+"&target="+fitTarget+"&maxsep="+fitMaxSep, nil, "", http.StatusOK, &dv)
		if err == nil {
			err = checkDiscover(&dv, in.rows)
		}
	}
	schemas := [][][]string{dv.Best.Bags, fitChain}
	for _, s := range schemas {
		if err != nil {
			break
		}
		var rep service.ReportView
		var id int
		id, err = do("http.analyze", http.MethodGet, "/v1/"+fitNS+"/analyze?dataset="+name+"&schema="+schemaParam(s), nil, "", http.StatusOK, &rep)
		if err == nil {
			err = checkReport(&rep, in.rows)
		}
		ids.analyze = append(ids.analyze, id)
	}
	if tr != nil && err == nil {
		err = w.traceHits(tr, op, name, schemas)
	}
	if _, derr := do("http.remove", http.MethodDelete, "/v1/"+fitNS+"/datasets/"+name, nil, "", http.StatusOK, nil); err == nil {
		err = derr
	}
	tr.finish(root, total)
	if tr != nil && err == nil {
		err = w.ladder(tr, op, ids, in, name, schemas)
	}
	return total, reads, err
}

// traceHits re-issues the operation's reads, now cache hits, through the
// handler and directly through the service: the difference is the HTTP
// layer's own decode, routing and encoding.
func (w *fitWork) traceHits(tr *tracer, op int, name string, schemas [][][]string) error {
	disc := "/v1/" + fitNS + "/discover?dataset=" + name + "&target=" + fitTarget + "&maxsep=" + fitMaxSep
	id := tr.begin(op, 0, "http.hit")
	code, _, d := call(w.h, http.MethodGet, disc, nil, "")
	tr.finish(id, d)
	if code != http.StatusOK {
		return fmt.Errorf("discover hit: status %d", code)
	}
	if _, _, err := tr.timed(op, id, "service.hit", func() error {
		_, err := w.svc.DiscoverIn(fitNS, name, 0.05, 2)
		return err
	}); err != nil {
		return err
	}
	for _, s := range schemas {
		id := tr.begin(op, 0, "http.hit")
		code, _, d := call(w.h, http.MethodGet, "/v1/"+fitNS+"/analyze?dataset="+name+"&schema="+schemaParam(s), nil, "")
		tr.finish(id, d)
		if code != http.StatusOK {
			return fmt.Errorf("analyze hit: status %d", code)
		}
		if _, _, err := tr.timed(op, id, "service.hit", func() error {
			_, err := w.svc.AnalyzeIn(fitNS, name, serviceSchema(s))
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

// refineSets are the lattice nodes discovery with maxsep=2 reads before its
// per-pair leaves: every attribute set of size ≤ 3 (each separator of size
// ≤ 2, alone and with one more attribute).
func refineSets(attrs []string) [][]string {
	var out [][]string
	var rec func(start int, cur []string)
	rec = func(start int, cur []string) {
		if len(cur) > 0 {
			out = append(out, append([]string(nil), cur...))
		}
		if len(cur) == 3 {
			return
		}
		for i := start; i < len(attrs); i++ {
			rec(i+1, append(cur, attrs[i]))
		}
	}
	rec(0, nil)
	return out
}

// ladder re-runs the operation one layer at a time on copies: the service
// calls on a second service, then CSV parsing, a cold engine refinement,
// the discovery searches, the join counts of every candidate and the two
// analyses, each call recorded as a child of the call one layer up.
func (w *fitWork) ladder(tr *tracer, op int, ids fitIDs, in fitInput, name string, schemas [][][]string) error {
	regID, _, err := tr.timed(op, ids.register, "service.register", func() error {
		_, err := w.copy.Registry().RegisterIn(fitNS, name, bytes.NewReader(in.csv), true)
		return err
	})
	if err != nil {
		return err
	}
	discID, _, err := tr.timed(op, ids.discover, "service.discover", func() error {
		_, err := w.copy.DiscoverIn(fitNS, name, 0.05, 2)
		return err
	})
	if err != nil {
		return err
	}
	anIDs := make([]int, len(schemas))
	for k, s := range schemas {
		if anIDs[k], _, err = tr.timed(op, ids.analyze[k], "service.analyze", func() error {
			_, err := w.copy.AnalyzeIn(fitNS, name, serviceSchema(s))
			return err
		}); err != nil {
			return err
		}
	}
	w.copy.RemoveIn(fitNS, name)

	var rel *relation.Relation
	if _, _, err := tr.timed(op, regID, "relation.parse", func() error {
		var err error
		rel, _, err = relation.ReadCSV(bytes.NewReader(in.csv), true)
		return err
	}); err != nil {
		return err
	}
	var plan interface{ Len() int }
	if _, _, err := tr.timed(op, discID, "engine.refine", func() error {
		p := rel.Snapshot().Plan()
		for _, set := range refineSets(rel.Attrs()) {
			if err := p.AddEntropy(set...); err != nil {
				return err
			}
		}
		p.Run(0)
		plan = p
		return nil
	}); err != nil {
		return err
	}
	tr.count(op, "engine.refine_sets", float64(plan.Len()))
	var cl discovery.Candidate
	if _, _, err := tr.timed(op, discID, "discovery.chowliu", func() error {
		var err error
		cl, err = discovery.ChowLiu(rel)
		return err
	}); err != nil {
		return err
	}
	var mvds []discovery.MVDCandidate
	if _, _, err := tr.timed(op, discID, "discovery.findmvds", func() error {
		var err error
		mvds, err = discovery.FindMVDs(rel, 2, 0.05)
		return err
	}); err != nil {
		return err
	}
	var path []discovery.Candidate
	if _, _, err := tr.timed(op, discID, "discovery.coarsen", func() error {
		var err error
		path, err = discovery.Coarsen(rel, cl.Tree, 0.05)
		return err
	}); err != nil {
		return err
	}
	cands := []*jointree.Schema{cl.Schema()}
	if len(path) > 1 {
		cands = append(cands, path[len(path)-1].Schema())
	}
	for _, m := range mvds {
		s, err := jointree.MVDSchema(m.X, m.Groups...)
		if err != nil {
			return err
		}
		cands = append(cands, s)
	}
	for k, s := range schemas {
		sch, err := jointree.ParseSchema(serviceSchema(s))
		if err != nil {
			return err
		}
		aid, _, err := tr.timed(op, anIDs[k], "core.analyze", func() error {
			_, err := core.Analyze(rel, sch)
			return err
		})
		if err != nil {
			return err
		}
		if err := countJoin(tr, op, aid, rel, sch); err != nil {
			return err
		}
	}
	for _, s := range cands {
		if err := countJoin(tr, op, discID, rel, s); err != nil {
			return err
		}
	}
	tr.count(op, "join.candidates", float64(len(cands)+len(schemas)))
	return nil
}

func countJoin(tr *tracer, op, parent int, rel *relation.Relation, s *jointree.Schema) error {
	_, _, err := tr.timed(op, parent, "join.count", func() error {
		_, err := join.CountAcyclicJoin(rel, s)
		return err
	})
	return err
}

func newFitWork(inputs []fitInput) (*fitWork, error) {
	svc := service.New(256)
	w := &fitWork{inputs: inputs, svc: svc, h: service.NewHandler(svc), copy: service.New(256)}
	// Warm-up: one full operation on every input.
	for i, in := range inputs {
		if _, _, err := w.op(0, fmt.Sprintf("warm%d", i), in, nil); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return w, nil
}

func runFit(cfg config) (*outcome, error) {
	inputs, err := genFit(cfg.seed)
	if err != nil {
		return nil, err
	}
	w, setups, err := timeSetups(func() (*fitWork, error) { return newFitWork(inputs) }, func(*fitWork) {})
	if err != nil {
		return nil, err
	}
	oc := &outcome{e2e: map[string]float64{}, layers: map[string]float64{}, report: map[string]any{}}
	next := 0
	phase := func(tr *tracer) (*latencies, *latencies, time.Duration, int, *halfMark) {
		var opLat, readLat latencies
		var mark halfMark
		start := time.Now()
		n := 0
		for ; cfg.more(start, n); mark.check(start, cfg.phaseLen(), n) {
			in := w.inputs[next%len(w.inputs)]
			d, reads, err := w.op(next, fmt.Sprintf("f%d", next), in, tr)
			next++
			n++
			oc.attempted++
			if err != nil {
				oc.failed++
				fmt.Fprintf(os.Stderr, "fit op %d: %v\n", next-1, err)
				continue
			}
			at := time.Since(start)
			opLat.add(at, d)
			for _, r := range reads {
				readLat.add(at, r)
			}
		}
		return &opLat, &readLat, time.Since(start), n, &mark
	}
	rt0 := readRuntime()
	opLat, readLat, elapsed, n, mark := phase(nil)
	rt1 := readRuntime()
	var drift map[string]float64
	oc.e2e, drift = endToEnd(setups, heapLiveMB(), rt0, rt1, mark, n, opLat, elapsed)
	oc.report = map[string]any{
		"workload":     "fit",
		"inputs":       fitDigest(inputs),
		"setup_s_runs": setups,
		"setup_wall_s": median(setups.Wall),
		"ops_per_s":    float64(opLat.n()) / elapsed.Seconds(),
		"fit_p50_ms":   opLat.q(0.5),
		"fit_p90_ms":   opLat.q(0.9),
		"read_p50_ms":  readLat.q(0.5),
		"read_p90_ms":  readLat.q(0.9),
		"fit_ms":       opLat.summary(),
		"read_ms":      readLat.summary(),
		"samples":      map[string]int{"fit": opLat.n(), "read": readLat.n()},
		"tail":         "p90: the highest of p90/p99 with at least 10 samples beyond it at the expected sample count",
		"drift":        drift,
		"phase_s":      elapsed.Seconds(),
	}
	if !cfg.trace {
		return oc, nil
	}
	for k, v := range runtimeMetrics(rt0, rt1, n) {
		oc.layers[k] = v
	}
	tr := newTracer()
	tracedLat, _, _, _, _ := phase(tr)
	perCall, perOp := tr.selfTimes()
	for _, name := range []string{"relation.parse", "service.register", "engine.refine", "discovery.chowliu", "discovery.findmvds", "discovery.coarsen", "core.analyze"} {
		oc.layers[name+"_ms"] = medianPerOp(perOp, name)
	}
	oc.layers["join.count_ms"] = median(perCall["join.count"])
	oc.layers["http.self_us"] = medianPerOp(perOp, "http.hit") * 1000
	oc.layers["service.hit_us"] = median(perCall["service.hit"]) * 1000
	oc.layers["engine.refine_sets"] = tr.countMedian("engine.refine_sets")
	oc.layers["join.candidates"] = tr.countMedian("join.candidates")
	overhead(oc, opLat, tracedLat)
	oc.tr = tr
	return oc, nil
}

func fitDigest(inputs []fitInput) map[string]any {
	var parts [][]byte
	kinds := make([]string, len(inputs))
	for i, in := range inputs {
		parts = append(parts, in.csv)
		kinds[i] = in.kind
	}
	return map[string]any{"digest": digest(parts...), "kinds": kinds, "rows": fitRows, "attrs": fitAttrs}
}
