package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"ajdloss/internal/discovery"
	"ajdloss/internal/infotheory"
	"ajdloss/internal/jointree"
	"ajdloss/internal/persist"
	"ajdloss/internal/relation"
	"ajdloss/internal/service"
)

// The ingest workload mixes writes with fresh reads on a durable service:
// one writer appends 200 fresh rows, then discovers (maxsep=1) and runs one
// batch at the new generation. Every ingestEpoch appends the dataset is
// replaced by a fresh base, after the data directory has been copied and
// recovered into a new service — so the work per operation stays constant
// however long the run is.

// ingestCompactAt is the WAL size (the daemon's -wal-compact) that triggers
// a background checkpoint; at ≈3 KB of WAL per append it fires three to
// four times per epoch.
const ingestCompactAt = 32 << 10

type ingestWork struct {
	cfg  config
	pool []ingestEpochData
	dir  string
	svc  *service.Service
	h    http.Handler

	epoch     int // index of the live dataset
	live      bool
	name      string
	data      *ingestEpochData
	gen       int64
	lastBatch []byte // the primary's newest batch answer
	warmDisc  discovery.MemoCounters

	// Accumulated over the phase.
	recomputed, coldRuns int64
	restarts             []float64
	checkpoints          []int64 // background checkpoints per epoch

	lad *ingestLadder // traced phase only
}

// ingestLadder is the traced phase's copy of the live dataset, one layer
// per field: a non-durable service, a bare relation with its encoder and
// discovery memo, and a scratch persist store.
type ingestLadder struct {
	shadow  *service.Service
	rel     *relation.Relation
	enc     *relation.Encoder
	memo    *discovery.Memo
	scratch *persist.Store
	ds      *persist.DatasetStore

	walBytes, ckptBytes, csvBytes int64
}

func (w *ingestWork) key() string { return ingestNS + "/" + w.name }

func newIngestWork(cfg config, pool []ingestEpochData, dir string) (*ingestWork, error) {
	store, err := persist.Open(dir, persist.Options{CompactAt: ingestCompactAt})
	if err != nil {
		return nil, err
	}
	svc := service.New(256)
	if _, err := svc.EnableDurability(store); err != nil {
		return nil, err
	}
	w := &ingestWork{cfg: cfg, pool: pool, dir: dir, svc: svc, h: service.NewHandler(svc)}
	return w, w.beginEpoch(nil, 0)
}

func (w *ingestWork) teardown() {
	if w.live {
		w.svc.RemoveIn(ingestNS, w.name)
	}
	os.RemoveAll(w.dir)
}

// freshRead discovers and runs the read batch at the current generation.
func (w *ingestWork) freshRead(tr *tracer, op, root int) (time.Duration, error) {
	wantRows := ingestBase + int(w.gen-1)*ingestBatch
	var dv service.DiscoverView
	disc := "/v1/" + ingestNS + "/discover?dataset=" + w.name + "&target=" + fitTarget + "&maxsep=1"
	id := tr.begin(op, root, "http.discover")
	code, body, d1 := call(w.h, http.MethodGet, disc, nil, "")
	tr.finish(id, d1)
	if err := decode(code, http.StatusOK, body, &dv); err != nil {
		return 0, fmt.Errorf("discover: %w", err)
	}
	if dv.Generation != w.gen || dv.Rows != wantRows {
		return 0, fmt.Errorf("discover answered generation %d with %d rows, want %d with %d", dv.Generation, dv.Rows, w.gen, wantRows)
	}
	req, _ := json.Marshal(map[string]any{"dataset": w.name, "queries": ingestReadBatch})
	id = tr.begin(op, root, "http.batch")
	code, body, d2 := call(w.h, http.MethodPost, "/v1/"+ingestNS+"/batch", req, "application/json")
	tr.finish(id, d2)
	var bv service.BatchView
	if err := decode(code, http.StatusOK, body, &bv); err != nil {
		return 0, fmt.Errorf("batch: %w", err)
	}
	if bv.Generation != w.gen || bv.Rows != wantRows {
		return 0, fmt.Errorf("batch answered generation %d with %d rows, want %d with %d", bv.Generation, bv.Rows, w.gen, wantRows)
	}
	w.lastBatch = bytes.Clone(body)
	if tr != nil {
		// Replays, now cache hits, through the handler and the service.
		for _, r := range []struct {
			method, target string
			body           []byte
			direct         func() error
		}{
			{http.MethodGet, disc, nil, func() error { _, err := w.svc.DiscoverIn(ingestNS, w.name, 0.05, 1); return err }},
			{http.MethodPost, "/v1/" + ingestNS + "/batch", req, func() error { _, err := w.svc.BatchIn(ingestNS, w.name, ingestReadBatch); return err }},
		} {
			hid := tr.begin(op, 0, "http.hit")
			code, _, d := call(w.h, r.method, r.target, r.body, "application/json")
			tr.finish(hid, d)
			if code != http.StatusOK {
				return 0, fmt.Errorf("hit replay: status %d", code)
			}
			if _, _, err := tr.timed(op, hid, "service.hit", r.direct); err != nil {
				return 0, err
			}
		}
	}
	return d1 + d2, nil
}

// beginEpoch registers the next base dataset and does its first fresh read
// (which also materializes its discovery memo).
func (w *ingestWork) beginEpoch(tr *tracer, epoch int) error {
	w.epoch, w.name = epoch, fmt.Sprintf("e%d", epoch)
	w.data = &w.pool[epoch%len(w.pool)]
	code, body, _ := call(w.h, http.MethodPost, "/v1/"+ingestNS+"/datasets?name="+w.name, w.data.baseCSV, "text/csv")
	var info service.Info
	if err := decode(code, http.StatusCreated, body, &info); err != nil {
		return fmt.Errorf("registering %s: %w", w.name, err)
	}
	w.live, w.gen = true, info.Generation
	if _, err := w.freshRead(nil, 0, 0); err != nil {
		return fmt.Errorf("first read of %s: %w", w.name, err)
	}
	if st := w.svc.Stats(); st.Discovery != nil {
		w.warmDisc = *st.Discovery
	}
	if tr != nil {
		return w.beginLadder()
	}
	return nil
}

func (w *ingestWork) beginLadder() error {
	l := &ingestLadder{shadow: service.New(256), memo: discovery.NewMemo()}
	if _, err := l.shadow.Registry().RegisterIn(ingestNS, w.name, bytes.NewReader(w.data.baseCSV), true); err != nil {
		return err
	}
	if _, err := l.shadow.DiscoverIn(ingestNS, w.name, 0.05, 1); err != nil {
		return err
	}
	if _, err := l.shadow.BatchIn(ingestNS, w.name, ingestReadBatch); err != nil {
		return err
	}
	var err error
	if l.rel, l.enc, err = relation.ReadCSV(bytes.NewReader(w.data.baseCSV), true); err != nil {
		return err
	}
	for _, a := range l.rel.Attrs() {
		if _, err := infotheory.Entropy(l.rel, a); err != nil {
			return err
		}
	}
	if _, _, err := l.refresh(); err != nil {
		return err
	}
	if l.scratch, err = persist.Open(filepath.Join(w.cfg.scratch, "ladder"), persist.Options{CompactAt: -1}); err != nil {
		return err
	}
	if l.ds, err = l.scratch.Dataset(ingestNS, w.name); err != nil {
		return err
	}
	if w.lad != nil {
		l.walBytes, l.ckptBytes, l.csvBytes = w.lad.walBytes, w.lad.ckptBytes, w.lad.csvBytes
	}
	w.lad = l
	return nil
}

// refresh runs the discovery searches of the fresh read on the bare
// relation's memo and returns the view and the schemas it found.
func (l *ingestLadder) refresh() (*relation.Relation, []*jointree.Schema, error) {
	v := l.rel.View()
	cl, err := l.memo.ChowLiu(v)
	if err != nil {
		return nil, nil, err
	}
	mvds, err := l.memo.FindMVDs(v, 1, 0.05)
	if err != nil {
		return nil, nil, err
	}
	schemas := []*jointree.Schema{cl.Schema()}
	for _, m := range mvds {
		s, err := jointree.MVDSchema(m.X, m.Groups...)
		if err != nil {
			return nil, nil, err
		}
		schemas = append(schemas, s)
	}
	return v, schemas, nil
}

// op appends batch k of the epoch and does the fresh read.
func (w *ingestWork) op(tr *tracer, op, k int) (appendDur, readDur time.Duration, err error) {
	root := tr.begin(op, 0, "ingest.op")
	body := w.data.bodies[k]
	id := tr.begin(op, root, "http.append")
	code, resp, d := call(w.h, http.MethodPost, "/v1/"+ingestNS+"/datasets/"+w.name+"/append", body, "text/csv")
	tr.finish(id, d)
	var av service.AppendView
	if err := decode(code, http.StatusOK, resp, &av); err != nil {
		return 0, 0, fmt.Errorf("append: %w", err)
	}
	if av.Generation != w.gen+1 || av.Appended != ingestBatch || av.Duplicates != 0 {
		return 0, 0, fmt.Errorf("append: generation %d→%d, %d appended, %d duplicates; want +1, %d, 0", w.gen, av.Generation, av.Appended, av.Duplicates, ingestBatch)
	}
	w.gen = av.Generation
	if tr != nil {
		if err := w.appendLadder(tr, op, root, id, k); err != nil {
			return 0, 0, err
		}
	}
	rd, err := w.freshRead(tr, op, root)
	if err != nil {
		return 0, 0, err
	}
	tr.finish(root, d+rd)
	return d, rd, nil
}

// appendLadder repeats append k one layer at a time: on the shadow
// service, as a bare Relation.Append, and as a WAL append (with the
// compaction checkpoint when the scratch WAL outgrows ingestCompactAt), then
// the fresh read's discovery on the shadow and on the bare memo.
func (w *ingestWork) appendLadder(tr *tracer, op, root, appendID, k int) error {
	l := w.lad
	recs := w.data.batches[k]
	sid, _, err := tr.timed(op, appendID, "service.append", func() error {
		_, err := l.shadow.AppendIn(ingestNS, w.name, recs, false)
		return err
	})
	if err != nil {
		return err
	}
	tuples := make([]relation.Tuple, len(recs))
	for i, r := range recs {
		if tuples[i], err = l.enc.Encode(r); err != nil {
			return err
		}
	}
	if _, _, err := tr.timed(op, sid, "engine.extend", func() error {
		_, err := l.rel.Append(tuples)
		return err
	}); err != nil {
		return err
	}
	before := l.ds.WALBytes()
	if _, _, err := tr.timed(op, appendID, "persist.wal", func() error { return l.ds.AppendWAL(w.gen, recs) }); err != nil {
		return err
	}
	l.walBytes += l.ds.WALBytes() - before
	l.csvBytes += int64(len(w.data.bodies[k]))
	if l.ds.WALBytes() >= ingestCompactAt {
		ck := checkpointOf(w.name, l.rel, l.enc)
		if _, _, err := tr.timed(op, root, "persist.checkpoint", func() error { return l.ds.WriteCheckpoint(ck) }); err != nil {
			return err
		}
		fi, err := os.Stat(filepath.Join(w.cfg.scratch, "ladder", ingestNS, w.name, "checkpoint.ckpt"))
		if err != nil {
			return err
		}
		l.ckptBytes += fi.Size()
	}
	did, _, err := tr.timed(op, 0, "service.discover", func() error {
		_, err := l.shadow.DiscoverIn(ingestNS, w.name, 0.05, 1)
		return err
	})
	if err != nil {
		return err
	}
	// Below the service's discover: the memo refresh, then ρ of every
	// candidate it found.
	var view *relation.Relation
	var cands []*jointree.Schema
	if _, _, err := tr.timed(op, did, "discovery.refresh", func() error {
		var err error
		view, cands, err = l.refresh()
		return err
	}); err != nil {
		return err
	}
	for _, s := range cands {
		if err := countJoin(tr, op, did, view, s); err != nil {
			return err
		}
	}
	tr.count(op, "join.candidates", float64(len(cands)))
	_, _, err = tr.timed(op, 0, "service.batch", func() error {
		_, err := l.shadow.BatchIn(ingestNS, w.name, ingestReadBatch)
		return err
	})
	return err
}

// checkpointOf builds the checkpoint of a relation's current rows.
func checkpointOf(name string, rel *relation.Relation, enc *relation.Encoder) *persist.Checkpoint {
	cols := make([][]int32, rel.Arity())
	for c := range cols {
		cols[c] = make([]int32, rel.N())
	}
	for i, row := range rel.Rows() {
		for c, v := range row {
			cols[c][i] = v
		}
	}
	return &persist.Checkpoint{Name: name, Attrs: rel.Attrs(), Generation: rel.Generation(), Dicts: enc.Dictionaries(), Columns: cols}
}

// copyData copies the data directory for a restart: every WAL first, then
// the checkpoints, skipping temporaries. A background compaction publishes
// the new checkpoint before it rewrites the WAL, so this order never pairs
// a compacted WAL with an older checkpoint.
func copyData(src, dst string) error {
	for pass := 0; pass < 2; pass++ {
		err := filepath.WalkDir(src, func(p string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			isWAL := d.Name() == "wal.log"
			if strings.HasSuffix(d.Name(), ".tmp") || isWAL != (pass == 0) {
				return nil
			}
			rel, err := filepath.Rel(src, p)
			if err != nil {
				return err
			}
			return copyFile(p, filepath.Join(dst, rel))
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return err
	}
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// waitCompaction waits until no background checkpoint can be pending: no
// append is in flight, so once the WAL is below the threshold none starts.
func (w *ingestWork) waitCompaction() (int64, error) {
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := w.svc.Stats()
		if d, ok := st.Durability[w.key()]; ok && d.WALBytes < ingestCompactAt {
			return d.Checkpoints, nil
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("background checkpoint of %s did not finish", w.name)
		}
		time.Sleep(time.Millisecond)
	}
}

// recoverCopy copies the data directory and recovers it into a new
// service; with materialize every dataset is decoded before it returns.
func (w *ingestWork) recoverCopy(dst string, materialize bool) (*service.Service, error) {
	st, err := persist.Open(dst, persist.Options{CompactAt: -1})
	if err != nil {
		return nil, err
	}
	svc := service.New(256)
	if _, err := svc.EnableDurability(st); err != nil {
		return nil, err
	}
	if materialize {
		return svc, svc.MaterializeAll()
	}
	return svc, nil
}

// endEpoch measures a restart from a copy of the data directory (to the
// first correct batch answer), then deletes the dataset.
func (w *ingestWork) endEpoch(tr *tracer, op int) error {
	ckpts, err := w.waitCompaction()
	if err != nil {
		return err
	}
	w.checkpoints = append(w.checkpoints, ckpts-1) // minus the registration's
	if st := w.svc.Stats(); st.Discovery != nil {
		w.recomputed += st.Discovery.RecomputedNodes - w.warmDisc.RecomputedNodes
		w.coldRuns += st.Discovery.ColdRuns - w.warmDisc.ColdRuns
	}
	copyDir := filepath.Join(w.cfg.scratch, "restart")
	defer os.RemoveAll(copyDir)
	if err := copyData(w.dir, copyDir); err != nil {
		return err
	}
	req, _ := json.Marshal(map[string]any{"dataset": w.name, "queries": ingestReadBatch})
	rid := tr.begin(op, 0, "ingest.restart")
	start := time.Now()
	svc2, err := w.recoverCopy(copyDir, false)
	if err != nil {
		return fmt.Errorf("recovering %s: %w", w.name, err)
	}
	code, body, _ := call(service.NewHandler(svc2), http.MethodPost, "/v1/"+ingestNS+"/batch", req, "application/json")
	restart := time.Since(start)
	tr.finish(rid, restart)
	svc2.RemoveIn(ingestNS, w.name)
	if code != http.StatusOK || !bytes.Equal(body, w.lastBatch) {
		return fmt.Errorf("recovered %s answers %d %s, primary answered %s", w.name, code, bytes.TrimSpace(body), bytes.TrimSpace(w.lastBatch))
	}
	w.restarts = append(w.restarts, ms(restart))
	if tr != nil {
		if err := w.restartLadder(tr, op, rid); err != nil {
			return err
		}
	}
	code, body, _ = call(w.h, http.MethodDelete, "/v1/"+ingestNS+"/datasets/"+w.name, nil, "")
	if err := decode(code, http.StatusOK, body, nil); err != nil {
		return fmt.Errorf("deleting %s: %w", w.name, err)
	}
	w.live = false
	return nil
}

// restartLadder times the restart's layers on further copies: the
// service's recovery with every dataset materialized, and below it the
// persist layer's checkpoint and WAL load.
func (w *ingestWork) restartLadder(tr *tracer, op, rid int) error {
	dir := filepath.Join(w.cfg.scratch, "restart-ladder")
	defer os.RemoveAll(dir)
	if err := copyData(w.dir, dir); err != nil {
		return err
	}
	var svc *service.Service
	sid, _, err := tr.timed(op, rid, "service.recover", func() error {
		var err error
		svc, err = w.recoverCopy(dir, true)
		return err
	})
	if err != nil {
		return err
	}
	svc.RemoveIn(ingestNS, w.name)
	if err := copyData(w.dir, dir); err != nil {
		return err
	}
	_, _, err = tr.timed(op, sid, "persist.recover", func() error {
		st, err := persist.Open(dir, persist.Options{CompactAt: -1})
		if err != nil {
			return err
		}
		ds, err := st.Dataset(ingestNS, w.name)
		if err != nil {
			return err
		}
		defer ds.Close()
		_, _, err = ds.Load()
		return err
	})
	if err != nil {
		return err
	}
	l := w.lad
	l.ds.Close()
	l.shadow.RemoveIn(ingestNS, w.name)
	return l.scratch.Remove(ingestNS, w.name)
}

func runIngest(cfg config) (*outcome, error) {
	pool, err := genIngest(cfg.seed)
	if err != nil {
		return nil, err
	}
	setupN := 0
	w, setups, err := timeSetups(func() (*ingestWork, error) {
		setupN++
		return newIngestWork(cfg, pool, filepath.Join(cfg.scratch, fmt.Sprintf("data%d", setupN)))
	}, (*ingestWork).teardown)
	if err != nil {
		return nil, err
	}
	defer w.teardown()
	oc := &outcome{e2e: map[string]float64{}, layers: map[string]float64{}, report: map[string]any{}}
	opID := 0
	var heap float64
	phase := func(tr *tracer) (*latencies, *latencies, time.Duration, int, *halfMark, error) {
		var app, read latencies
		var mark halfMark
		start := time.Now()
		n := 0
		w.recomputed, w.coldRuns, w.restarts, w.checkpoints = 0, 0, nil, nil
		for {
			if !w.live {
				if err := w.beginEpoch(tr, w.epoch+1); err != nil {
					return nil, nil, 0, 0, nil, err
				}
			} else if tr != nil {
				if err := w.beginLadder(); err != nil {
					return nil, nil, 0, 0, nil, err
				}
			}
			for k := 0; k < ingestEpoch; k++ {
				opID++
				oc.attempted++
				a, r, err := w.op(tr, opID, k)
				if err != nil {
					// A failed append leaves the generation chain unknown:
					// the epoch cannot continue.
					oc.failed++
					return nil, nil, 0, 0, nil, fmt.Errorf("ingest op %d: %w", opID, err)
				}
				n++
				at := time.Since(start)
				app.add(at, a)
				read.add(at, r)
				mark.check(start, cfg.phaseLen(), n)
			}
			done := !cfg.more(start, n)
			if done && tr == nil {
				heap = heapLiveMB()
			}
			opID++
			if err := w.endEpoch(tr, opID); err != nil {
				oc.attempted++
				oc.failed++
				return nil, nil, 0, 0, nil, err
			}
			if done {
				return &app, &read, time.Since(start), n, &mark, nil
			}
		}
	}
	rt0 := readRuntime()
	app, read, elapsed, n, mark, err := phase(nil)
	if err != nil {
		return nil, err
	}
	rt1 := readRuntime()
	var drift map[string]float64
	oc.e2e, drift = endToEnd(setups, heap, rt0, rt1, mark, n, app, elapsed)
	restart := median(w.restarts)
	var parts [][]byte
	for _, e := range pool {
		parts = append(parts, e.baseCSV)
		parts = append(parts, e.bodies...)
	}
	oc.report = map[string]any{
		"workload":              "ingest",
		"inputs":                map[string]any{"digest": digest(parts...), "base_rows": ingestBase, "attrs": ingestAttrs, "rows_per_append": ingestBatch, "appends_per_epoch": ingestEpoch},
		"setup_s_runs":          setups,
		"setup_wall_s":          median(setups.Wall),
		"appends_per_s":         float64(n) / elapsed.Seconds(),
		"append_p50_ms":         app.q(0.5),
		"append_p99_ms":         app.q(0.99),
		"fresh_read_p50_ms":     read.q(0.5),
		"fresh_read_p99_ms":     read.q(0.99),
		"append_ms":             app.summary(),
		"fresh_read_ms":         read.summary(),
		"restart_ms":            restart,
		"restart_ms_runs":       w.restarts,
		"samples":               map[string]int{"append": app.n(), "fresh_read": read.n(), "restart": len(w.restarts)},
		"tail":                  "p99: the highest of p90/p99 with at least 10 samples beyond it at the expected sample count",
		"checkpoints_per_epoch": w.checkpoints,
		"wal_compact_bytes":     ingestCompactAt,
		"drift":                 drift,
		"phase_s":               elapsed.Seconds(),
	}
	if !cfg.trace {
		return oc, nil
	}
	for k, v := range runtimeMetrics(rt0, rt1, n) {
		oc.layers[k] = v
	}
	oc.layers["discovery.recomputed_nodes"] = float64(w.recomputed) / float64(n)
	oc.layers["discovery.cold_runs"] = float64(w.coldRuns)
	tr := newTracer()
	traced, _, _, _, _, err := phase(tr)
	if err != nil {
		return nil, err
	}
	perCall, perOp := tr.selfTimes()
	oc.layers["persist.wal_append_us"] = median(perCall["persist.wal"]) * 1000
	oc.layers["engine.extend_ms"] = median(perCall["engine.extend"])
	oc.layers["persist.checkpoint_ms"] = median(perCall["persist.checkpoint"])
	oc.layers["discovery.refresh_ms"] = median(perCall["discovery.refresh"])
	oc.layers["join.count_ms"] = median(perCall["join.count"])
	oc.layers["join.candidates"] = tr.countMedian("join.candidates")
	oc.layers["persist.recover_ms"] = median(perCall["persist.recover"])
	oc.layers["service.materialize_ms"] = median(perCall["service.recover"])
	oc.layers["service.hit_us"] = median(perCall["service.hit"]) * 1000
	var httpSelf []float64
	for op, hit := range perOp["http.hit"] {
		httpSelf = append(httpSelf, (hit+perOp["http.append"][op])*1000)
	}
	oc.layers["http.self_us"] = median(httpSelf)
	if l := w.lad; l != nil && l.csvBytes > 0 {
		oc.layers["persist.write_amp"] = float64(l.walBytes+l.ckptBytes) / float64(l.csvBytes)
	}
	overhead(oc, app, traced)
	oc.tr = tr
	return oc, nil
}
