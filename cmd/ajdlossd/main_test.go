package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// startDaemon runs the daemon against a free port with a preloaded dataset
// and returns its base URL plus a shutdown function that asserts a clean,
// graceful exit.
func startDaemon(t *testing.T, extraArgs ...string) (string, func() error) {
	t.Helper()
	csv := filepath.Join(t.TempDir(), "block.csv")
	var rows strings.Builder
	rows.WriteString("A,B,C\n")
	for c := 1; c <= 3; c++ {
		for a := 1; a <= 2; a++ {
			for b := 1; b <= 2; b++ {
				fmt.Fprintf(&rows, "%d,%d,%d\n", 10*c+a, 100*c+b, c)
			}
		}
	}
	if err := os.WriteFile(csv, []byte(rows.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	args := append([]string{"-addr", "127.0.0.1:0", "-load", "block=" + csv}, extraArgs...)
	return bootDaemon(t, args)
}

// bootDaemon runs the daemon with the given args until it is ready and
// returns its base URL plus a shutdown function asserting a graceful exit.
func bootDaemon(t *testing.T, args []string) (string, func() error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	addrc := make(chan net.Addr, 1)
	errc := make(chan error, 1)
	go func() {
		errc <- run(ctx, args, io.Discard, io.Discard, func(a net.Addr) { addrc <- a })
	}()
	// Generous bounds: under -race with several packages' tests running in
	// parallel, a loaded machine can stretch daemon boot well past a few
	// seconds — a genuine hang is forever, so the slack costs nothing.
	select {
	case addr := <-addrc:
		return "http://" + addr.String(), func() error {
			cancel()
			select {
			case err := <-errc:
				return err
			case <-time.After(30 * time.Second):
				return fmt.Errorf("daemon did not shut down")
			}
		}
	case err := <-errc:
		t.Fatalf("daemon exited before ready: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never became ready")
	}
	panic("unreachable")
}

func getJSON(t *testing.T, url string) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, body)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestDaemonEndToEnd boots the daemon with a preloaded dataset, serves
// concurrent mixed requests against the live listener, and shuts down
// gracefully.
func TestDaemonEndToEnd(t *testing.T) {
	base, shutdown := startDaemon(t)

	if got := getJSON(t, base+"/healthz"); got["status"] != "ok" {
		t.Fatalf("healthz: %v", got)
	}
	datasets := getJSON(t, base+"/datasets")["datasets"].([]any)
	if len(datasets) != 1 || datasets[0].(map[string]any)["name"] != "block" {
		t.Fatalf("preload missing: %v", datasets)
	}

	// Concurrent mixed load against the live server.
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				switch (g + i) % 3 {
				case 0:
					rep := getJSON(t, base+"/analyze?dataset=block&schema=A,C|B,C")
					if rep["lossless"] != true {
						t.Errorf("analyze: %v", rep)
					}
				case 1:
					ent := getJSON(t, base+"/entropy?dataset=block&a=A&b=B&given=C")
					if ent["nats"].(float64) > 1e-9 {
						t.Errorf("CMI: %v", ent)
					}
				case 2:
					dis := getJSON(t, base+"/discover?dataset=block&target=1e-9&maxsep=1")
					if len(dis["mvds"].([]any)) == 0 {
						t.Errorf("discover: %v", dis)
					}
				}
			}
		}(g)
	}
	wg.Wait()

	stats := getJSON(t, base+"/stats")
	if stats["requests"].(float64) < 40 || stats["errors"].(float64) != 0 {
		t.Fatalf("stats: %v", stats)
	}
	// Dedup really happened: far fewer computations than requests.
	if stats["computed"].(float64) >= stats["requests"].(float64) {
		t.Fatalf("no dedup: %v", stats)
	}

	if err := shutdown(); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
}

// TestDaemonWatch: a -watch dataset streams rows appended to its CSV file
// into the live daemon — the row count and generation advance without a
// restart, and analysis responses echo the new generation.
func TestDaemonWatch(t *testing.T) {
	csvPath := filepath.Join(t.TempDir(), "w.csv")
	if err := os.WriteFile(csvPath, []byte("A,B\n1,1\n2,2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// -watch-tail-polls is huge so the stable-tail path never fires: this
	// test pins the complete-lines-only behavior for a file that is still
	// being written (TestDaemonWatchStableTail covers the other side).
	base, shutdown := bootDaemon(t, []string{
		"-addr", "127.0.0.1:0", "-watch", "w=" + csvPath, "-watch-interval", "25ms",
		"-watch-tail-polls", "100000"})

	datasets := getJSON(t, base+"/datasets")["datasets"].([]any)
	info := datasets[0].(map[string]any)
	if info["name"] != "w" || info["rows"] != float64(2) || info["generation"] != float64(1) {
		t.Fatalf("initial watch load: %v", info)
	}

	// The producer appends lines to the file — including a torn final line
	// ("5," has the right field count for a truncated "5,5\n" but no
	// newline yet). The daemon must absorb the complete lines and leave the
	// torn one on disk.
	f, err := os.OpenFile(csvPath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("3,3\n4,4\n5,"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	deadline := time.Now().Add(10 * time.Second)
	for {
		info := getJSON(t, base+"/datasets")["datasets"].([]any)[0].(map[string]any)
		if info["rows"] == float64(4) && info["generation"] == float64(2) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("watched rows never appeared: %v", info)
		}
		time.Sleep(25 * time.Millisecond)
	}

	// Completing the torn line makes exactly the row "5,5" appear — if the
	// watcher had parsed the fragment early, a bogus row would inflate the
	// count past 5.
	f, err = os.OpenFile(csvPath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("5\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	for {
		info := getJSON(t, base+"/datasets")["datasets"].([]any)[0].(map[string]any)
		if info["rows"] == float64(5) && info["generation"] == float64(3) {
			break
		}
		if info["rows"].(float64) > 5 {
			t.Fatalf("torn line ingested: %v", info)
		}
		if time.Now().After(deadline) {
			t.Fatalf("completed torn line never appeared: %v", info)
		}
		time.Sleep(25 * time.Millisecond)
	}

	// A permanently malformed line (ragged, then an unparseable bare quote)
	// must not wedge the watcher: bad rows are dropped or skipped, and rows
	// appended after them still stream in.
	f, err = os.OpenFile(csvPath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("ragged\n6,6\n"); err != nil { // ragged + good, same chunk
		t.Fatal(err)
	}
	f.Close()
	waitRows := func(want float64) {
		t.Helper()
		for {
			info := getJSON(t, base+"/datasets")["datasets"].([]any)[0].(map[string]any)
			if info["rows"] == want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("rows never reached %v: %v", want, info)
			}
			time.Sleep(25 * time.Millisecond)
		}
	}
	waitRows(6) // "6,6" landed, "ragged" dropped
	f, err = os.OpenFile(csvPath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("a\"b,7\n"); err != nil { // unparseable chunk
		t.Fatal(err)
	}
	f.Close()
	// The watcher retries an unparseable chunk a few ticks (it could be a
	// torn quoted field) before skipping it; leave room for that.
	time.Sleep(time.Second)
	f, err = os.OpenFile(csvPath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("8,8\n"); err != nil { // must still stream in
		t.Fatal(err)
	}
	f.Close()
	waitRows(7)
	ent := getJSON(t, base+"/entropy?dataset=w&attrs=A")
	if ent["generation"] != float64(5) || ent["rows"] != float64(7) {
		t.Fatalf("entropy after watch append: %v", ent)
	}
	// The watcher dropped the "ragged" row and skipped the unparseable
	// `a"b,7` line: both must be counted in /stats, per dataset, not only
	// logged to stderr.
	stats := getJSON(t, base+"/stats")
	skipped, ok := stats["skipped_lines"].(map[string]any)
	if !ok || skipped["w"] != float64(2) {
		t.Fatalf("skipped_lines = %v, want {w: 2} (stats: %v)", stats["skipped_lines"], stats)
	}
	if err := shutdown(); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
}

// TestDaemonWatchReplace: atomically replacing the watched file with
// different, larger content must not be tailed from the stale offset (which
// would ingest mid-row fragments as phantom rows); the watcher detects the
// broken newline sentinel and re-reads from the top.
func TestDaemonWatchReplace(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "w.csv")
	if err := os.WriteFile(csvPath, []byte("A,B\n1,1\n2,2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	base, shutdown := bootDaemon(t, []string{
		"-addr", "127.0.0.1:0", "-watch", "w=" + csvPath, "-watch-interval", "25ms"})

	// Replace with larger content that does NOT have a newline at the old
	// offset boundary; rows are a superset plus fresh ones.
	next := filepath.Join(dir, "next.csv")
	if err := os.WriteFile(next, []byte("A,B\n10,10\n20,20\n30,30\n40,40\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(next, csvPath); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		info := getJSON(t, base+"/datasets")["datasets"].([]any)[0].(map[string]any)
		// Old rows stay (appends are add-only); all four new rows must land
		// exactly once: 2 + 4 = 6.
		if info["rows"] == float64(6) {
			break
		}
		if info["rows"].(float64) > 6 {
			t.Fatalf("phantom rows ingested after replacement: %v", info)
		}
		if time.Now().After(deadline) {
			t.Fatalf("replacement content never ingested: %v", info)
		}
		time.Sleep(25 * time.Millisecond)
	}
	if err := shutdown(); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
}

// TestDaemonWatchListenFailure: with -watch active, a listener that cannot
// bind must surface the error immediately — run() must not hang behind the
// still-ticking watch goroutine.
func TestDaemonWatchListenFailure(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	csvPath := filepath.Join(t.TempDir(), "w.csv")
	if err := os.WriteFile(csvPath, []byte("A,B\n1,1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		errc <- run(context.Background(),
			[]string{"-addr", ln.Addr().String(), "-watch", "w=" + csvPath},
			io.Discard, io.Discard, nil)
	}()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("bind conflict not reported")
		}
	// A real hang is forever; the generous bound just keeps slow loaded
	// machines from flaking the distinction.
	case <-time.After(30 * time.Second):
		t.Fatal("run() hung behind the watch goroutine on listener failure")
	}
}

func TestDaemonBadFlags(t *testing.T) {
	ctx := context.Background()
	var stderr strings.Builder
	if err := run(ctx, []string{"-nope"}, io.Discard, &stderr, nil); err == nil {
		t.Fatal("unknown flag accepted")
	}
	if !strings.Contains(stderr.String(), "-addr") {
		t.Fatalf("usage not on stderr: %q", stderr.String())
	}
	if err := run(ctx, []string{"-load", "nopath"}, io.Discard, io.Discard, nil); err == nil {
		t.Fatal("bad -load accepted")
	}
	// A non-positive poll interval would panic time.NewTicker in the watch
	// goroutine; it must be rejected at startup instead.
	if err := run(ctx, []string{"-watch", "w=x.csv", "-watch-interval", "0s"}, io.Discard, io.Discard, nil); err == nil ||
		!strings.Contains(err.Error(), "watch-interval") {
		t.Fatalf("non-positive -watch-interval accepted: %v", err)
	}
	if err := run(ctx, []string{"-load", "x=/does/not/exist.csv"}, io.Discard, io.Discard, nil); err == nil {
		t.Fatal("missing preload file accepted")
	}
	// A malformed preload CSV must fail startup with the ingestion error.
	dir := os.TempDir()
	bad := filepath.Join(dir, "ajdlossd_bad_header.csv")
	if err := os.WriteFile(bad, []byte("A,A\n1,2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	defer os.Remove(bad)
	err := run(ctx, []string{"-load", "x=" + bad}, io.Discard, io.Discard, nil)
	if err == nil || !strings.Contains(err.Error(), "duplicate attribute") {
		t.Fatalf("malformed preload error = %v", err)
	}
	if err := run(ctx, []string{"-cache", "-1"}, io.Discard, io.Discard, nil); err == nil ||
		!strings.Contains(err.Error(), "-cache") {
		t.Fatalf("negative -cache accepted: %v", err)
	}
	if err := run(ctx, []string{"-quota-rows", "-5"}, io.Discard, io.Discard, nil); err == nil ||
		!strings.Contains(err.Error(), "quota") {
		t.Fatalf("negative -quota-rows accepted: %v", err)
	}
	if err := run(ctx, []string{"-default-ns", "Bad NS"}, io.Discard, io.Discard, nil); err == nil ||
		!strings.Contains(err.Error(), "-default-ns") {
		t.Fatalf("invalid -default-ns accepted: %v", err)
	}
}

// TestDaemonNamespaceFlags: -default-ns points the legacy routes at a named
// namespace and -quota-datasets/-quota-rows apply to every namespace, with
// over-quota requests rejected as 429.
func TestDaemonNamespaceFlags(t *testing.T) {
	base, shutdown := startDaemon(t, "-default-ns", "tenant-x", "-quota-datasets", "2", "-quota-rows", "100")

	if got := getJSON(t, base+"/v1/namespaces"); got["default"] != "tenant-x" {
		t.Fatalf("default namespace: %v", got)
	}
	// The -load preload landed in the default namespace, so the legacy alias
	// and /v1/tenant-x see the same dataset.
	v1 := getJSON(t, base+"/v1/tenant-x/datasets")["datasets"].([]any)
	if len(v1) != 1 || v1[0].(map[string]any)["name"] != "block" {
		t.Fatalf("/v1/tenant-x/datasets: %v", v1)
	}

	post := func(path, body string) int {
		resp, err := http.Post(base+path, "text/csv", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	// Second dataset fits the 2-dataset quota; a third does not.
	if code := post("/datasets?name=two", "A,B\n1,2\n"); code != http.StatusCreated {
		t.Fatalf("second dataset: %d", code)
	}
	if code := post("/datasets?name=three", "A,B\n1,2\n"); code != http.StatusTooManyRequests {
		t.Fatalf("over dataset quota: got %d, want 429", code)
	}
	// Another namespace gets its own fresh quota.
	if code := post("/v1/other/datasets?name=three", "A,B\n1,2\n"); code != http.StatusCreated {
		t.Fatalf("fresh namespace register: %d", code)
	}
	// 13 rows are in tenant-x; an append pushing past -quota-rows 100 is
	// rejected and leaves the dataset untouched.
	var big strings.Builder
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&big, "%d,%d,%d\n", 1000+i, 2000+i, 7)
	}
	if code := post("/datasets/block/append", big.String()); code != http.StatusTooManyRequests {
		t.Fatalf("over row quota: got %d, want 429", code)
	}
	if got := getJSON(t, base+"/v1/tenant-x/stats"); got["rows"] != float64(13) {
		t.Fatalf("rows after rejected append: %v", got["rows"])
	}

	if err := shutdown(); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
}

// TestNewServerTimeouts: the daemon's server bounds how long a client may
// take to send its headers and how long an idle keep-alive connection stays
// open.
func TestNewServerTimeouts(t *testing.T) {
	srv := newServer(http.NotFoundHandler())
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.ReadHeaderTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout = %v, want %v", srv.ReadHeaderTimeout, readHeaderTimeout)
	}
	if srv.IdleTimeout != idleTimeout || srv.IdleTimeout <= 0 {
		t.Fatalf("IdleTimeout = %v, want %v", srv.IdleTimeout, idleTimeout)
	}
}
