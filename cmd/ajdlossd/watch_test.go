package main

import (
	"context"
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

// syncBuffer is a concurrency-safe writer the tests hand to run() as stderr
// so they can assert on watcher log lines while the daemon is live.
type syncBuffer struct {
	mu sync.Mutex
	sb strings.Builder
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.String()
}

// bootDaemonStderr is bootDaemon with a caller-supplied stderr.
func bootDaemonStderr(t *testing.T, args []string, stderr io.Writer) (string, func() error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	addrc := make(chan net.Addr, 1)
	errc := make(chan error, 1)
	go func() {
		errc <- run(ctx, args, io.Discard, stderr, func(a net.Addr) { addrc <- a })
	}()
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

// TestDaemonWatchReplaceNewlineAligned is the regression for the stale-offset
// bug: the watched file is atomically replaced by different equal-or-larger
// content whose byte at the old offset-1 HAPPENS to be a newline. The old
// newline-byte sentinel was satisfied and silently tailed garbage from the
// stale offset (losing the replacement's earlier rows); the content sentinel
// must detect the swap and re-read from the top.
func TestDaemonWatchReplaceNewlineAligned(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "w.csv")
	// 12 bytes: offset after load is 12, byte 11 is '\n'.
	if err := os.WriteFile(csvPath, []byte("A,B\n1,1\n2,2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	base, shutdown := bootDaemon(t, []string{
		"-addr", "127.0.0.1:0", "-watch", "w=" + csvPath, "-watch-interval", "25ms"})

	// Replacement: byte 11 is '\n' again ("A,B\n" + "7,7\n" + "8,8\n" is 12
	// bytes), the file is larger, and the rows before the old offset differ.
	// Tailing from offset 12 would ingest only "9,9" and silently lose 7,7
	// and 8,8.
	next := filepath.Join(dir, "next.csv")
	if err := os.WriteFile(next, []byte("A,B\n7,7\n8,8\n9,9\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(next, csvPath); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		info := getJSON(t, base+"/datasets")["datasets"].([]any)[0].(map[string]any)
		// 2 original + all 3 replacement rows, exactly once.
		if info["rows"] == float64(5) {
			break
		}
		if info["rows"].(float64) > 5 {
			t.Fatalf("phantom rows after newline-aligned replacement: %v", info)
		}
		if time.Now().After(deadline) {
			t.Fatalf("replacement rows never fully ingested (stale-offset tail?): %v", info)
		}
		time.Sleep(25 * time.Millisecond)
	}
	if err := shutdown(); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
}

// TestDaemonWatchRemovedDataset: DELETE of a watched dataset must stop the
// watcher — one stderr line, then silence — instead of erroring on every
// poll forever.
func TestDaemonWatchRemovedDataset(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "w.csv")
	if err := os.WriteFile(csvPath, []byte("A,B\n1,1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var stderr syncBuffer
	base, shutdown := bootDaemonStderr(t, []string{
		"-addr", "127.0.0.1:0", "-watch", "w=" + csvPath, "-watch-interval", "25ms"}, &stderr)

	req, _ := http.NewRequest(http.MethodDelete, base+"/datasets/w", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("DELETE status %d", resp.StatusCode)
	}
	// Keep feeding the file: a stopped watcher must produce no more output
	// and no /stats errors; the old behavior logged an error every poll.
	deadline := time.Now().Add(10 * time.Second)
	for !strings.Contains(stderr.String(), "watcher stopped") {
		if time.Now().After(deadline) {
			t.Fatalf("watcher never reported stopping; stderr:\n%s", stderr.String())
		}
		time.Sleep(25 * time.Millisecond)
	}
	f, err := os.OpenFile(csvPath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("2,2\n3,3\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	time.Sleep(250 * time.Millisecond) // ~10 polls of a live watcher
	if got := strings.Count(stderr.String(), "watcher stopped"); got != 1 {
		t.Fatalf("watcher stop logged %d times, want once; stderr:\n%s", got, stderr.String())
	}
	stats := getJSON(t, base+"/stats")
	if stats["errors"].(float64) != 0 || stats["appends"].(float64) != 0 {
		t.Fatalf("stopped watcher still hitting the service: %v", stats)
	}
	if err := shutdown(); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
}

// TestDaemonWatchStableTail: a final row with no trailing newline is
// ingested once the file has been unchanged for -watch-tail-polls polls,
// and tailing continues cleanly afterwards.
func TestDaemonWatchStableTail(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "w.csv")
	// The last row has no newline and never gets one.
	if err := os.WriteFile(csvPath, []byte("A,B\n1,1\n2,2"), 0o644); err != nil {
		t.Fatal(err)
	}
	base, shutdown := bootDaemon(t, []string{
		"-addr", "127.0.0.1:0", "-watch", "w=" + csvPath, "-watch-interval", "25ms",
		"-watch-tail-polls", "3"})
	// Register ingested the full file (including the unterminated row) at
	// load time, so rows start at 2; the watcher's stable-tail path must not
	// double-ingest or mangle anything.
	waitFor := func(wantRows float64, what string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			info := getJSON(t, base+"/datasets")["datasets"].([]any)[0].(map[string]any)
			if info["rows"] == wantRows {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: %v", what, info)
			}
			time.Sleep(25 * time.Millisecond)
		}
	}
	waitFor(2, "initial load")

	// Append a complete row plus an unterminated one. The complete row lands
	// immediately; the unterminated "4,4" must land after ~3 stable polls
	// even though its newline never comes.
	f, err := os.OpenFile(csvPath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("\n3,3\n4,4"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	waitFor(4, "stable unterminated tail never ingested")

	// The stream continues: later complete rows still land exactly once.
	f, err = os.OpenFile(csvPath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("\n5,5\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	waitFor(5, "row after stable-tail ingestion lost")
	stats := getJSON(t, base+"/stats")
	if skipped, ok := stats["skipped_lines"].(map[string]any); ok && skipped["w"] != nil {
		t.Fatalf("stable-tail path dropped lines: %v", stats)
	}
	if err := shutdown(); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
}

// TestDaemonWatchBOMRestart: a watched spreadsheet export starts with a
// UTF-8 byte order mark. Register skips the mark, so the tailer must skip it
// too whenever it re-reads the file from the top — after a restart over
// -data and after the file shrinks — or the header row no longer matches
// the schema and every row in the chunk is lost.
func TestDaemonWatchBOMRestart(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "w.csv")
	const bom = "\xef\xbb\xbf"
	if err := os.WriteFile(csvPath, []byte(bom+"A,B\n1,1\n2,2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	args := []string{"-addr", "127.0.0.1:0", "-data", filepath.Join(dir, "data"),
		"-watch", "w=" + csvPath, "-watch-interval", "25ms"}
	var stderr syncBuffer
	waitRows := func(base string, want float64, what string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			info := getJSON(t, base+"/datasets")["datasets"].([]any)[0].(map[string]any)
			if info["rows"] == want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: %v\nstderr:\n%s", what, info, stderr.String())
			}
			time.Sleep(25 * time.Millisecond)
		}
	}
	base, shutdown := bootDaemonStderr(t, args, &stderr)
	waitRows(base, 2, "initial load")
	if err := shutdown(); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}

	// Rows written while the daemon is down reach it through the re-read
	// from the top that follows recovery.
	f, err := os.OpenFile(csvPath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("3,3\n4,4\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	base, shutdown = bootDaemonStderr(t, args, &stderr)
	waitRows(base, 4, "rows written during the restart never ingested")

	// A rotated (shorter) file is re-read from the top as well.
	if err := os.WriteFile(csvPath, []byte(bom+"A,B\n9,9\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	waitRows(base, 5, "rows of the rotated file never ingested")
	if got := getJSON(t, base+"/analyze?dataset=w&schema=A|B"); got["error"] != nil {
		t.Fatalf("schema over the header's names: %v", got)
	}
	stats := getJSON(t, base+"/stats")
	if skipped, ok := stats["skipped_lines"].(map[string]any); ok && skipped["w"] != nil {
		t.Fatalf("watcher dropped lines: %v\nstderr:\n%s", stats, stderr.String())
	}
	if err := shutdown(); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
}
