// Command ajdlossd is the long-running concurrent analysis daemon: it keeps
// registered CSV datasets warm (the columnar group-count engine's memoized
// partitions and entropies survive across requests) and serves the full
// analysis surface over HTTP as JSON — core.Analyze reports, schema
// discovery, and entropy/MI/CMI queries — with identical concurrent requests
// coalesced to one computation and finished results held in a bounded LRU
// cache.
//
// Usage:
//
//	ajdlossd [-addr :8347] [-cache 256] [-load name=path.csv ...]
//	         [-watch name=path.csv ...] [-watch-interval 2s]
//	         [-data dir] [-wal-compact bytes] [-fsync]
//	         [-default-ns default] [-quota-datasets N] [-quota-rows N]
//	         [-follow http://primary:8347] [-follow-interval 500ms]
//	         [-route http://n1:8347,http://n2:8347]
//
// -data enables durability: every dataset gets a binary columnar checkpoint
// plus an append-only CRC-checked WAL under the directory, appends are
// write-ahead-logged before their new view is published, an outgrown WAL is
// folded into a fresh checkpoint in the background (-wal-compact bounds
// it), and at boot every dataset is recovered to its exact pre-shutdown
// rows and generation — latest checkpoint, then WAL tail, a torn final
// record truncated. The default durability posture survives process death
// (SIGKILL); -fsync upgrades every WAL append to power-failure durability.
// POST /datasets/{name}/checkpoint forces a checkpoint; /stats shows
// wal_bytes and last_checkpoint per dataset.
//
// -watch loads a dataset like -load and then tails the file by byte offset:
// complete new lines are appended to the live dataset (a partially flushed
// line waits for its newline while the file is growing; once the file has
// been unchanged for -watch-tail-polls polls, a stable unterminated final
// line is ingested as-is). Appends are idempotent (existing rows are
// skipped), so a producer can keep appending lines to the CSV and the
// daemon streams them in without a restart or an engine rebuild — each
// absorbed batch bumps the dataset's generation, visible in every response.
// Lines the watcher has to drop (wrong field count, permanently unparseable,
// or lost to a deterministically failing chunk) are counted and exposed per
// dataset as "skipped_lines" in /stats, not just logged.
//
// Every dataset lives in a namespace. The versioned API scopes each route
// by namespace and describes itself — GET /v1/namespaces, per-dataset
// schemas at GET /v1/{ns}/datasets/{name}/schema, published JSON Schemas
// under GET /v1/schemas/ that POST /v1/{ns}/batch validates against. The
// routes that predate /v1 are served by the same handlers at their bare
// path, in the -default-ns namespace; their responses are unchanged since
// before namespaces existed:
//
//	GET    /healthz
//	GET    /stats
//	GET    /datasets
//	POST   /datasets?name=X[&noheader=1]      (CSV request body)
//	POST   /datasets/{name}/append[?header=1] (CSV or JSON rows body)
//	POST   /datasets/{name}/checkpoint
//	DELETE /datasets/{name}
//	GET    /analyze?dataset=X&schema=A,B|B,C
//	GET    /discover?dataset=X[&target=0.01][&maxsep=1]
//	GET    /entropy?dataset=X&attrs=A,B | &a=A&b=B[&given=C]
//	POST   /batch                             (JSON: many queries, one snapshot)
//
// -quota-datasets and -quota-rows cap every namespace created after boot
// (0 = unlimited); requests over quota get HTTP 429 with a typed error.
// See internal/service.NewHandler for the full /v1 route table.
//
// -follow runs the daemon as a read-only follower of the primary at the
// given base URL: it bootstraps every dataset from the primary's live
// snapshots, then tails each WAL by generation cursor (re-bootstrapping on
// 410 when compaction outran the cursor) and serves reads from its own warm
// state. Writes are rejected with 421 naming the primary in the
// X-Ajdloss-Primary header; /stats grows a "replication" block with lag and
// applied counts. A follower is in-memory by definition — -data, -load, and
// -watch cannot be combined with it.
//
// -route runs a stateless routing tier instead of an engine: each
// {namespace}/{dataset} is consistent-hashed onto one node of the
// comma-separated list, single-dataset requests are proxied to the owner
// (reads fail over along the ring; writes answered 421 by a follower are
// retried once against its primary), GET /v1/{ns}/datasets merges the
// per-node listings, and a POST /v1/{ns}/batch whose body carries a
// "datasets" array fans out per dataset and merges the views.
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: in-flight requests
// drain (up to a timeout) before the process exits.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"ajdloss/internal/engine"
	"ajdloss/internal/persist"
	"ajdloss/internal/relation"
	"ajdloss/internal/replica"
	"ajdloss/internal/service"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr, nil); err != nil {
		fmt.Fprintln(os.Stderr, "ajdlossd:", err)
		os.Exit(1)
	}
}

// preloadFlag collects repeated -load name=path.csv pairs.
type preloadFlag []string

func (p *preloadFlag) String() string     { return strings.Join(*p, ",") }
func (p *preloadFlag) Set(v string) error { *p = append(*p, v); return nil }

// run starts the daemon and blocks until ctx is cancelled (signal) or the
// listener fails. Log lines go to stderr; the single "listening" line goes
// to stdout so scripts can scrape the bound address. ready, if non-nil, is
// invoked with the bound address once the server accepts connections (the
// tests use it; main passes nil).
func run(ctx context.Context, args []string, stdout, stderr io.Writer, ready func(net.Addr)) error {
	fs := flag.NewFlagSet("ajdlossd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8347", "listen address")
	cacheSize := fs.Int("cache", 256, "result cache capacity (entries; 0 disables)")
	drain := fs.Duration("drain", 10*time.Second, "graceful-shutdown drain timeout")
	var loads, watches preloadFlag
	fs.Var(&loads, "load", "preload dataset as name=path.csv (repeatable)")
	fs.Var(&watches, "watch", "like -load, then poll the file and stream new rows in (repeatable)")
	watchEvery := fs.Duration("watch-interval", 2*time.Second, "poll interval for -watch files")
	tailPolls := fs.Int("watch-tail-polls", 3, "unchanged polls before a watched file's unterminated final line is ingested")
	dataDir := fs.String("data", "", "durability directory: WAL + checkpoints per dataset, recovery at boot (empty = in-memory only)")
	walCompact := fs.Int64("wal-compact", persist.DefaultCompactAt, "WAL bytes that trigger background checkpoint compaction (<0 disables)")
	fsync := fs.Bool("fsync", false, "fsync the WAL on every append (power-failure durability)")
	procs := fs.Int("procs", 0, "cap worker goroutines per operation: engine plan and append levels large enough to fan out, batch queries included (0 = GOMAXPROCS)")
	eager := fs.Bool("eager-recovery", false, "decode every recovered dataset at boot instead of on first access")
	defaultNS := fs.String("default-ns", "default", "namespace the legacy unversioned routes alias")
	quotaDatasets := fs.Int64("quota-datasets", 0, "max datasets per namespace (0 = unlimited)")
	quotaRows := fs.Int64("quota-rows", 0, "max total rows per namespace (0 = unlimited)")
	follow := fs.String("follow", "", "run as a read-only follower of the primary at this base URL")
	followEvery := fs.Duration("follow-interval", 500*time.Millisecond, "sync interval in -follow mode")
	route := fs.String("route", "", "run as a stateless router over this comma-separated node URL list")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *procs < 0 {
		return fmt.Errorf("-procs must be >= 0, got %d", *procs)
	}
	if *cacheSize < 0 {
		return fmt.Errorf("-cache must be >= 0, got %d", *cacheSize)
	}
	if *quotaDatasets < 0 || *quotaRows < 0 {
		return fmt.Errorf("quotas must be >= 0, got -quota-datasets %d -quota-rows %d", *quotaDatasets, *quotaRows)
	}
	if err := service.ValidateNamespace(*defaultNS); err != nil {
		return fmt.Errorf("-default-ns: %w", err)
	}
	engine.SetMaxProcs(*procs)
	if len(watches) > 0 && *watchEvery <= 0 {
		return fmt.Errorf("-watch-interval must be positive, got %v", *watchEvery)
	}
	if len(watches) > 0 && *tailPolls <= 0 {
		return fmt.Errorf("-watch-tail-polls must be positive, got %d", *tailPolls)
	}

	// Router mode: no engine, no datasets — just the consistent-hash proxy.
	if *route != "" {
		if *follow != "" || *dataDir != "" || len(loads) > 0 || len(watches) > 0 {
			return fmt.Errorf("-route is stateless; it cannot be combined with -follow, -data, -load, or -watch")
		}
		var nodes []string
		for _, n := range strings.Split(*route, ",") {
			if n = strings.TrimSpace(n); n != "" {
				nodes = append(nodes, n)
			}
		}
		if len(nodes) == 0 {
			return fmt.Errorf("-route needs at least one node URL")
		}
		rt := replica.NewRouter(nodes, replica.RouterOptions{})
		fmt.Fprintf(stderr, "routing over %d nodes: %s\n", len(nodes), strings.Join(nodes, ", "))
		return serveHTTP(ctx, *addr, rt.Handler(), *drain, stdout, stderr, ready)
	}
	if *follow != "" {
		if *dataDir != "" || len(loads) > 0 || len(watches) > 0 {
			return fmt.Errorf("-follow mirrors the primary's datasets; it cannot be combined with -data, -load, or -watch")
		}
		if *followEvery <= 0 {
			return fmt.Errorf("-follow-interval must be positive, got %v", *followEvery)
		}
	}

	svc := service.New(*cacheSize)
	svc.SetDefaultNamespace(*defaultNS)
	svc.Registry().SetDefaultQuotas(service.Quotas{MaxDatasets: *quotaDatasets, MaxRows: *quotaRows})
	durable := *dataDir != ""
	if durable {
		store, err := persist.Open(*dataDir, persist.Options{Sync: *fsync, CompactAt: *walCompact, DefaultNamespace: *defaultNS})
		if err != nil {
			return err
		}
		recovered, err := svc.EnableDurability(store)
		if err != nil {
			return fmt.Errorf("recovering datasets from %s: %w", *dataDir, err)
		}
		for _, r := range recovered {
			// Log datasets outside the default namespace as "ns/name", the
			// same qualified form /stats uses.
			qname := r.Name
			if r.Namespace != *defaultNS {
				qname = r.Namespace + "/" + r.Name
			}
			if r.Lazy {
				mode := "lazy: columns decode on first access"
				if *eager {
					mode = "materialized at boot (-eager-recovery)"
				}
				fmt.Fprintf(stderr, "recovered dataset %q: %d rows, generation %d (%s)\n",
					qname, r.Rows, r.Generation, mode)
				continue
			}
			fmt.Fprintf(stderr, "recovered dataset %q: %d rows, generation %d (checkpoint %d + %d WAL rows)\n",
				qname, r.Rows, r.Generation, r.CheckpointGeneration, r.ReplayedRows)
			if r.DroppedRecords > 0 {
				fmt.Fprintf(stderr, "recovered dataset %q: dropped %d unusable WAL records\n", qname, r.DroppedRecords)
			}
		}
		if *eager {
			if err := svc.MaterializeAll(); err != nil {
				return fmt.Errorf("materializing recovered datasets: %w", err)
			}
		}
	}
	load := func(flagName, spec string) (name, path string, recovered bool, err error) {
		name, path, ok := strings.Cut(spec, "=")
		if !ok || name == "" || path == "" {
			return "", "", false, fmt.Errorf("bad %s %q, want name=path.csv", flagName, spec)
		}
		// With -data, a dataset recovered at boot wins over its -load/-watch
		// spec: the durable state carries appends the file alone does not.
		if durable {
			if _, ok := svc.Registry().GetIn(*defaultNS, name); ok {
				fmt.Fprintf(stderr, "dataset %q already recovered from -data; skipping %s of %s\n", name, flagName, path)
				return name, path, true, nil
			}
		}
		f, err := os.Open(path)
		if err != nil {
			return "", "", false, err
		}
		d, err := svc.Registry().RegisterIn(*defaultNS, name, f, true)
		f.Close()
		if err != nil {
			return "", "", false, fmt.Errorf("loading %s: %w", path, err)
		}
		fmt.Fprintf(stderr, "loaded dataset %q: %d rows over %s\n",
			name, d.Rel.N(), strings.Join(d.Rel.Attrs(), ","))
		return name, path, false, nil
	}
	for _, spec := range loads {
		if _, _, _, err := load("-load", spec); err != nil {
			return err
		}
	}
	// Watch goroutines exit on context cancellation; cancel before waiting so
	// an early return (listener failure) cannot hang behind a watcher that is
	// still ticking.
	watchCtx, stopWatches := context.WithCancel(ctx)
	var watchWG sync.WaitGroup
	defer func() {
		stopWatches()
		watchWG.Wait()
	}()
	for _, spec := range watches {
		// Snapshot the size *before* the load: everything up to here is
		// ingested by RegisterIn, so the tail starts at this offset — rows a
		// producer appends between the Stat and the load are re-read once
		// and deduped (appends are idempotent). Without the snapshot the
		// first tick would re-read and re-encode the entire file under the
		// dataset write lock just to add zero rows. The replacement sentinel
		// (the bytes just before the tail) is captured at the same moment:
		// read any later and it could describe a file already swapped under
		// us, blinding the watcher to the swap.
		var start int64
		var sentinel []byte
		if _, p, ok := strings.Cut(spec, "="); ok {
			if fi, err := os.Stat(p); err == nil {
				start = fi.Size()
			}
			if start > 0 {
				if f, err := os.Open(p); err == nil {
					n := min(start, sentinelLen)
					buf := make([]byte, n)
					if _, err := f.ReadAt(buf, start-n); err == nil {
						sentinel = buf
					} else {
						start = 0
					}
					f.Close()
				} else {
					start = 0
				}
			}
		}
		name, path, recovered, err := load("-watch", spec)
		if err != nil {
			return err
		}
		if recovered {
			// The durable state covers an unknown prefix of the file (rows
			// written while the daemon was down are on disk but not in any
			// WAL). Re-read from the top once; appends are idempotent.
			start = 0
			sentinel = nil
		}
		watchWG.Add(1)
		go func() {
			defer watchWG.Done()
			watchLoop(watchCtx, svc, name, path, start, sentinel, *watchEvery, *tailPolls, stderr)
		}()
	}

	// Follower mode: mark the service read-only (writes 421 to the primary)
	// and start the replication tail alongside the HTTP server.
	if *follow != "" {
		svc.SetPrimary(*follow)
		f := replica.NewFollower(svc, *follow, replica.FollowerOptions{
			Interval: *followEvery,
			Logf:     func(format string, a ...any) { fmt.Fprintf(stderr, format+"\n", a...) },
		})
		followCtx, stopFollow := context.WithCancel(ctx)
		var followWG sync.WaitGroup
		followWG.Add(1)
		go func() {
			defer followWG.Done()
			_ = f.Run(followCtx)
		}()
		defer func() {
			stopFollow()
			followWG.Wait()
		}()
		fmt.Fprintf(stderr, "following primary at %s (sync every %v)\n", *follow, *followEvery)
	}

	if err := serveHTTP(ctx, *addr, service.NewHandler(svc), *drain, stdout, stderr, ready); err != nil {
		return err
	}
	if durable {
		// Quiesce the watchers first (idempotent with the deferred cleanup) —
		// a watcher appending after its dataset's final checkpoint would
		// defeat the point of the sweep. Then fold every dataset into a final
		// checkpoint so the next boot loads one file per dataset instead of
		// replaying a WAL tail. Failures are reported, not fatal: the WAL
		// already holds everything.
		stopWatches()
		watchWG.Wait()
		for _, err := range svc.CheckpointAll() {
			fmt.Fprintln(stderr, "ajdlossd: shutdown checkpoint:", err)
		}
	}
	return nil
}

// Server timeouts. Without ReadHeaderTimeout a client that never finishes
// its request headers holds a connection and a goroutine for good; without
// IdleTimeout so does a keep-alive connection left idle.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newServer returns the daemon's HTTP server for h.
func newServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// serveHTTP binds addr, serves h until ctx is cancelled, then drains
// gracefully. The "listening" line goes to stdout for scripts to scrape.
func serveHTTP(ctx context.Context, addr string, h http.Handler, drain time.Duration, stdout, stderr io.Writer, ready func(net.Addr)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := newServer(h)
	fmt.Fprintf(stdout, "ajdlossd listening on http://%s\n", ln.Addr())
	if ready != nil {
		ready(ln.Addr())
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(stderr, "ajdlossd: shutting down...")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// watchLoop tails path from the given starting offset and streams new rows
// of the CSV file into the live dataset. It tracks the byte offset of
// ingested complete lines and reads only the tail, cut at the last newline —
// so each batch costs O(new bytes), not O(file), and a torn (partially
// flushed) final line is not parsed while the file is still growing: even
// when a truncated record happens to have the right arity it stays on disk
// until its newline arrives — unless the file stops changing for tailPolls
// consecutive polls, at which point the stable unterminated final line is
// ingested (a writer that never terminates its last row must not starve it
// forever). If the file shrinks, or the bytes immediately before the tail no
// longer match the sentinel — the last ≤64 ingested bytes, remembered and
// verified on every poll, so an atomic replacement by equal-or-larger
// content is caught even when the byte at the boundary happens to be a
// newline — ingestion restarts from the top; appends are idempotent, so
// re-reads only cost duplicate detection. A watcher whose dataset is
// DELETEd stops outright (one line to stderr) instead of erroring on every
// poll forever.
//
// A chunk that fails to parse is retried for a few ticks (a quoted field
// containing a newline can make the cut point land mid-record, which heals
// once the rest of the record is flushed) and then skipped: a permanently
// malformed line must not wedge the watcher forever while valid rows pile up
// behind it.
func watchLoop(ctx context.Context, svc *service.Service, name, path string, offset int64, sentinel []byte, every time.Duration, tailPolls int, stderr io.Writer) {
	// parse retries remaining for the chunk at the current offset before it
	// is skipped as permanently malformed.
	const parseRetries = 3
	retries := parseRetries
	// -watch tails into the default namespace, like -load.
	ns := svc.DefaultNamespace()
	// sentinel is the last ≤64 bytes ending at offset, re-verified against
	// the file on every poll; the caller captured it when it snapshotted the
	// start offset. Without one, start from the top.
	if offset > 0 && len(sentinel) == 0 {
		offset = 0
	}
	// lastSize/stable track how many consecutive polls the file has been
	// unchanged, which is what lets a stable unterminated final line be
	// ingested after tailPolls polls.
	lastSize := int64(-1)
	stable := 0
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
		// A removed dataset cannot absorb appends again (re-registration
		// builds a new dataset that -watch knows nothing about): stop rather
		// than spam stderr on every poll forever.
		if _, ok := svc.Registry().GetIn(ns, name); !ok {
			fmt.Fprintf(stderr, "watch %q: dataset %q was removed; watcher stopped\n", path, name)
			return
		}
		fi, err := os.Stat(path)
		if err != nil {
			fmt.Fprintf(stderr, "watch %q: %v\n", path, err)
			continue
		}
		if fi.Size() == lastSize {
			stable++
		} else {
			stable = 0
			lastSize = fi.Size()
		}
		if fi.Size() < offset {
			fmt.Fprintf(stderr, "watch %q: file shrank, re-reading from the top\n", path)
			offset = 0
			sentinel = nil
		}
		if fi.Size() == offset {
			continue
		}
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintf(stderr, "watch %q: %v\n", path, err)
			continue
		}
		// Sentinel: the bytes just before the tail must still be the bytes
		// that were ingested there. They are not when the start snapshot
		// landed mid-line (producer was writing during startup) or when the
		// file was atomically replaced by different equal-or-larger content —
		// tailing from a stale offset would then ingest partial-line
		// fragments or another file's rows as phantom rows. Comparing content
		// (not just a newline at the boundary) catches replacements whose
		// byte there coincidentally is a newline. Reset and re-read from the
		// top instead; appends are idempotent, so the re-read only costs
		// duplicate detection.
		if offset > 0 {
			check := make([]byte, len(sentinel))
			if _, err := f.ReadAt(check, offset-int64(len(sentinel))); err != nil || !bytes.Equal(check, sentinel) {
				fmt.Fprintf(stderr, "watch %q: content changed under the tail, re-reading from the top\n", path)
				offset = 0
				sentinel = nil
			}
		}
		buf := make([]byte, fi.Size()-offset)
		_, err = f.ReadAt(buf, offset)
		f.Close()
		if err != nil {
			fmt.Fprintf(stderr, "watch %q: %v\n", path, err)
			continue
		}
		if cut := bytes.LastIndexByte(buf, '\n'); cut+1 < len(buf) {
			// Unterminated final line. While the file keeps changing the
			// writer is mid-flush: wait for the newline. Once the file has
			// been unchanged for tailPolls polls the line is as complete as
			// it will ever get — ingest it instead of waiting forever.
			if stable < tailPolls {
				if cut < 0 {
					continue // no complete line yet
				}
				buf = buf[:cut+1]
			}
		}
		// Parse up to the first malformed record: the clean prefix is
		// ingested immediately (valid rows must not be hostage to a bad
		// line behind them), and only then is the failure handled. The
		// chunk at offset 0 is read as RegisterIn read the file, byte order
		// mark skipped, so its header row matches the schema.
		records, consumed, parseErr := relation.ReadCSVPrefix(buf, offset == 0)
		if len(records) > 0 {
			// Drop ragged rows rather than letting one of them fail the
			// whole batch (Dataset.Append is all-or-nothing). The schema is
			// immutable after registration, so reading the arity needs no
			// lock. Info has it even while a lazily recovered dataset is
			// not yet decoded (its Rel is still nil then).
			if d, ok := svc.Registry().GetIn(ns, name); ok {
				arity := len(d.Info().Attrs)
				kept := records[:0]
				for _, rec := range records {
					if len(rec) == arity {
						kept = append(kept, rec)
					}
				}
				if dropped := len(records) - len(kept); dropped > 0 {
					svc.AddSkippedLines(name, int64(dropped))
					fmt.Fprintf(stderr, "watch %q: dropped %d rows with the wrong field count\n", path, dropped)
				}
				records = kept
			}
			// The chunk at offset 0 starts with the header row; later tails
			// are bare data lines.
			v, err := svc.AppendIn(ns, name, records, offset == 0)
			if err != nil {
				if errors.Is(err, service.ErrUnknownDataset) {
					// Removed between the top-of-tick check and the append.
					fmt.Fprintf(stderr, "watch %q: dataset %q was removed; watcher stopped\n", path, name)
					return
				}
				// Deterministic for these bytes (header mismatch, bad
				// encoding): skip the consumed prefix so the watcher is
				// never wedged. The chunk at offset 0 includes the header
				// row, which is not a lost data line.
				lost := len(records)
				if offset == 0 && lost > 0 {
					lost--
				}
				svc.AddSkippedLines(name, int64(lost))
				fmt.Fprintf(stderr, "watch %q: skipping %d bytes (rows lost): %v\n", path, consumed, err)
				sentinel = advanceSentinel(sentinel, buf[:consumed])
				offset += consumed
				retries = parseRetries
				continue
			}
			if v.Appended > 0 {
				fmt.Fprintf(stderr, "watch %q: appended %d rows to %q (now %d rows, generation %d)\n",
					path, v.Appended, name, v.Rows, v.Generation)
			}
		}
		if consumed > 0 {
			sentinel = advanceSentinel(sentinel, buf[:consumed])
			offset += consumed
			retries = parseRetries // progress: the next bad line gets a fresh budget
		}
		if parseErr == nil {
			continue
		}
		// The record now at offset is unparseable as flushed so far: maybe
		// torn (a quoted field spanning the cut heals once the rest is
		// written), maybe truly bad. Retry a few ticks, then skip one
		// physical line, so one malformed line cannot wedge the watcher
		// forever while valid rows pile up behind it.
		if retries--; retries > 0 {
			fmt.Fprintf(stderr, "watch %q: %v (will retry)\n", path, parseErr)
			continue
		}
		skip := int64(bytes.IndexByte(buf[consumed:], '\n') + 1)
		if skip == 0 {
			// No newline behind the bad record: a stable-but-malformed
			// unterminated tail. Skip all of it, or the watcher would retry
			// the same bytes forever.
			skip = int64(len(buf)) - consumed
		}
		svc.AddSkippedLines(name, 1)
		fmt.Fprintf(stderr, "watch %q: skipping %d unparseable bytes (a row lost): %v\n", path, skip, parseErr)
		sentinel = advanceSentinel(sentinel, buf[consumed:consumed+skip])
		offset += skip
		retries = parseRetries
	}
}

// sentinelLen is how many trailing ingested bytes the watcher remembers and
// re-verifies each poll to detect file replacement under the tail.
const sentinelLen = 64

// advanceSentinel returns the last ≤sentinelLen bytes of prev++chunk: the
// new sentinel after the watcher consumed chunk.
func advanceSentinel(prev, chunk []byte) []byte {
	if len(chunk) >= sentinelLen {
		return append([]byte(nil), chunk[len(chunk)-sentinelLen:]...)
	}
	combined := append(append([]byte(nil), prev...), chunk...)
	if len(combined) > sentinelLen {
		combined = combined[len(combined)-sentinelLen:]
	}
	return combined
}
