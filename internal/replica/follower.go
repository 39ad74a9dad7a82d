// Package replica turns single ajdlossd daemons into a cluster: a Follower
// mirrors a primary's datasets by tailing their WALs over HTTP and serves
// read traffic from its own warm snapshots, and a Router consistent-hashes
// {namespace}/{dataset} keys across nodes, proxying single-dataset requests
// and fanning multi-dataset batches out then merging the responses.
//
// Replication protocol (all served by the ordinary /v1 surface):
//
//	GET /v1/{ns}/datasets/{name}/snapshot   the exact current frozen state in
//	                                        checkpoint wire format, plus
//	                                        X-Ajdloss-Generation
//	GET /v1/{ns}/datasets/{name}/wal?from=G raw CRC-framed WAL records with
//	                                        generation > G, plus
//	                                        X-Ajdloss-Max-Generation; 410 Gone
//	                                        with X-Ajdloss-Horizon when the
//	                                        cursor was compacted past
//
// The cursor is a generation, never a byte offset: generations are monotone
// per dataset and survive WAL compaction's file swap. A follower that falls
// behind the compaction horizon re-bootstraps from the snapshot — the 410 is
// the signal — so convergence never depends on the primary retaining history.
package replica

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"ajdloss/internal/service"
)

// maxTransferBytes bounds one snapshot or WAL transfer read into memory; it
// matches the service's own upload bound.
const maxTransferBytes = 512 << 20

// FollowerOptions configure a Follower; the zero value is usable.
type FollowerOptions struct {
	// Interval between sync passes in Run; default 500ms.
	Interval time.Duration
	// Logf, when set, receives one line per failed sync pass.
	Logf func(format string, args ...any)
}

// Follower mirrors a primary's datasets into a local Service. It is the
// write side of a read replica: the local service should be in follower mode
// (Service.SetPrimary) so ordinary writes 421-redirect to the primary while
// Follower applies the replication stream underneath. Not safe for
// concurrent use — one Follower, one goroutine (Run enforces this).
type Follower struct {
	svc     *service.Service
	primary string
	client  *http.Client
	opts    FollowerOptions

	// known tracks the datasets mirrored so far, so a dataset the primary
	// removed is removed here too on the next pass.
	known map[datasetKey]bool

	// Cumulative stats, published to the service after every pass.
	appliedBatches int64
	appliedRows    int64
	bootstraps     int64
	syncErrors     int64
	lastSync       time.Time
}

type datasetKey struct{ ns, name string }

// NewFollower returns a follower that mirrors the primary at the given base
// URL (e.g. "http://primary:8080") into svc.
func NewFollower(svc *service.Service, primaryURL string, opts FollowerOptions) *Follower {
	if opts.Interval <= 0 {
		opts.Interval = 500 * time.Millisecond
	}
	return &Follower{
		svc:     svc,
		primary: primaryURL,
		// The poll loop hits the same primary every interval; the shared
		// router transport keeps that connection persistent instead of
		// re-dialing per poll.
		client: &http.Client{Timeout: 30 * time.Second, Transport: routerTransport},
		opts:   opts,
		known:  make(map[datasetKey]bool),
	}
}

// Run syncs until the context is cancelled: one pass immediately, then one
// per interval. Pass failures are logged (Logf) and counted in the published
// replication stats, never fatal — a primary restarting mid-pass is normal
// operation, and the next pass picks up from the same cursors.
func (f *Follower) Run(ctx context.Context) error {
	t := time.NewTicker(f.opts.Interval)
	defer t.Stop()
	for {
		if err := f.SyncOnce(ctx); err != nil && f.opts.Logf != nil {
			f.opts.Logf("replica: sync against %s: %v", f.primary, err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
		}
	}
}

// SyncOnce runs one full sync pass: enumerate the primary's namespaces and
// datasets, bootstrap or tail each one, and mirror removals. Per-dataset
// failures are counted and the pass continues; the first error is returned
// after the pass so callers see that something went wrong.
func (f *Follower) SyncOnce(ctx context.Context) error {
	var nsList struct {
		Default    string   `json:"default"`
		Namespaces []string `json:"namespaces"`
	}
	if err := f.getJSON(ctx, "/v1/namespaces", &nsList); err != nil {
		f.syncErrors++
		f.publish(0, 0)
		return fmt.Errorf("replica: listing namespaces: %w", err)
	}
	var firstErr error
	seen := make(map[datasetKey]bool)
	var behind int64
	datasets := 0
	for _, ns := range nsList.Namespaces {
		if service.ValidateNamespace(ns) != nil {
			continue // not addressable over /v1; nothing to tail
		}
		var dl struct {
			Namespace string         `json:"namespace"`
			Datasets  []service.Info `json:"datasets"`
		}
		if err := f.getJSON(ctx, "/v1/"+url.PathEscape(ns)+"/datasets", &dl); err != nil {
			f.syncErrors++
			if firstErr == nil {
				firstErr = fmt.Errorf("replica: listing %s datasets: %w", ns, err)
			}
			// Do NOT mark this namespace's datasets unseen: a transient listing
			// failure must not cascade into removing every local mirror.
			for k := range f.known {
				if k.ns == ns {
					seen[k] = true
				}
			}
			continue
		}
		for _, info := range dl.Datasets {
			key := datasetKey{ns, info.Name}
			seen[key] = true
			datasets++
			local, err := f.syncDataset(ctx, ns, info.Name)
			if err != nil {
				f.syncErrors++
				if firstErr == nil {
					firstErr = fmt.Errorf("replica: syncing %s/%s: %w", ns, info.Name, err)
				}
				continue
			}
			// The listing's generation may already be stale by now; it still
			// bounds how far behind this pass left us from the primary's view.
			if info.Generation > local {
				behind += info.Generation - local
			}
		}
	}
	for key := range f.known {
		if !seen[key] {
			f.svc.RemoveIn(key.ns, key.name)
		}
	}
	f.known = seen
	if firstErr == nil {
		f.lastSync = time.Now()
	}
	f.publish(datasets, behind)
	return firstErr
}

// syncDataset brings one dataset up to the primary's current generation and
// returns the local generation reached. A missing local dataset (or a 410 on
// the WAL fetch) bootstraps from the snapshot; at most one bootstrap per
// call keeps a pathological primary from looping us forever.
func (f *Follower) syncDataset(ctx context.Context, ns, name string) (int64, error) {
	local := int64(0)
	if d, ok := f.svc.Registry().GetIn(ns, name); ok {
		local = d.Generation()
	}
	for attempt := 0; ; attempt++ {
		raw, _, compacted, err := f.fetchWAL(ctx, ns, name, local)
		if err != nil {
			return local, err
		}
		if compacted {
			if attempt > 0 {
				return local, fmt.Errorf("still behind the compaction horizon after re-bootstrap")
			}
			gen, err := f.bootstrap(ctx, ns, name)
			if err != nil {
				return local, err
			}
			local = gen
			continue
		}
		if len(raw) == 0 {
			return local, nil
		}
		rows, gen, err := f.svc.ReplicaApply(ns, name, raw)
		if err != nil {
			return local, err
		}
		f.appliedRows += int64(rows)
		if gen > local {
			f.appliedBatches += gen - local
		}
		return gen, nil
	}
}

// bootstrap fetches the primary's current snapshot of (ns, name) and adopts
// it locally, returning the adopted generation.
func (f *Follower) bootstrap(ctx context.Context, ns, name string) (int64, error) {
	path := "/v1/" + url.PathEscape(ns) + "/datasets/" + url.PathEscape(name) + "/snapshot"
	resp, err := f.get(ctx, path)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, responseError(resp)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxTransferBytes))
	if err != nil {
		return 0, fmt.Errorf("reading snapshot: %w", err)
	}
	gen, err := f.svc.ReplicaAdopt(ns, name, data)
	if err != nil {
		return 0, err
	}
	f.bootstraps++
	return gen, nil
}

// fetchWAL requests the WAL tail past generation from. compacted reports a
// 410: the cursor lies behind the primary's compaction horizon and the
// caller must re-bootstrap.
func (f *Follower) fetchWAL(ctx context.Context, ns, name string, from int64) (raw []byte, maxGen int64, compacted bool, err error) {
	path := "/v1/" + url.PathEscape(ns) + "/datasets/" + url.PathEscape(name) + "/wal?from=" + strconv.FormatInt(from, 10)
	resp, err := f.get(ctx, path)
	if err != nil {
		return nil, 0, false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		data, err := io.ReadAll(io.LimitReader(resp.Body, maxTransferBytes))
		if err != nil {
			return nil, 0, false, fmt.Errorf("reading WAL tail: %w", err)
		}
		maxGen, _ = strconv.ParseInt(resp.Header.Get("X-Ajdloss-Max-Generation"), 10, 64)
		return data, maxGen, false, nil
	case http.StatusGone:
		return nil, 0, true, nil
	default:
		return nil, 0, false, responseError(resp)
	}
}

func (f *Follower) get(ctx context.Context, path string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.primary+path, nil)
	if err != nil {
		return nil, err
	}
	return f.client.Do(req)
}

func (f *Follower) getJSON(ctx context.Context, path string, v any) error {
	resp, err := f.get(ctx, path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return responseError(resp)
	}
	return json.NewDecoder(io.LimitReader(resp.Body, maxTransferBytes)).Decode(v)
}

// publish pushes the follower's replication state into the service's /stats.
func (f *Follower) publish(datasets int, behind int64) {
	v := service.ReplicationView{
		Primary:           f.primary,
		Datasets:          datasets,
		AppliedBatches:    f.appliedBatches,
		AppliedRows:       f.appliedRows,
		Bootstraps:        f.bootstraps,
		BehindGenerations: behind,
		SyncErrors:        f.syncErrors,
	}
	if !f.lastSync.IsZero() {
		v.LastSync = f.lastSync.UTC().Format(time.RFC3339Nano)
		v.LagSeconds = time.Since(f.lastSync).Seconds()
	}
	f.svc.SetReplication(v)
}

// responseError decodes the service's JSON error envelope into a Go error,
// falling back to the raw status when the body is not the envelope.
func responseError(resp *http.Response) error {
	var body struct {
		Error string `json:"error"`
	}
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 8<<10))
	if json.Unmarshal(data, &body) == nil && body.Error != "" {
		return fmt.Errorf("%s: %s", resp.Status, body.Error)
	}
	return fmt.Errorf("unexpected status %s", resp.Status)
}
