package replica

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"ajdloss/internal/service"
)

// routerTransport is the shared transport behind every default router
// client. http.DefaultTransport keeps only 2 idle connections per host —
// with every proxied request going to one of a handful of node URLs, the
// router would churn through TCP (and ephemeral ports) under any real
// concurrency, paying a fresh handshake on most hops. Sized idle pools make
// the steady state one persistent connection set per node, which roughly
// halves proxied-hop latency under parallel load (see EXPERIMENTS.md).
var routerTransport = &http.Transport{
	Proxy: http.ProxyFromEnvironment,
	DialContext: (&net.Dialer{
		Timeout:   5 * time.Second,
		KeepAlive: 30 * time.Second,
	}).DialContext,
	ForceAttemptHTTP2:   true,
	MaxIdleConns:        256,
	MaxIdleConnsPerHost: 64,
	IdleConnTimeout:     90 * time.Second,
	TLSHandshakeTimeout: 10 * time.Second,
}

// RouterOptions configure a Router; the zero value is usable.
type RouterOptions struct {
	// Client used against the nodes; default a client with a 60s timeout.
	Client *http.Client
}

// Router is a thin routing tier over a set of ajdlossd nodes: every
// {namespace}/{dataset} key lives on the node the consistent-hash ring
// assigns it, single-dataset requests are proxied there, and multi-dataset
// batches (POST /v1/{ns}/batch with a "datasets" array) fan out per dataset
// and merge. Reads fail over along the ring — and so reach a follower
// mirroring the owner — while writes answered with a follower's 421 are
// retried once against the primary the response names.
type Router struct {
	ring   *Ring
	client *http.Client
}

// NewRouter builds a router over the given node base URLs.
func NewRouter(nodes []string, opts RouterOptions) *Router {
	client := opts.Client
	if client == nil {
		client = &http.Client{Timeout: 60 * time.Second, Transport: routerTransport}
	}
	return &Router{ring: NewRing(nodes), client: client}
}

// Handler returns the router's HTTP surface. It mirrors the node API:
// dataset-keyed routes are proxied to the owning node, GET /v1/{ns}/datasets
// merges the per-node listings, POST /v1/{ns}/batch fans out when the body
// carries a "datasets" array, and everything without a dataset key
// (/healthz, /stats, /v1/namespaces, /v1/schemas, the legacy unversioned
// routes) is served by the first reachable node.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/{ns}/datasets", rt.handleDatasetList)
	mux.HandleFunc("POST /v1/{ns}/datasets", func(w http.ResponseWriter, r *http.Request) {
		rt.keyed(w, r, r.PathValue("ns"), r.URL.Query().Get("name"), false)
	})
	mux.HandleFunc("/v1/{ns}/datasets/{name}", rt.handleDataset)
	mux.HandleFunc("/v1/{ns}/datasets/{name}/{action}", rt.handleDataset)
	for _, route := range []string{"analyze", "discover", "entropy"} {
		mux.HandleFunc("GET /v1/{ns}/"+route, func(w http.ResponseWriter, r *http.Request) {
			rt.keyed(w, r, r.PathValue("ns"), r.URL.Query().Get("dataset"), true)
		})
	}
	mux.HandleFunc("POST /v1/{ns}/batch", rt.handleBatch)
	mux.HandleFunc("/", rt.handleAny)
	return mux
}

// handleDataset proxies one dataset's routes (schema, append, checkpoint,
// wal, snapshot, DELETE) to its owner. Only safe methods fail over: an
// append must not be replayed against a second node on a timeout.
func (rt *Router) handleDataset(w http.ResponseWriter, r *http.Request) {
	rt.keyed(w, r, r.PathValue("ns"), r.PathValue("name"), r.Method == http.MethodGet)
}

// keyed proxies the request to the node owning {ns}/{name}.
func (rt *Router) keyed(w http.ResponseWriter, r *http.Request, ns, name string, failover bool) {
	if name == "" {
		// No dataset key (e.g. GET /v1/{ns}/analyze without ?dataset=): any
		// node produces the same validation error a client should see.
		rt.handleAny(w, r)
		return
	}
	body, err := readBody(w, r)
	if err != nil {
		writeRouterError(w, http.StatusBadRequest, err)
		return
	}
	nodes := rt.ring.Successors(ns + "/" + name)
	if !failover {
		nodes = nodes[:1]
	}
	rt.proxy(w, r, body, nodes)
}

// handleAny proxies a keyless route to the first node that answers at all.
func (rt *Router) handleAny(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(w, r)
	if err != nil {
		writeRouterError(w, http.StatusBadRequest, err)
		return
	}
	rt.proxy(w, r, body, rt.ring.Nodes())
}

// proxy forwards the request to the first candidate node that yields a
// usable response. Later candidates are only tried on transport errors or
// 5xx answers — a 4xx is the request's own fault and comes straight back. A
// 421 (the node is a follower) is retried once against the primary the
// response names, so writes routed to a read replica still land.
func (rt *Router) proxy(w http.ResponseWriter, r *http.Request, body []byte, nodes []string) {
	var lastErr error
	for i, node := range nodes {
		resp, err := rt.forward(r, node, body)
		if err != nil {
			lastErr = err
			continue
		}
		if resp.StatusCode >= http.StatusInternalServerError && i+1 < len(nodes) {
			lastErr = fmt.Errorf("node %s answered %s", node, resp.Status)
			resp.Body.Close()
			continue
		}
		if resp.StatusCode == http.StatusMisdirectedRequest {
			if primary := resp.Header.Get("X-Ajdloss-Primary"); primary != "" && primary != node {
				if redirected, err := rt.forward(r, primary, body); err == nil {
					resp.Body.Close()
					resp = redirected
				}
			}
		}
		copyResponse(w, resp)
		return
	}
	writeRouterError(w, http.StatusBadGateway,
		fmt.Errorf("router: no node could serve %s %s: %v", r.Method, r.URL.Path, lastErr))
}

// forward replays the request verbatim against one node.
func (rt *Router) forward(r *http.Request, node string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(r.Context(), r.Method, node+r.URL.RequestURI(), bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	return rt.client.Do(req)
}

// handleDatasetList merges GET /v1/{ns}/datasets across every node: with
// datasets sharded by the ring, no single node knows the whole namespace.
// Nodes without the namespace answer 404 and contribute nothing; only if
// every node lacks it does the router answer 404 itself.
func (rt *Router) handleDatasetList(w http.ResponseWriter, r *http.Request) {
	ns := r.PathValue("ns")
	type nodeResult struct {
		infos []service.Info
		found bool
		err   error
	}
	nodes := rt.ring.Nodes()
	results := make([]nodeResult, len(nodes))
	var wg sync.WaitGroup
	for i, node := range nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := rt.forward(r, node, nil)
			if err != nil {
				results[i].err = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode == http.StatusNotFound {
				return
			}
			if resp.StatusCode != http.StatusOK {
				results[i].err = fmt.Errorf("node %s answered %s", node, resp.Status)
				return
			}
			var dl struct {
				Datasets []service.Info `json:"datasets"`
			}
			if err := json.NewDecoder(io.LimitReader(resp.Body, maxTransferBytes)).Decode(&dl); err != nil {
				results[i].err = err
				return
			}
			results[i] = nodeResult{infos: dl.Datasets, found: true}
		}()
	}
	wg.Wait()
	merged := make(map[string]service.Info)
	found := false
	var lastErr error
	for _, res := range results {
		if res.err != nil {
			lastErr = res.err
			continue
		}
		if res.found {
			found = true
			for _, info := range res.infos {
				// A dataset mirrored on several nodes (primary + follower in
				// the ring) lists once, at its freshest generation.
				if prev, ok := merged[info.Name]; !ok || info.Generation > prev.Generation {
					merged[info.Name] = info
				}
			}
		}
	}
	if !found {
		if lastErr != nil {
			writeRouterError(w, http.StatusBadGateway, fmt.Errorf("router: listing %s: %v", ns, lastErr))
			return
		}
		writeRouterError(w, http.StatusNotFound, fmt.Errorf("service: unknown namespace %q", ns))
		return
	}
	infos := make([]service.Info, 0, len(merged))
	for _, info := range merged {
		infos = append(infos, info)
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	writeRouterJSON(w, http.StatusOK, struct {
		Namespace string         `json:"namespace"`
		Datasets  []service.Info `json:"datasets"`
	}{ns, infos})
}

// handleBatch routes POST /v1/{ns}/batch. A body with a single "dataset"
// proxies whole to the owner (with read failover — a batch mutates nothing).
// A body with a "datasets" array fans the same queries out to each dataset's
// owner concurrently and merges the per-dataset views, preserving order.
func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	ns := r.PathValue("ns")
	body, err := readBody(w, r)
	if err != nil {
		writeRouterError(w, http.StatusBadRequest, err)
		return
	}
	var req struct {
		Dataset  string          `json:"dataset"`
		Datasets []string        `json:"datasets"`
		Queries  json.RawMessage `json:"queries"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		writeRouterError(w, http.StatusBadRequest, fmt.Errorf("router: parsing batch body: %w", err))
		return
	}
	if len(req.Datasets) == 0 {
		// The body is already drained, so proxy with it directly rather than
		// through keyed (which would re-read an empty r.Body). A body with no
		// dataset at all goes to any node for the schema-validation 400.
		if req.Dataset == "" {
			rt.proxy(w, r, body, rt.ring.Nodes())
			return
		}
		rt.proxy(w, r, body, rt.ring.Successors(ns+"/"+req.Dataset))
		return
	}
	if req.Dataset != "" {
		writeRouterError(w, http.StatusBadRequest, fmt.Errorf(`router: batch body takes "dataset" or "datasets", not both`))
		return
	}
	type part struct {
		status int
		body   []byte
		err    error
	}
	parts := make([]part, len(req.Datasets))
	var wg sync.WaitGroup
	for i, name := range req.Datasets {
		sub, err := json.Marshal(struct {
			Dataset string          `json:"dataset"`
			Queries json.RawMessage `json:"queries"`
		}{name, req.Queries})
		if err != nil {
			writeRouterError(w, http.StatusBadRequest, err)
			return
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			parts[i] = rt.batchOne(r, ns+"/"+name, sub)
		}()
	}
	wg.Wait()
	for i, p := range parts {
		if p.err != nil {
			writeRouterError(w, http.StatusBadGateway,
				fmt.Errorf("router: batch for %q: %v", req.Datasets[i], p.err))
			return
		}
		if p.status != http.StatusOK {
			// Propagate the node's own error (404 unknown dataset, 400 bad
			// query, ...) verbatim: the client sees exactly what a direct
			// request would have seen, prefixed with which dataset failed.
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(p.status)
			_, _ = w.Write(p.body)
			return
		}
	}
	views := make([]json.RawMessage, len(parts))
	for i, p := range parts {
		views[i] = p.body
	}
	writeRouterJSON(w, http.StatusOK, struct {
		Namespace string            `json:"namespace"`
		Batches   []json.RawMessage `json:"batches"`
	}{ns, views})
}

// batchOne posts one single-dataset batch body to the key's owner, failing
// over along the ring (batches are reads).
func (rt *Router) batchOne(r *http.Request, key string, body []byte) (p struct {
	status int
	body   []byte
	err    error
}) {
	for _, node := range rt.ring.Successors(key) {
		req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, node+r.URL.RequestURI(), bytes.NewReader(body))
		if err != nil {
			p.err = err
			return p
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := rt.client.Do(req)
		if err != nil {
			p.err = err
			continue
		}
		data, err := io.ReadAll(io.LimitReader(resp.Body, maxTransferBytes))
		resp.Body.Close()
		if err != nil {
			p.err = err
			continue
		}
		if resp.StatusCode >= http.StatusInternalServerError {
			p.err = fmt.Errorf("node %s answered %s", node, resp.Status)
			continue
		}
		p.status, p.body, p.err = resp.StatusCode, bytes.TrimRight(data, "\n"), nil
		return p
	}
	return p
}

// readBody drains the request body into memory so it can be replayed against
// more than one node.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	if r.Body == nil {
		return nil, nil
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxTransferBytes))
	if err != nil {
		return nil, fmt.Errorf("router: reading request body: %w", err)
	}
	return data, nil
}

// copyResponse relays a node's response verbatim.
func copyResponse(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		if k == "Content-Length" {
			continue // body length may change if a middlebox re-chunks; recompute
		}
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

func writeRouterJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeRouterError(w http.ResponseWriter, status int, err error) {
	writeRouterJSON(w, status, map[string]string{"error": err.Error()})
}
