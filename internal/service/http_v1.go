package service

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"ajdloss/internal/apischema"
	"ajdloss/internal/persist"
	"ajdloss/internal/relation"
)

// This file is the route table of the HTTP API (registerV1), the JSON
// Schema documents, and the routing wrapper: schema-document dispatch and
// the JSON 404/405 fallback. Every dataset route is written once, under
// /v1/{ns}; nine of them are also served at their bare pre-/v1 path in the
// default namespace. http.go keeps /healthz, /stats and the shared helpers.

// apiHandler is the root handler: it sends /v1/schemas[/...] to its own mux
// (those literal paths would conflict with the /v1/{ns} wildcards if they
// shared one), serves every matched route normally, and converts unmatched
// routes and wrong-method requests into the same JSON error envelope the
// handlers use — an API client should never have to parse a text/plain
// stdlib error page.
type apiHandler struct {
	api     *http.ServeMux
	schemas *http.ServeMux
}

func (h *apiHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	mux := h.api
	if r.URL.Path == "/v1/schemas" || strings.HasPrefix(r.URL.Path, "/v1/schemas/") {
		mux = h.schemas
	}
	if _, pattern := mux.Handler(r); pattern != "" {
		mux.ServeHTTP(w, r)
		return
	}
	// No pattern matched: the mux would answer with its own text/plain 404
	// or 405. Run that answer into a probe to learn the status (and the
	// Allow header the mux computes for wrong-method requests), then emit
	// the JSON envelope instead.
	probe := errorProbe{header: make(http.Header)}
	mux.ServeHTTP(&probe, r)
	status := probe.status
	if status == 0 {
		status = http.StatusNotFound
	}
	var err error
	if allow := probe.header.Get("Allow"); status == http.StatusMethodNotAllowed && allow != "" {
		w.Header().Set("Allow", allow)
		err = fmt.Errorf("service: method %s is not allowed for %s (allowed: %s)", r.Method, r.URL.Path, allow)
	} else {
		err = fmt.Errorf("service: no route for %s %s", r.Method, r.URL.Path)
	}
	writeError(w, status, err)
}

// errorProbe is the throwaway ResponseWriter apiHandler probes the mux's
// error handler with: it keeps the status and headers, drops the body.
type errorProbe struct {
	header http.Header
	status int
}

func (p *errorProbe) Header() http.Header { return p.header }

func (p *errorProbe) WriteHeader(code int) {
	if p.status == 0 {
		p.status = code
	}
}

func (p *errorProbe) Write(b []byte) (int, error) {
	if p.status == 0 {
		p.status = http.StatusOK
	}
	return len(b), nil
}

// newSchemasMux serves the published JSON Schema documents: the index at
// GET /v1/schemas and each document at GET /v1/schemas/{name}. The documents
// are what POST /v1/{ns}/batch (batch_request) and the JSON append body
// (append_request) are validated against — a client that validates locally
// against the published schema will never see a validation 400.
func newSchemasMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/schemas", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, struct {
			Schemas []string `json:"schemas"`
		}{Schemas: apischema.Names()})
	})
	mux.HandleFunc("GET /v1/schemas/{name}", func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		doc, ok := apischema.Published()[name]
		if !ok {
			writeError(w, http.StatusNotFound,
				fmt.Errorf("service: unknown schema %q (published: %s)", name, strings.Join(apischema.Names(), ", ")))
			return
		}
		writeJSON(w, http.StatusOK, doc)
	})
	return mux
}

// namespaceListView is the GET /v1/namespaces response.
type namespaceListView struct {
	Default    string   `json:"default"`
	Namespaces []string `json:"namespaces"`
}

// datasetListView is the GET /v1/{ns}/datasets response.
type datasetListView struct {
	Namespace string `json:"namespace"`
	Datasets  []Info `json:"datasets"`
}

// attributeSchemaView is one attribute in a dataset self-description.
type attributeSchemaView struct {
	Name     string `json:"name"`
	Distinct int    `json:"distinct"`
}

// datasetSchemaView is the GET /v1/{ns}/datasets/{name}/schema response; its
// shape is published as the dataset_schema JSON Schema.
type datasetSchemaView struct {
	Namespace  string                `json:"namespace"`
	Dataset    string                `json:"dataset"`
	Rows       int                   `json:"rows"`
	Generation int64                 `json:"generation"`
	Attributes []attributeSchemaView `json:"attributes"`
	Measures   []string              `json:"measures"`
}

// The two values of route's alias argument.
const (
	aliased = true  // also served at the bare legacy path, in the default namespace
	v1Only  = false // served under /v1/{ns} only
)

// legacyRoute reports whether r arrived on a bare legacy path instead of
// under /v1/{ns}. It is the one predicate that separates the two surfaces,
// and exactly four handlers consult it (see NewHandler).
func legacyRoute(r *http.Request) bool { return r.PathValue("ns") == "" }

// registerV1 adds the route table to the mux. Each route is written once:
// route registers it at /v1/{ns}<path>, with the namespace validated from
// the path before the handler runs, and the nine aliased routes also at the
// bare <path>, with the handler called in the default namespace. Batch and
// JSON append bodies under /v1 are validated against the published JSON
// Schemas, with errors that name the offending field.
func registerV1(mux *http.ServeMux, s *Service) {
	batchSchema := apischema.BatchRequest()
	appendSchema := apischema.AppendRequest()

	route := func(method, path string, alias bool, h func(w http.ResponseWriter, r *http.Request, ns string)) {
		mux.HandleFunc(method+" /v1/{ns}"+path, func(w http.ResponseWriter, r *http.Request) {
			ns, err := nsParam(r)
			if err != nil {
				writeError(w, http.StatusBadRequest, err)
				return
			}
			h(w, r, ns)
		})
		if alias {
			mux.HandleFunc(method+" "+path, func(w http.ResponseWriter, r *http.Request) {
				h(w, r, s.DefaultNamespace())
			})
		}
	}

	mux.HandleFunc("GET /v1/namespaces", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, namespaceListView{
			Default:    s.DefaultNamespace(),
			Namespaces: s.Registry().Namespaces(),
		})
	})
	route("GET", "/stats", v1Only, func(w http.ResponseWriter, r *http.Request, ns string) {
		st, ok := s.Registry().NamespaceStats(ns)
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("service: unknown namespace %q", ns))
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	route("GET", "/datasets", aliased, func(w http.ResponseWriter, r *http.Request, ns string) {
		infos, ok := s.Registry().ListIn(ns)
		if legacyRoute(r) {
			// The legacy listing predates namespaces: it names none, and a
			// default namespace that does not exist yet lists empty.
			writeJSON(w, http.StatusOK, map[string]any{"datasets": infos})
			return
		}
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("service: unknown namespace %q", ns))
			return
		}
		writeJSON(w, http.StatusOK, datasetListView{Namespace: ns, Datasets: infos})
	})
	route("POST", "/datasets", aliased, func(w http.ResponseWriter, r *http.Request, ns string) {
		name := r.URL.Query().Get("name")
		noHeader, err := queryBool(r.URL.Query().Get("noheader"))
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		// Bound the upload: a single unbounded (or endless chunked) body must
		// not be able to OOM the long-running daemon.
		d, err := s.Registry().RegisterIn(ns, name, http.MaxBytesReader(w, r.Body, maxUploadBytes), !noHeader)
		if err != nil {
			status := statusFor(err)
			if errors.Is(err, ErrAlreadyRegistered) {
				status = http.StatusConflict
			}
			writeError(w, status, err)
			return
		}
		writeJSON(w, http.StatusCreated, d.Info())
	})
	route("GET", "/datasets/{name}/schema", v1Only, func(w http.ResponseWriter, r *http.Request, ns string) {
		name := r.PathValue("name")
		d, ok := s.Registry().GetIn(ns, name)
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("service: %s %q", ErrUnknownDataset, name))
			return
		}
		info := d.Info()
		// The distinct counts ride the normal batch path: computed off the
		// warm engine groupings, cached per generation, coalesced across
		// concurrent describers.
		qs := make([]BatchQuery, len(info.Attrs))
		for i, a := range info.Attrs {
			qs[i] = BatchQuery{Kind: "distinct", Attrs: []string{a}}
		}
		v, err := s.BatchIn(ns, name, qs)
		if err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		out := datasetSchemaView{
			Namespace:  ns,
			Dataset:    name,
			Rows:       v.Rows,
			Generation: v.Generation,
			Attributes: make([]attributeSchemaView, len(info.Attrs)),
			Measures:   apischema.Kinds,
		}
		for i, a := range info.Attrs {
			distinct := 0
			if v.Results[i].Distinct != nil {
				distinct = *v.Results[i].Distinct
			}
			out.Attributes[i] = attributeSchemaView{Name: a, Distinct: distinct}
		}
		writeJSON(w, http.StatusOK, out)
	})
	route("POST", "/datasets/{name}/append", aliased, func(w http.ResponseWriter, r *http.Request, ns string) {
		header, err := queryBool(r.URL.Query().Get("header"))
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxUploadBytes))
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("service: reading append body: %w", err))
			return
		}
		// JSON is detected by Content-Type or — when no CSV type was claimed
		// — by shape: a body whose first non-space byte is '[' or '{' is
		// almost certainly a JSON batch sent without the header, and parsing
		// it as CSV would silently append mangled rows like "[[1" when the
		// field count happens to match the schema. An explicit csv/text
		// Content-Type suppresses the sniff for data whose first cell really
		// does start with a bracket.
		ct := r.Header.Get("Content-Type")
		isJSON := strings.Contains(ct, "json")
		if !isJSON && !strings.Contains(ct, "csv") && !strings.Contains(ct, "text/plain") {
			if tr := bytes.TrimLeft(data, " \t\r\n"); len(tr) > 0 && (tr[0] == '[' || tr[0] == '{') {
				isJSON = true
			}
		}
		var records [][]string
		if isJSON {
			// Under /v1 a JSON body is validated against the published
			// append_request schema first, so a malformed body 400s naming
			// the offending element instead of a decoder error. The legacy
			// route predates the schema and stays lenient.
			if !legacyRoute(r) {
				if err := appendSchema.ValidateJSON(data); err != nil {
					writeError(w, http.StatusBadRequest, fmt.Errorf("service: append body does not match /v1/schemas/append_request: %w", err))
					return
				}
			}
			records, err = decodeJSONRows(data)
		} else {
			records, err = relation.ReadCSVRows(bytes.NewReader(data))
		}
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("service: parsing append body: %w", err))
			return
		}
		v, err := s.AppendIn(ns, r.PathValue("name"), records, header)
		if err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, v)
	})
	route("POST", "/datasets/{name}/checkpoint", aliased, func(w http.ResponseWriter, r *http.Request, ns string) {
		v, err := s.CheckpointIn(ns, r.PathValue("name"))
		if err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, v)
	})
	route("DELETE", "/datasets/{name}", aliased, func(w http.ResponseWriter, r *http.Request, ns string) {
		if err := s.FollowerError(); err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		name := r.PathValue("name")
		if !s.RemoveIn(ns, name) {
			writeError(w, http.StatusNotFound, fmt.Errorf("service: unknown dataset %q", name))
			return
		}
		echo := map[string]string{"removed": name}
		if !legacyRoute(r) {
			// The legacy echo predates namespaces and names none.
			echo["namespace"] = ns
		}
		writeJSON(w, http.StatusOK, echo)
	})
	// Replication export surface: a follower bootstraps a dataset from
	// .../snapshot (the exact current frozen state in checkpoint wire format)
	// and then tails .../wal?from=gen — raw CRC-framed WAL records with
	// generation > gen, re-verified end to end on the follower. A cursor the
	// primary has compacted past answers 410 Gone with the horizon generation
	// in X-Ajdloss-Horizon: the follower must re-bootstrap from the snapshot.
	route("GET", "/datasets/{name}/snapshot", v1Only, func(w http.ResponseWriter, r *http.Request, ns string) {
		data, gen, err := s.SnapshotExport(ns, r.PathValue("name"))
		if err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("X-Ajdloss-Generation", strconv.FormatInt(gen, 10))
		_, _ = w.Write(data)
	})
	route("GET", "/datasets/{name}/wal", v1Only, func(w http.ResponseWriter, r *http.Request, ns string) {
		from := int64(0)
		if v := r.URL.Query().Get("from"); v != "" {
			var err error
			from, err = strconv.ParseInt(v, 10, 64)
			if err != nil || from < 0 {
				writeError(w, http.StatusBadRequest, fmt.Errorf("service: bad generation cursor from=%q", v))
				return
			}
		}
		raw, maxGen, err := s.WALExport(ns, r.PathValue("name"), from)
		if err != nil {
			if errors.Is(err, persist.ErrCompacted) {
				w.Header().Set("X-Ajdloss-Horizon", strconv.FormatInt(maxGen, 10))
				writeError(w, http.StatusGone, err)
				return
			}
			writeError(w, statusFor(err), err)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("X-Ajdloss-Max-Generation", strconv.FormatInt(maxGen, 10))
		_, _ = w.Write(raw)
	})
	route("GET", "/analyze", aliased, func(w http.ResponseWriter, r *http.Request, ns string) {
		schema, err := schemaParam(r)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		v, err := s.AnalyzeIn(ns, r.URL.Query().Get("dataset"), schema)
		if err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, v)
	})
	route("GET", "/discover", aliased, func(w http.ResponseWriter, r *http.Request, ns string) {
		q := r.URL.Query()
		target, err := queryFloat("target", q.Get("target"), 0.01)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		maxSep, err := queryInt("maxsep", q.Get("maxsep"), 1)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		v, err := s.DiscoverIn(ns, q.Get("dataset"), target, maxSep)
		if err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, v)
	})
	route("GET", "/entropy", aliased, func(w http.ResponseWriter, r *http.Request, ns string) {
		q := r.URL.Query()
		v, err := s.EntropyIn(ns, q.Get("dataset"),
			queryList(q.Get("attrs")), queryList(q.Get("a")), queryList(q.Get("b")), queryList(q.Get("given")))
		if err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, v)
	})
	route("POST", "/batch", aliased, func(w http.ResponseWriter, r *http.Request, ns string) {
		data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxUploadBytes))
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("service: reading batch body: %w", err))
			return
		}
		// Under /v1 the published contract is enforced here: a body that
		// does not match /v1/schemas/batch_request 400s with the offending
		// field named (e.g. `queries[1].kind`), before any query is planned.
		// The legacy /batch stays lenient (case-insensitive kinds, no
		// unknown-field rejection) for old clients.
		if !legacyRoute(r) {
			if err := batchSchema.ValidateJSON(data); err != nil {
				writeError(w, http.StatusBadRequest, fmt.Errorf("service: batch body does not match /v1/schemas/batch_request: %w", err))
				return
			}
		}
		var req struct {
			Dataset string       `json:"dataset"`
			Queries []BatchQuery `json:"queries"`
		}
		if err := unmarshalNumbers(data, &req); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("service: parsing batch body: %w", err))
			return
		}
		v, err := s.BatchIn(ns, req.Dataset, req.Queries)
		if err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, v)
	})
}

// nsParam extracts and validates the {ns} path segment.
func nsParam(r *http.Request) (string, error) {
	ns := r.PathValue("ns")
	if err := ValidateNamespace(ns); err != nil {
		return "", err
	}
	return ns, nil
}

// ValidateNamespace reports whether ns is a legal namespace name for the
// /v1 API and the -default-ns flag: non-empty, at most 64 bytes of
// lowercase letters, digits, '.', '_' or '-', not "." or "..", and not a
// word the router reserves ("schemas", "namespaces"). The persistence layer
// can encode any name, so this is an interface contract (stable URLs, no
// case-folding surprises, no reserved-path collisions), not a storage limit.
func ValidateNamespace(ns string) error {
	switch ns {
	case "":
		return fmt.Errorf("service: namespace must be non-empty")
	case "schemas", "namespaces":
		return fmt.Errorf("service: namespace %q is reserved", ns)
	}
	if len(ns) > 64 {
		return fmt.Errorf("service: namespace longer than 64 bytes")
	}
	for _, c := range ns {
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '-', c == '_', c == '.':
		default:
			return fmt.Errorf("service: invalid namespace %q: use lowercase letters, digits, '.', '_' or '-'", ns)
		}
	}
	if ns == "." || ns == ".." {
		return fmt.Errorf("service: invalid namespace %q", ns)
	}
	return nil
}
