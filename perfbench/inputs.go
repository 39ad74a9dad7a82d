package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"sort"
	"strconv"
	"strings"

	"ajdloss/internal/jointree"
	"ajdloss/internal/randrel"
	"ajdloss/internal/relation"
	"ajdloss/internal/schemagen"
	"ajdloss/internal/service"
)

// Every input is generated from the -seed argument before the set-up clock
// starts; the program under test only ever sees the rendered CSV bodies,
// URLs and JSON request bodies.

const (
	fitAttrs    = 8
	fitRows     = 10000
	fitInputs   = 6    // relations per run, alternating random / planted
	fitBandLo   = 9000 // planted lossless join size band before noise
	fitBandHi   = 9800
	fitTarget   = "0.05"
	fitMaxSep   = "2"
	serveSets   = 8
	serveAttrs  = 6
	serveRows   = 20000
	serveBatchN = 24 // batch bodies per dataset
	serveEntN   = 32 // conditional-entropy queries per dataset
	ingestAttrs = 6
	ingestBase  = 20000
	ingestBatch = 200 // rows per append
	ingestEpoch = 40  // appends per dataset before it is replaced
	ingestPool  = 3   // distinct epoch datasets, cycled
)

// rowsOf renders a generated relation's rows as strings.
func rowsOf(r *relation.Relation) [][]string {
	rows := make([][]string, r.N())
	for i, row := range r.Rows() {
		rec := make([]string, len(row))
		for j, v := range row {
			rec[j] = strconv.Itoa(int(v))
		}
		rows[i] = rec
	}
	return rows
}

// csvBody renders rows (with an optional header) as the daemon's CSV input.
func csvBody(attrs []string, rows [][]string) []byte {
	var b bytes.Buffer
	if attrs != nil {
		b.WriteString(strings.Join(attrs, ","))
		b.WriteByte('\n')
	}
	for _, r := range rows {
		b.WriteString(strings.Join(r, ","))
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// schemaParam renders bags in the URL syntax of the analyze route (bags
// separated by '|').
func schemaParam(bags [][]string) string {
	parts := make([]string, len(bags))
	for i, b := range bags {
		parts[i] = strings.Join(b, ",")
	}
	return strings.Join(parts, "|")
}

// serviceSchema renders bags in the service's "A,B;B,C" syntax.
func serviceSchema(bags [][]string) string {
	return strings.ReplaceAll(schemaParam(bags), "|", ";")
}

// fitInput is one relation the fit workload uploads, analyzes and deletes.
type fitInput struct {
	kind string // "random" (Section 5 model) or "planted" (noisy AJD)
	csv  []byte
	rows int
}

// fitChain is the fixed chain schema every fit operation also analyzes.
var fitChain = func() [][]string {
	a := schemagen.AttrNames(fitAttrs)
	return [][]string{a[0:3], a[2:5], a[4:7], a[6:8]}
}()

// fitTrees are the join trees the planted inputs satisfy before noise: a
// chain, a star and a chain of wide bags over X1..X8. Shapes and domains are
// fixed so that the seed changes the sampled rows, not the amount of work.
var fitTrees = [][][]string{
	{{"X1", "X2", "X3"}, {"X3", "X4", "X5"}, {"X5", "X6", "X7", "X8"}},
	{{"X1", "X2", "X3"}, {"X1", "X4", "X5"}, {"X1", "X6", "X7", "X8"}},
	{{"X1", "X2", "X3", "X4"}, {"X3", "X4", "X5", "X6"}, {"X5", "X6", "X7", "X8"}},
}

// fitRandomDomain is the per-attribute domain of the Section 5 random model
// inputs (10k of 5^8 ≈ 390k cells).
const fitRandomDomain = 5

func genFit(seed uint64) ([]fitInput, error) {
	rng := randrel.NewRand(seed)
	attrs := schemagen.AttrNames(fitAttrs)
	out := make([]fitInput, 0, fitInputs)
	for i := 0; i < fitInputs; i++ {
		var r *relation.Relation
		var err error
		kind := "random"
		if i%2 == 0 {
			doms := make([]int, fitAttrs)
			for j := range doms {
				doms[j] = fitRandomDomain
			}
			r, err = randrel.Model{Attrs: attrs, Domains: doms, N: fitRows}.Sample(rng)
		} else {
			kind = "planted"
			r, err = plantedRelation(rng, attrs, fitTrees[(i/2)%len(fitTrees)])
		}
		if err != nil {
			return nil, fmt.Errorf("generating fit input %d: %w", i, err)
		}
		out = append(out, fitInput{kind: kind, csv: csvBody(attrs, rowsOf(r)), rows: r.N()})
	}
	return out, nil
}

// plantedRelation samples a lossless relation for a chain-shaped join tree
// over bags, resampling (and adjusting the per-bag sample size) until its
// size falls in [fitBandLo, fitBandHi], then adds uniform noise tuples up to
// exactly fitRows rows.
func plantedRelation(rng *rand.Rand, attrs []string, bags [][]string) (*relation.Relation, error) {
	domains := schemagen.UniformDomains(attrs, 6)
	edges := make([][2]int, len(bags)-1)
	for i := range edges {
		edges[i] = [2]int{i, i + 1}
	}
	t, err := jointree.NewJoinTree(bags, edges)
	if err != nil {
		return nil, err
	}
	per := 100.0
	for attempt := 0; attempt < 400; attempt++ {
		r, err := schemagen.LosslessRelation(rng, t, domains, int(per))
		switch {
		case err != nil || r.N() < fitBandLo:
			per *= 1.05
		case r.N() > fitBandHi:
			per /= 1.05
		default:
			return schemagen.NoisyRelation(rng, r, domains, fitRows-r.N())
		}
	}
	return nil, fmt.Errorf("no planted relation in the row band after 400 attempts")
}

// serveKey is one distinct read of the serve workload.
type serveKey struct {
	kind   string // "analyze", "batch" or "entropy"
	method string
	target string
	body   []byte
	// The same read as a direct service call (for the traced ladder).
	dataset string
	schema  string               // analyze
	batch   []service.BatchQuery // batch
	attrs   []string             // entropy
	given   []string             // entropy
}

type serveInputs struct {
	datasets [][]byte // CSV bodies
	names    []string
	keys     map[string][]serveKey // by kind
}

const serveNS = "serve"

// serveKinds are the serve workload's read kinds, in a fixed order.
var serveKinds = []string{"analyze", "batch", "entropy"}

func genServe(seed uint64) (*serveInputs, error) {
	rng := randrel.NewRand(seed ^ 0x5e7e)
	attrs := schemagen.AttrNames(serveAttrs)
	in := &serveInputs{keys: map[string][]serveKey{}}
	for d := 0; d < serveSets; d++ {
		doms := make([]int, serveAttrs)
		for j := range doms {
			doms[j] = 5 + (d+j)%6 // fixed shapes; the seed varies the rows
		}
		r, err := randrel.Model{Attrs: attrs, Domains: doms, N: serveRows}.Sample(rng)
		if err != nil {
			return nil, fmt.Errorf("generating serve dataset %d: %w", d, err)
		}
		in.datasets = append(in.datasets, csvBody(attrs, rowsOf(r)))
		in.names = append(in.names, fmt.Sprintf("s%d", d))
	}
	a := attrs
	schemas := [][][]string{
		{a[0:2], a[1:3], a[2:4], a[3:5], a[4:6]},
		{a[0:3], a[2:5], a[4:6]},
		{a[0:4], a[2:6]},
		{{a[0], a[1]}, {a[0], a[2]}, {a[0], a[3]}, {a[0], a[4]}, {a[0], a[5]}},
		{{a[0], a[1], a[2], a[3]}, {a[0], a[1], a[4], a[5]}},
		{a[0:3], {a[1], a[2], a[3]}, {a[2], a[3], a[4]}, {a[3], a[4], a[5]}},
	}
	// pick draws k distinct attributes in schema order: the service keys
	// its cache on sorted attribute lists, so each read has one spelling
	// and every key below is a distinct cache entry.
	pick := func(k int) []string {
		p := rng.Perm(serveAttrs)[:k]
		sort.Ints(p)
		out := make([]string, k)
		for i, j := range p {
			out[i] = a[j]
		}
		return out
	}
	for _, name := range in.names {
		for _, s := range schemas {
			in.keys["analyze"] = append(in.keys["analyze"], serveKey{
				kind: "analyze", method: "GET",
				target:  "/v1/" + serveNS + "/analyze?dataset=" + name + "&schema=" + schemaParam(s),
				dataset: name, schema: serviceSchema(s),
			})
		}
		bodies := map[string]bool{}
		for len(bodies) < serveBatchN {
			var qs []service.BatchQuery
			for q := 0; q < 3+rng.IntN(4); q++ {
				switch rng.IntN(4) {
				case 0:
					qs = append(qs, service.BatchQuery{Kind: "entropy", Attrs: pick(1 + rng.IntN(3))})
				case 1:
					p := pick(2)
					qs = append(qs, service.BatchQuery{Kind: "mi", A: p[:1], B: p[1:]})
				case 2:
					p := pick(3)
					qs = append(qs, service.BatchQuery{Kind: "cmi", A: p[:1], B: p[1:2], Given: p[2:]})
				default:
					p := pick(3)
					qs = append(qs, service.BatchQuery{Kind: "fd", X: p[:2], Y: p[2:]})
				}
			}
			body, err := json.Marshal(map[string]any{"dataset": name, "queries": qs})
			if err != nil {
				return nil, err
			}
			if bodies[string(body)] {
				continue
			}
			bodies[string(body)] = true
			in.keys["batch"] = append(in.keys["batch"], serveKey{
				kind: "batch", method: "POST", target: "/v1/" + serveNS + "/batch", body: body,
				dataset: name, batch: qs,
			})
		}
		seen := map[string]bool{}
		for len(seen) < serveEntN {
			p := pick(3)
			j := rng.IntN(3)
			attrs := p[j : j+1]
			given := append(append([]string(nil), p[:j]...), p[j+1:]...)
			target := "/v1/" + serveNS + "/entropy?dataset=" + name + "&attrs=" + attrs[0] + "&given=" + strings.Join(given, ",")
			if seen[target] {
				continue
			}
			seen[target] = true
			in.keys["entropy"] = append(in.keys["entropy"], serveKey{
				kind: "entropy", method: "GET", target: target,
				dataset: name, attrs: attrs, given: given,
			})
		}
	}
	// Shuffle each kind so which keys are hot under the Zipf draw depends
	// on the seed, not on generation order.
	for _, kind := range serveKinds {
		ks := in.keys[kind]
		rng.Shuffle(len(ks), func(i, j int) { ks[i], ks[j] = ks[j], ks[i] })
	}
	return in, nil
}

// ingestEpochData is one dataset of the ingest workload: a base relation
// and ingestEpoch batches of fresh rows, all pairwise distinct.
type ingestEpochData struct {
	baseCSV []byte
	batches [][][]string // records per append
	bodies  [][]byte     // the same records as CSV bodies
}

const ingestNS = "ingest"

// ingestReadBatch is the batch of the fresh read after every append.
var ingestReadBatch = func() []service.BatchQuery {
	a := schemagen.AttrNames(ingestAttrs)
	return []service.BatchQuery{
		{Kind: "entropy", Attrs: a[0:3]},
		{Kind: "mi", A: a[0:1], B: a[3:4]},
		{Kind: "cmi", A: a[1:2], B: a[4:5], Given: a[2:3]},
		{Kind: "fd", X: a[0:2], Y: a[5:6]},
		{Kind: "fd", X: a[2:4], Y: a[1:2]},
	}
}()

func genIngest(seed uint64) ([]ingestEpochData, error) {
	rng := randrel.NewRand(seed ^ 0x1a6e57)
	attrs := schemagen.AttrNames(ingestAttrs)
	var out []ingestEpochData
	for p := 0; p < ingestPool; p++ {
		doms := make([]int, ingestAttrs)
		for j := range doms {
			doms[j] = 6 + (p+j)%6 // fixed shapes; the seed varies the rows
		}
		total := ingestBase + ingestEpoch*ingestBatch
		r, err := randrel.Model{Attrs: attrs, Domains: doms, N: total}.Sample(rng)
		if err != nil {
			return nil, fmt.Errorf("generating ingest dataset %d: %w", p, err)
		}
		// Model.Sample inserts in random order, so the first ingestBase
		// rows are a uniform base and the rest are fresh, distinct appends.
		rows := rowsOf(r)
		e := ingestEpochData{baseCSV: csvBody(attrs, rows[:ingestBase])}
		for k := 0; k < ingestEpoch; k++ {
			b := rows[ingestBase+k*ingestBatch : ingestBase+(k+1)*ingestBatch]
			e.batches = append(e.batches, b)
			e.bodies = append(e.bodies, csvBody(nil, b))
		}
		out = append(out, e)
	}
	return out, nil
}

// digest fingerprints generated inputs, so runs can show which inputs they
// measured (and tests can show that a new seed changes them).
func digest(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
