package experiments

import (
	"fmt"
	"time"

	"ajdloss/internal/join"
	"ajdloss/internal/randrel"
	"ajdloss/internal/schemagen"
)

// AblationConfig parameterizes E10: acyclic join cardinality by
// junction-tree counting versus full materialization.
type AblationConfig struct {
	Attrs  int // chain X1..Xn with width-2 bags
	Domain int
	N      int
	Seed   uint64
}

// DefaultAblation returns a configuration whose join is large enough to make
// the materialization cost visible but still feasible.
func DefaultAblation() AblationConfig {
	return AblationConfig{Attrs: 6, Domain: 8, N: 3000, Seed: 41}
}

// CountAblation (E10) verifies CountAcyclicJoin against materialization and reports
// the size amplification and wall-clock ratio. (The benchmark harness
// measures the same pair with testing.B precision; this table records the
// equality and magnitudes.)
func CountAblation(cfg AblationConfig) (*Table, error) {
	if cfg.Attrs < 2 || cfg.Domain <= 0 || cfg.N <= 0 {
		return nil, fmt.Errorf("experiments: invalid ablation config %+v", cfg)
	}
	attrs := schemagen.AttrNames(cfg.Attrs)
	schema, err := schemagen.Chain(attrs, 2, 1)
	if err != nil {
		return nil, err
	}
	domains := make([]int, cfg.Attrs)
	for i := range domains {
		domains[i] = cfg.Domain
	}
	model := randrel.Model{Attrs: attrs, Domains: domains, N: cfg.N}
	if p, overflow := model.DomainProduct(); !overflow && int64(model.N) > p {
		model.N = int(p)
	}
	rng := randrel.NewRand(cfg.Seed)
	r, err := model.Sample(rng)
	if err != nil {
		return nil, err
	}

	t0 := time.Now()
	counted, err := join.CountAcyclicJoin(r, schema)
	if err != nil {
		return nil, err
	}
	countDur := time.Since(t0)

	t1 := time.Now()
	materialized, err := join.AcyclicJoin(r, schema)
	if err != nil {
		return nil, err
	}
	matDur := time.Since(t1)

	if counted != int64(materialized.N()) {
		return nil, fmt.Errorf("experiments: count %d != materialized %d — counting DP is wrong", counted, materialized.N())
	}
	t := &Table{
		ID:    "E10",
		Title: "Ablation: junction-tree counting vs materialized acyclic join",
		Columns: []string{
			"N", "bags", "join_size", "amplification",
			"count_ms", "materialize_ms", "speedup",
		},
	}
	speedup := float64(matDur) / float64(countDur)
	t.AddRow(r.N(), schema.Len(), counted, float64(counted)/float64(r.N()),
		float64(countDur.Microseconds())/1000, float64(matDur.Microseconds())/1000, speedup)
	t.Notes = append(t.Notes, "counts must agree exactly; the counting DP never allocates the join")
	return t, nil
}
