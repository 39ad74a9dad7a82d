package engine

import "fmt"

// Query is one request of a batch against a snapshot. Kind selects the
// measure and which fields are read:
//
//	"entropy"  H(Attrs), or H(Attrs|Given) when Given is set
//	"mi"       I(A;B), "cmi" I(A;B|Given) (mi with Given behaves as cmi)
//	"fd"       the FD X → Y: whether it holds plus its g₃ error
//	"distinct" the number of distinct projected rows of Attrs
type Query struct {
	Kind  string
	Attrs []string
	Given []string
	A     []string
	B     []string
	X     []string
	Y     []string
}

// Result is the answer to one batch query. Entropy-family kinds fill Nats;
// "fd" fills Holds and G3; "distinct" fills Distinct.
type Result struct {
	Nats     float64
	Holds    bool
	G3       float64
	Distinct int
}

// entropySets appends the attribute sets whose entropies answer q, or the
// grouping-only sets for non-entropy kinds, and validates the query shape.
func (q *Query) addToPlan(p *Plan) error {
	switch q.Kind {
	case "entropy":
		if len(q.Attrs) == 0 {
			return fmt.Errorf("engine: %q query needs attrs", q.Kind)
		}
		if err := p.AddEntropy(union(q.Attrs, q.Given)...); err != nil {
			return err
		}
		return p.AddEntropy(q.Given...)
	case "mi", "cmi":
		if len(q.A) == 0 || len(q.B) == 0 {
			return fmt.Errorf("engine: %q query needs both a and b", q.Kind)
		}
		for _, set := range [][]string{
			union(q.B, q.Given), union(q.A, q.Given), union(q.A, q.B, q.Given), q.Given,
		} {
			if err := p.AddEntropy(set...); err != nil {
				return err
			}
		}
		return nil
	case "fd":
		if len(q.Y) == 0 {
			return fmt.Errorf("engine: fd query needs y")
		}
		if err := p.AddGrouping(q.X...); err != nil {
			return err
		}
		return p.AddGrouping(union(q.X, q.Y)...)
	case "distinct":
		if len(q.Attrs) == 0 {
			return fmt.Errorf("engine: distinct query needs attrs")
		}
		return p.AddGrouping(q.Attrs...)
	default:
		return fmt.Errorf("engine: unknown batch query kind %q", q.Kind)
	}
}

// AddToPlan adds the lattice nodes q needs to p, validating the query shape —
// the per-query planning half of RunBatch, exported so callers that answer
// some kinds out of band (the service's incremental FD path) can still share
// one parents-first plan across a whole batch.
func (q *Query) AddToPlan(p *Plan) error { return q.addToPlan(p) }

// Eval answers q from the snapshot's memo; the lattice work must have been
// done by a prior plan run (see AddToPlan). The evaluation half of RunBatch.
func (q *Query) Eval(s *Snapshot) (Result, error) { return q.eval(s) }

// eval answers q against the snapshot; all lattice work was done by the plan,
// so this only combines memoized values (plus an O(n) scan for fd's g₃).
func (q *Query) eval(s *Snapshot) (Result, error) {
	switch q.Kind {
	case "entropy":
		hag, err := s.GroupEntropy(union(q.Attrs, q.Given)...)
		if err != nil {
			return Result{}, err
		}
		if len(q.Given) == 0 {
			return Result{Nats: hag}, nil
		}
		hg, err := s.GroupEntropy(q.Given...)
		if err != nil {
			return Result{}, err
		}
		return Result{Nats: hag - hg}, nil
	case "mi", "cmi":
		hbc, err := s.GroupEntropy(union(q.B, q.Given)...)
		if err != nil {
			return Result{}, err
		}
		hac, err := s.GroupEntropy(union(q.A, q.Given)...)
		if err != nil {
			return Result{}, err
		}
		habc, err := s.GroupEntropy(union(q.A, q.B, q.Given)...)
		if err != nil {
			return Result{}, err
		}
		hc := 0.0
		if len(q.Given) > 0 {
			if hc, err = s.GroupEntropy(q.Given...); err != nil {
				return Result{}, err
			}
		}
		v := hbc + hac - habc - hc
		if v < 0 && v > -1e-9 {
			v = 0 // CMI is non-negative; clamp floating-point residue
		}
		return Result{Nats: v}, nil
	case "fd":
		return s.evalFD(q.X, q.Y)
	case "distinct":
		g, err := s.Grouping(q.Attrs...)
		if err != nil {
			return Result{}, err
		}
		return Result{Distinct: g.Groups()}, nil
	default:
		return Result{}, fmt.Errorf("engine: unknown batch query kind %q", q.Kind)
	}
}

// evalFD answers the FD X → Y: Holds iff every X-group maps to one Y-value
// (the X and X∪Y partitions have equally many groups), and G3 is the minimum
// fraction of tuples to remove for it to hold — the same group-ID algorithm
// as internal/fd.G3Error, kept in sync by a parity test there.
func (s *Snapshot) evalFD(x, y []string) (Result, error) {
	gx, err := s.Grouping(x...)
	if err != nil {
		return Result{}, err
	}
	gxy, err := s.Grouping(union(x, y)...)
	if err != nil {
		return Result{}, err
	}
	nx := gx.Groups()
	if len(x) == 0 && s.n > 0 {
		nx = 1
	}
	res := Result{Holds: gxy.Groups() == nx}
	if s.n == 0 {
		res.Holds = true
		return res, nil
	}
	// For each X-group keep the most frequent Y-value: best[g] is the largest
	// XY-group count among rows whose X-group is g.
	best := make([]int, gx.Groups())
	for i := 0; i < s.n; i++ {
		c := gxy.Counts[gxy.IDs[i]]
		if c > best[gx.IDs[i]] {
			best[gx.IDs[i]] = c
		}
	}
	keep := 0
	for _, c := range best {
		keep += c
	}
	res.G3 = float64(s.total-keep) / float64(s.total)
	return res, nil
}

// RunBatch answers a set of queries against this one snapshot: it builds a
// plan of every lattice node any query needs, runs it parents-first on the
// worker pool (shared refinements are computed once across the whole batch),
// then evaluates each query from the memo. Queries are validated up front; an
// invalid query fails the whole batch before any computation.
func (s *Snapshot) RunBatch(qs []Query, workers int) ([]Result, error) {
	p := s.Plan()
	for i := range qs {
		if err := qs[i].addToPlan(p); err != nil {
			return nil, fmt.Errorf("query %d: %w", i+1, err)
		}
	}
	p.Run(workers)
	out := make([]Result, len(qs))
	errs := make([]error, len(qs))
	ForEach(len(qs), workers, func(i int) {
		out[i], errs[i] = qs[i].eval(s)
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("query %d: %w", i+1, err)
		}
	}
	return out, nil
}

// union returns the concatenation of attribute lists with duplicates removed,
// preserving first-occurrence order.
func union(lists ...[]string) []string {
	seen := make(map[string]struct{})
	var out []string
	for _, l := range lists {
		for _, a := range l {
			if _, ok := seen[a]; !ok {
				seen[a] = struct{}{}
				out = append(out, a)
			}
		}
	}
	return out
}
