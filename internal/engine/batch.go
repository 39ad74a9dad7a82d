package engine

import (
	"fmt"

	"ajdloss/internal/infotheory"
)

// Query is one request of a batch against a snapshot. Kind selects the
// measure and which fields are read:
//
//	"entropy"  H(Attrs), or H(Attrs|Given) when Given is set
//	"mi"       I(A;B), "cmi" I(A;B|Given) (mi with Given behaves as cmi)
//	"fd"       the FD X → Y: planned here (its X and X∪Y groupings), but
//	           answered by internal/fd, which owns the g₃ computation
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
// "distinct" fills Distinct.
type Result struct {
	Nats     float64
	Distinct int
}

// AddToPlan adds the lattice nodes q needs to p and validates the query
// shape. A batch adds every query to one plan, so the whole batch shares one
// parents-first run, and then answers each query with Eval (fd queries
// through internal/fd instead).
func (q *Query) AddToPlan(p *Plan) error {
	switch q.Kind {
	case "entropy":
		if len(q.Attrs) == 0 {
			return fmt.Errorf("engine: %q query needs attrs", q.Kind)
		}
		if err := p.AddEntropy(infotheory.Union(q.Attrs, q.Given)...); err != nil {
			return err
		}
		return p.AddEntropy(q.Given...)
	case "mi", "cmi":
		if len(q.A) == 0 || len(q.B) == 0 {
			return fmt.Errorf("engine: %q query needs both a and b", q.Kind)
		}
		for _, set := range [][]string{
			infotheory.Union(q.B, q.Given), infotheory.Union(q.A, q.Given),
			infotheory.Union(q.A, q.B, q.Given), q.Given,
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
		return p.AddGrouping(infotheory.Union(q.X, q.Y)...)
	case "distinct":
		if len(q.Attrs) == 0 {
			return fmt.Errorf("engine: distinct query needs attrs")
		}
		return p.AddGrouping(q.Attrs...)
	default:
		return fmt.Errorf("engine: unknown batch query kind %q", q.Kind)
	}
}

// Eval answers q from the snapshot's memo, which a prior plan run filled
// (see AddToPlan), so it only combines memoized values. It refuses fd
// queries: their g₃ error is computed by internal/fd.
func (q *Query) Eval(s *Snapshot) (Result, error) {
	switch q.Kind {
	case "entropy":
		h, err := infotheory.ConditionalEntropy(s, q.Attrs, q.Given)
		return Result{Nats: h}, err
	case "mi", "cmi":
		v, err := infotheory.ConditionalMutualInformation(s, q.A, q.B, q.Given)
		return Result{Nats: v}, err
	case "fd":
		return Result{}, fmt.Errorf("engine: fd queries are answered by internal/fd, not Eval")
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
