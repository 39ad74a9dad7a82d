package jointree

import (
	"fmt"
	"sort"
	"strings"
)

// MVD is a multivalued dependency X ↠ Y | Z. Following the paper's Eq. (9)
// and footnote 1, Y and Z may overlap X (and each other only within X); the
// conditional mutual information I(Y;Z|X) is insensitive to that overlap.
type MVD struct {
	X []string // the separator Δ
	Y []string // left component
	Z []string // right component
}

// String renders the MVD as "X ↠ Y | Z".
func (m MVD) String() string {
	j := func(a []string) string {
		s := append([]string(nil), a...)
		sort.Strings(s)
		if len(s) == 0 {
			return "∅"
		}
		return strings.Join(s, ",")
	}
	return fmt.Sprintf("%s ↠ %s | %s", j(m.X), j(m.Y), j(m.Z))
}

// Rooted is a join tree rooted at a chosen bag, with nodes enumerated in
// depth-first order u₁,…,u_m so that parent(uᵢ) precedes uᵢ (Section 2.3).
type Rooted struct {
	Tree *JoinTree
	// Order[i] is the bag index of u_{i+1} (0-based positions).
	Order []int
	// Parent[i] is the position (in Order) of parent(u_{i+1}); Parent[0] = -1.
	Parent []int
	// Sep[i] is Δ_{i+1} = χ(parent(uᵢ)) ∩ χ(uᵢ); Sep[0] = nil for the root.
	Sep [][]string
}

// Root returns the rooted enumeration of t starting at bag index root.
func Root(t *JoinTree, root int) (*Rooted, error) {
	m := t.Len()
	if root < 0 || root >= m {
		return nil, fmt.Errorf("jointree: root %d out of range [0,%d)", root, m)
	}
	adj := t.adjacency()
	r := &Rooted{
		Tree:   t,
		Order:  make([]int, 0, m),
		Parent: make([]int, 0, m),
		Sep:    make([][]string, 0, m),
	}
	seen := make([]bool, m)
	type frame struct{ node, parentPos int }
	stack := []frame{{root, -1}}
	seen[root] = true
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		pos := len(r.Order)
		r.Order = append(r.Order, f.node)
		r.Parent = append(r.Parent, f.parentPos)
		if f.parentPos < 0 {
			r.Sep = append(r.Sep, nil)
		} else {
			p := r.Order[f.parentPos]
			r.Sep = append(r.Sep, intersectAttrs(t.Bags[p], t.Bags[f.node]))
		}
		// Push children in reverse index order for deterministic DFS.
		var kids []int
		for _, w := range adj[f.node] {
			if !seen[w] {
				kids = append(kids, w)
			}
		}
		sort.Sort(sort.Reverse(sort.IntSlice(kids)))
		for _, w := range kids {
			seen[w] = true
			stack = append(stack, frame{w, pos})
		}
	}
	if len(r.Order) != m {
		return nil, fmt.Errorf("jointree: tree is disconnected (reached %d of %d bags)", len(r.Order), m)
	}
	return r, nil
}

// MustRoot is Root but panics on error.
func MustRoot(t *JoinTree, root int) *Rooted {
	r, err := Root(t, root)
	if err != nil {
		panic(err)
	}
	return r
}

// Bag returns χ(uᵢ) for 0-based position i in the DFS order.
func (r *Rooted) Bag(i int) []string { return r.Tree.Bags[r.Order[i]] }

// Prefix returns Ω_{1:i} = ∪_{ℓ≤i} χ(u_ℓ) for 0-based position i.
func (r *Rooted) Prefix(i int) []string {
	seen := make(map[string]struct{})
	var out []string
	for p := 0; p <= i; p++ {
		for _, a := range r.Bag(p) {
			if _, ok := seen[a]; !ok {
				seen[a] = struct{}{}
				out = append(out, a)
			}
		}
	}
	return out
}

// Suffix returns Ω_{i:m} = ∪_{ℓ≥i} χ(u_ℓ) for 0-based position i.
func (r *Rooted) Suffix(i int) []string {
	seen := make(map[string]struct{})
	var out []string
	for p := i; p < len(r.Order); p++ {
		for _, a := range r.Bag(p) {
			if _, ok := seen[a]; !ok {
				seen[a] = struct{}{}
				out = append(out, a)
			}
		}
	}
	return out
}

// EdgeMVDs returns Beeri et al.'s support: one MVD per tree edge,
// φ_{u,v} = χ(u)∩χ(v) ↠ χ(T_u) | χ(T_v).
func (t *JoinTree) EdgeMVDs() []MVD {
	out := make([]MVD, 0, len(t.Edges))
	for e := range t.Edges {
		uSide, vSide := t.EdgeComponents(e)
		out = append(out, MVD{X: t.Separator(e), Y: uSide, Z: vSide})
	}
	return out
}
