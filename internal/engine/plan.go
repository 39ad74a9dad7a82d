package engine

import (
	"sync"
	"sync/atomic"
)

// Plan is a batch of grouping/entropy computations against one snapshot,
// scheduled to share partition work: requested attribute sets are closed
// under sorted prefixes (each grouping is computed by refining its prefix),
// ordered parents-first in the subset lattice, and executed level by level on
// a bounded worker pool. Every refinement is therefore computed exactly once
// — overlapping queries share their common lattice ancestors instead of
// racing to recompute them — and independent nodes of a level run in
// parallel.
//
// A Plan is a one-shot builder: Add* then Run. It is not safe for concurrent
// use (build it in one goroutine), but Run may execute concurrently with
// other readers of the snapshot.
type Plan struct {
	snap  *Snapshot
	nodes map[string]*planNode
}

type planNode struct {
	key     string
	cols    []int
	entropy bool
	// leaf: no request for the node itself came through anything but
	// AddLeafEntropy. prefix: another node of the plan has it as a sorted
	// prefix, and that node's refinement reads its row ids. A leaf that is
	// no prefix is memoized count-only; a prefix gets its row ids at its own
	// level, so the level above never fills them concurrently.
	leaf   bool
	prefix bool
}

// Plan returns an empty plan against the snapshot.
func (s *Snapshot) Plan() *Plan {
	return &Plan{snap: s, nodes: make(map[string]*planNode)}
}

// AddGrouping requests the grouping of the attribute set (and, implicitly,
// of every sorted prefix of it). Duplicate adds are free.
func (p *Plan) AddGrouping(attrs ...string) error {
	return p.add(attrs, false, false)
}

// AddEntropy requests the entropy (and grouping) of the attribute set.
func (p *Plan) AddEntropy(attrs ...string) error {
	return p.add(attrs, true, false)
}

// AddLeafEntropy requests the entropy of the attribute set, declaring that
// the caller reads nothing else of it. Unless another request of the plan
// needs its grouping (AddGrouping or AddEntropy of the set, or any request
// the set is a sorted prefix of), the set is memoized count-only: its counts
// and probe, no row ids. A later read of its grouping refines the set
// again with ids, so declare only sets that are seldom refined or joined
// afterwards.
func (p *Plan) AddLeafEntropy(attrs ...string) error {
	return p.add(attrs, true, true)
}

func (p *Plan) add(attrs []string, entropy, leaf bool) error {
	cols, err := p.snap.sortedColumns(attrs)
	if err != nil {
		return err
	}
	// Close under sorted prefixes so every node's refinement parent is a plan
	// node of the previous level.
	for l := 0; l < len(cols); l++ {
		p.node(cols[:l]).prefix = true
	}
	n := p.node(cols)
	n.entropy = n.entropy || entropy
	n.leaf = n.leaf && leaf
	return nil
}

// node returns the plan node of the sorted column set, adding it when the
// plan lacks it.
func (p *Plan) node(cols []int) *planNode {
	key := colsKey(cols)
	n, ok := p.nodes[key]
	if !ok {
		n = &planNode{key: key, cols: append([]int(nil), cols...), leaf: true}
		p.nodes[key] = n
	}
	return n
}

// Len returns the number of distinct lattice nodes the plan will touch
// (including prefix-closure nodes).
func (p *Plan) Len() int { return len(p.nodes) }

// Run executes the plan: lattice levels in ascending size order, nodes within
// a level on a pool of at most workers goroutines (workers ≤ 0 means
// GOMAXPROCS). Because levels are barriers, every node's refinement parent is
// already memoized when the node runs — each refinement happens exactly once,
// and the snapshot's memo makes the results available to every later query.
// Nodes the memo already answers are skipped, and a level whose remaining
// work is under parallelRows runs inline (see levelWorkers).
func (p *Plan) Run(workers int) {
	levels := make(map[int][]*planNode)
	maxLevel := 0
	for _, n := range p.nodes {
		l := len(n.cols)
		levels[l] = append(levels[l], n)
		if l > maxLevel {
			maxLevel = l
		}
	}
	for l := 0; l <= maxLevel; l++ {
		nodes, work := p.snap.pending(levels[l])
		forEach(len(nodes), levelWorkers(work, workers), func(i int) {
			n := nodes[i]
			if n.needsIDs() {
				p.snap.grouping(n.cols)
			}
			if n.entropy {
				p.snap.groupEntropy(n.cols, !n.leaf)
			}
		})
	}
}

// needsIDs reports whether the node's row ids are read: it was requested
// as a grouping, or the level above refines it.
func (n *planNode) needsIDs() bool { return !n.entropy || n.prefix }

// pending returns the nodes of one plan level the memo does not answer yet,
// and their work in rows: every row for a grouping still to be refined, or
// memoized count-only while its row ids are needed, and the group count of
// a memoized grouping whose entropy is still to be summed.
func (s *Snapshot) pending(nodes []*planNode) ([]*planNode, int) {
	out := nodes[:0]
	work := 0
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, n := range nodes {
		ent, ok := s.memo[n.key]
		switch {
		case !ok, n.needsIDs() && ent.g.IDs == nil:
			work += s.n
		case !n.entropy:
			continue
		default:
			if _, done := s.entropy[n.key]; done {
				continue
			}
			work += ent.g.Groups()
		}
		out = append(out, n)
	}
	return out, work
}

// parallelRows is the work, in rows scanned or groups summed, from which a
// lattice level fans out over the worker pool. Below it the level runs on
// the caller: starting and waking workers, and the memo latch moving between
// cores, cost more than such a level saves (EXPERIMENTS.md, *Fan out only
// levels that scan rows*, sweeps 2¹⁴–2¹⁸).
const parallelRows = 1 << 16

// levelWorkers returns the worker count for a lattice level of the given
// work in rows: workers (≤ 0 means the pool default) once the work reaches
// parallelRows, else 1, which runs the level inline.
func levelWorkers(work, workers int) int {
	if work < parallelRows {
		return 1
	}
	return workers
}

// forEach runs fn(i) for i in [0,n) on the engine's pool of at most workers
// goroutines (workers ≤ 0 means GOMAXPROCS, always clamped by SetMaxProcs).
// fn must synchronize its own writes; results should land in caller-owned
// per-index slots.
func forEach(n, workers int, fn func(i int)) {
	workers = maxWorkers(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
