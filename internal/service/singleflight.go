package service

import (
	"fmt"
	"sync"
)

// flightGroup coalesces duplicate concurrent calls: while one goroutine
// computes the value for a key, later callers with the same key block and
// receive the same result instead of recomputing it. This is the classic
// singleflight pattern, implemented locally because the module is
// dependency-free by design (no golang.org/x/sync in the build image).
//
// Results are handed to every waiter verbatim, so values returned through a
// flightGroup must be immutable (the service's JSON views are).
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flightCall
}

// flightCall is one in-flight computation.
type flightCall struct {
	wg   sync.WaitGroup
	val  any
	err  error
	dups int
}

// Do runs fn once per key among concurrent callers and returns its result.
// shared reports whether this caller joined another caller's in-flight
// computation instead of running fn itself: true for every joiner, false
// for the caller that computed the result, so each call counts once as
// either computed or coalesced.
func (g *flightGroup) Do(key string, fn func() (any, error)) (val any, err error, shared bool) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[string]*flightCall)
	}
	if c, ok := g.m[key]; ok {
		c.dups++
		g.mu.Unlock()
		c.wg.Wait()
		return c.val, c.err, true
	}
	c := &flightCall{}
	c.wg.Add(1)
	g.m[key] = c
	g.mu.Unlock()

	// The cleanup must run even if fn panics (net/http recovers handler
	// panics and keeps the process alive): otherwise the key stays wedged in
	// g.m and every later identical request blocks forever on wg.Wait. The
	// waiters get an error instead of a nil result; the panic itself is
	// re-raised in the computing goroutine.
	defer func() {
		r := recover()
		if r != nil {
			c.err = fmt.Errorf("service: panic during coalesced computation: %v", r)
		}
		g.mu.Lock()
		delete(g.m, key)
		g.mu.Unlock()
		c.wg.Done()
		if r != nil {
			panic(r)
		}
	}()
	c.val, c.err = fn()
	return c.val, c.err, false
}
