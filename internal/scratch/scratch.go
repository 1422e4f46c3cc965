// Package scratch provides a per-shard scratch arena: typed buffer pools
// that the trial hot path (signal detection, matrix solves, LSS descent,
// multilateration) borrows workspaces from instead of calling make() per
// trial.
//
// The contract is built around determinism, not just speed:
//
//   - Every Grab-style method returns a buffer in exactly the state a fresh
//     make() would produce (zeroed for the sized variants, empty for the
//     *Cap variants), so code converted to the arena computes bit-identical
//     results to its fresh-allocation form.
//   - A nil *Arena is valid everywhere and falls back to plain allocation,
//     so public APIs can expose an arena-aware variant without forking their
//     logic.
//   - Buffers are owned by the arena and valid only until the next Release.
//     The engine calls Release between trials; anything a trial wants to
//     keep past its own Run call must be copied out first.
//
// An Arena is not safe for concurrent use. The engine keeps one arena per
// shard worker, which is exactly the isolation the runner's worker pool
// provides.
package scratch

import "resilientloc/internal/geom"

// Resetter is implemented by stashed workspaces that need their cursor (not
// their storage) cleared between trials; Release calls Reset on every stash
// entry that implements it.
type Resetter interface{ Reset() }

// pool hands out slices of one element type in Grab order and reuses the
// same slots, in the same order, after a release — a trial that performs the
// same sequence of grabs every time (the engine's case) settles into zero
// allocations.
type pool[T any] struct {
	slots [][]T
	next  int
}

// grab returns a length-n slice, reusing the current slot when it has the
// capacity. Reused memory is cleared so the result is indistinguishable from
// make([]T, n).
func (p *pool[T]) grab(n int) []T {
	s := p.slot(n)
	s = s[:n]
	clear(s)
	return s
}

// grabCap returns a length-0 slice with capacity ≥ n for append-style use.
func (p *pool[T]) grabCap(n int) []T {
	return p.slot(n)[:0]
}

func (p *pool[T]) slot(n int) []T {
	if p.next < len(p.slots) && cap(p.slots[p.next]) >= n {
		s := p.slots[p.next]
		p.next++
		return s
	}
	s := make([]T, n)
	if p.next < len(p.slots) {
		p.slots[p.next] = s
	} else {
		p.slots = append(p.slots, s)
	}
	p.next++
	return s
}

func (p *pool[T]) release() { p.next = 0 }

// Arena is the shard-scoped workspace. The zero value is ready to use.
type Arena struct {
	f64    pool[float64]
	ints   pool[int]
	bools  pool[bool]
	points pool[geom.Point]
	stash  map[string]any
}

// New returns an empty arena.
func New() *Arena { return &Arena{} }

// Float64s returns a zeroed []float64 of length n, equivalent to
// make([]float64, n). Nil-safe.
func (a *Arena) Float64s(n int) []float64 {
	if a == nil {
		return make([]float64, n)
	}
	return a.f64.grab(n)
}

// Float64Cap returns an empty []float64 with capacity ≥ n, equivalent to
// make([]float64, 0, n). Nil-safe.
func (a *Arena) Float64Cap(n int) []float64 {
	if a == nil {
		return make([]float64, 0, n)
	}
	return a.f64.grabCap(n)
}

// Ints returns a zeroed []int of length n. Nil-safe.
func (a *Arena) Ints(n int) []int {
	if a == nil {
		return make([]int, n)
	}
	return a.ints.grab(n)
}

// IntCap returns an empty []int with capacity ≥ n. Nil-safe.
func (a *Arena) IntCap(n int) []int {
	if a == nil {
		return make([]int, 0, n)
	}
	return a.ints.grabCap(n)
}

// Bools returns a zeroed []bool of length n. Nil-safe.
func (a *Arena) Bools(n int) []bool {
	if a == nil {
		return make([]bool, n)
	}
	return a.bools.grab(n)
}

// Points returns a zeroed []geom.Point of length n. Nil-safe.
func (a *Arena) Points(n int) []geom.Point {
	if a == nil {
		return make([]geom.Point, n)
	}
	return a.points.grab(n)
}

// Stash returns the package-owned workspace registered under key, calling
// build to create it on first use. Unlike grabbed buffers, stashed values
// survive Release — but any stashed value implementing Resetter has Reset
// called on each Release, so cursor-style workspaces rewind between trials.
// With a nil arena, build runs every call (fresh workspace each time).
func (a *Arena) Stash(key string, build func() any) any {
	if a == nil {
		return build()
	}
	v, ok := a.stash[key]
	if !ok {
		if a.stash == nil {
			a.stash = make(map[string]any, 4)
		}
		v = build()
		a.stash[key] = v
	}
	return v
}

// Release rewinds every pool so the next trial reuses the same slots, and
// resets stashed workspaces that implement Resetter. Grabbed buffers become
// invalid. Nil-safe and idempotent.
func (a *Arena) Release() {
	if a == nil {
		return
	}
	a.f64.release()
	a.ints.release()
	a.bools.release()
	a.points.release()
	for _, v := range a.stash {
		if r, ok := v.(Resetter); ok {
			r.Reset()
		}
	}
}
