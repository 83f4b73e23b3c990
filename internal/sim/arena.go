package sim

import (
	"fmt"
	"math"
)

// Arena is caller-owned scratch memory for the simulator kernel. A harness
// that runs many simulations back to back (a sweep row's trial loop, a
// benchmark) passes the same *Arena in Config.Arena and the kernel reuses
// the per-run machine table and inbox buffers instead of reallocating them,
// dropping the steady-state allocation cost of a run to the per-run Result
// (and whatever the machines themselves allocate).
//
// Safety rules, enforced by construction:
//
//   - A Result never aliases arena memory: Outputs and HaltRound are freshly
//     allocated every run, so results stay valid after the arena is reused.
//   - Buffers are cleared when acquired, not when released, so a run never
//     observes a previous run's messages — and an abandoned run (error,
//     cancellation) poisons nothing.
//   - An Arena may be reused across topologies of any size (buffers grow
//     monotonically), but must not be shared by concurrent Runs: it is
//     deliberately unsynchronized scratch. nil is always valid and means
//     "allocate fresh" (the historical behavior).
type Arena struct {
	machines []Machine
	sleepers []Sleeper
	inboxes  [][]Message
	msgs     []Message
	ready    []uint64
	sleep    []int64
	slots    []int32
	chans    [][]chan Message
	chanFlat []chan Message
}

// grow returns buf resliced to length n, reallocating only when the backing
// array is too small. The contents are unspecified; callers clear what they
// need.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// seqBufs is runSequential's working set for one run. Inboxes live in flat
// port-indexed message buffers: node v's port p is slot off[v]+p.
type seqBufs struct {
	machines []Machine
	// sleepers[v] is machines[v] when it implements Sleeper, else nil; the
	// engine fills it once after Init.
	sleepers []Sleeper
	// cur holds the mail delivered for this step, next the mail being sent
	// during it.
	cur, next []Message
	// off[v] is node v's first slot; route[off[v]+p] is the slot that a
	// message sent on v's port p lands in: off[u]+rev for the neighbor u
	// at that port, whose port rev is the same edge.
	off, route []int32
	// curW and nextW list the slots written into cur and next, so a swap
	// clears only those slots instead of the whole buffer. Each slot is
	// written at most once per step, so neither list outgrows its sumDeg
	// capacity.
	curW, nextW []int32
	// ready is a bitset over the nodes, bit v of word v/64: set while v is
	// live and awake, so a step visits only those nodes, in index order.
	ready []uint64
}

// wakeQueue is a binary min-heap of wake entries. An entry packs a
// sleeping node's wake step into its high 32 bits and the node into its
// low 32, and the heap orders entries by step alone: entries of one step
// never swap, so popping a run of equal steps, such as every T10 vertex
// resting to the same step, costs O(1) per entry. It is written out
// rather than built on container/heap, whose Push boxes every entry; this
// one allocates nothing while it stays within its capacity.
type wakeQueue []int64

// push adds the entry waking node at step.
func (q *wakeQueue) push(step, node int) {
	h := append(*q, int64(step)<<32|int64(node))
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if h[parent]>>32 <= h[i]>>32 {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
	*q = h
}

// popDue removes an entry whose step is at most step and returns its step
// and node, or returns false when no entry is due.
func (q *wakeQueue) popDue(step int) (wake, node int, ok bool) {
	h := *q
	if len(h) == 0 || int(h[0]>>32) > step {
		return 0, 0, false
	}
	e := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		least, l, r := i, 2*i+1, 2*i+2
		if l < last && h[l]>>32 < h[least]>>32 {
			least = l
		}
		if r < last && h[r]>>32 < h[least]>>32 {
			least = r
		}
		if least == i {
			break
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
	*q = h
	return int(e >> 32), int(e & (1<<32 - 1)), true
}

// sleepState acquires the sleep state of a run in which some machine is a
// Sleeper: an empty wake queue with room for n entries, and the queued
// table of n nodes, cleared, both carved out of one backing. A run
// without a Sleeper never acquires it. A nil arena degrades to plain
// allocation.
func (a *Arena) sleepState(n int) (wakeQueue, []int64) {
	if a == nil {
		a = &Arena{}
	}
	a.sleep = grow(a.sleep, 2*n)
	queued := a.sleep[n:]
	clear(queued)
	return a.sleep[:0:n], queued
}

// sequential acquires the runSequential working set for g: the machine and
// sleeper tables, the two flat inbox buffers, the slot offsets, the route
// table and the two write lists (all four carved out of one int32
// backing), and the ready set with every node in it. A nil arena degrades
// to plain allocation. It fails only when g has more ports than an int32
// slot index can address.
func (a *Arena) sequential(g Topology) (seqBufs, error) {
	n := g.N()
	sumDeg := 0
	for v := 0; v < n; v++ {
		sumDeg += g.Degree(v)
	}
	if sumDeg > math.MaxInt32 {
		return seqBufs{}, fmt.Errorf("sim: %d ports exceed the sequential engine's int32 slot index", sumDeg)
	}
	if a == nil {
		a = &Arena{}
	}
	a.machines = grow(a.machines, n)
	clear(a.machines[:cap(a.machines)]) // drop machine refs beyond n too
	a.sleepers = grow(a.sleepers, n)
	clear(a.sleepers[:cap(a.sleepers)])
	a.msgs = grow(a.msgs, 2*sumDeg)
	clear(a.msgs)
	words := (n + 63) / 64
	a.ready = grow(a.ready, words)
	for i := range a.ready {
		a.ready[i] = ^uint64(0)
	}
	if n%64 != 0 {
		a.ready[words-1] = 1<<(n%64) - 1
	}
	a.slots = grow(a.slots, n+3*sumDeg)
	s := a.slots
	b := seqBufs{
		machines: a.machines,
		sleepers: a.sleepers,
		cur:      a.msgs[:sumDeg],
		next:     a.msgs[sumDeg:],
		off:      s[:n:n],
		route:    s[n : n+sumDeg : n+sumDeg],
		curW:     s[n+sumDeg : n+sumDeg : n+2*sumDeg],
		nextW:    s[n+2*sumDeg : n+2*sumDeg : n+3*sumDeg],
		ready:    a.ready,
	}
	off := 0
	for v := 0; v < n; v++ {
		b.off[v] = int32(off)
		off += g.Degree(v)
	}
	for v := 0; v < n; v++ {
		o := b.off[v]
		for p := int32(0); p < int32(g.Degree(v)); p++ {
			u, rev := g.NeighborPort(v, int(p))
			b.route[o+p] = b.off[u] + int32(rev)
		}
	}
	return b, nil
}

// concurrent acquires runConcurrent's coordinator-side working set: the
// per-node receive buffers (carved from the same flat message backing the
// sequential engine uses) and the out/in channel headers. The channels
// themselves are always created fresh — a reused channel could carry a
// buffered message out of an aborted run — so the arena trims the header
// and buffer allocations, which dominate for the small graphs the
// engine-equivalence sweeps run on.
func (a *Arena) concurrent(g Topology) (recv [][]Message, out, in [][]chan Message) {
	n := g.N()
	sumDeg := 0
	for v := 0; v < n; v++ {
		sumDeg += g.Degree(v)
	}
	if a == nil {
		a = &Arena{}
	}
	a.msgs = grow(a.msgs, sumDeg)
	clear(a.msgs)
	a.inboxes = grow(a.inboxes, n)
	recv = a.inboxes[:n]
	a.chans = grow(a.chans, 2*n)
	out, in = a.chans[:n], a.chans[n:]
	a.chanFlat = grow(a.chanFlat, 2*sumDeg)
	clear(a.chanFlat) // stale channels from a larger prior run must not linger
	off := 0
	for v := 0; v < n; v++ {
		deg := g.Degree(v)
		recv[v] = a.msgs[off : off+deg : off+deg]
		out[v] = a.chanFlat[off : off+deg : off+deg]
		in[v] = a.chanFlat[off+sumDeg : off+sumDeg+deg : off+sumDeg+deg]
		off += deg
	}
	return recv, out, in
}
