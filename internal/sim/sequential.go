package sim

import (
	"context"
	"fmt"
	"math"
	"math/bits"
)

// runSequential executes all nodes in index order within one goroutine,
// double-buffering the per-port inboxes. Delivery is one store per message
// through the arena's route table, and each step clears only the inbox
// slots that were written. It is the deterministic fast path used by
// benchmarks. Each step visits only the nodes in the arena's ready set, so
// its cost follows the live, awake nodes rather than n. A node whose
// machine implements Sleeper leaves that set while it sleeps and waits in
// the wake queue; it stays live, and messages sent to it meanwhile are
// delivered into its inbox as usual, so every Result field and RoundStats
// value is what stepping it would have produced. A discard-mode sleeper
// never reads that mail. A mail-mode sleeper is woken by it: after a
// step's sweep the engine looks up the owners of the slots written in it.
// It skips that lookup while no node sleeps in mail mode, and acquires the
// sleep state only for a run that has a Sleeper, so other runs pay nothing
// for either mode.
//
// Misbehaving machines never crash the process: panics and over-degree
// sends surface as *NodeError. Because the sweep visits nodes in index
// order, the first fault encountered is the (round, node)-minimal one —
// the same fault the concurrent engine reports for the same run.
func runSequential(ctx context.Context, g Topology, cfg Config, f Factory) (*Result, error) {
	n := g.N()
	maxDeg := topologyMaxDegree(g)

	// The working buffers come from the caller's arena when one is set;
	// haltRound is always fresh because the Result keeps it.
	b, err := cfg.Arena.sequential(g)
	if err != nil {
		return nil, err
	}
	machines, sleepers, ready := b.machines, b.sleepers, b.ready
	cur, next, curW, nextW := b.cur, b.next, b.curW, b.nextW
	off, route := b.off, b.route
	haltRound := make([]int, n)
	srcs := nodeStreams(cfg, n)
	anySleeper := false
	for v := 0; v < n; v++ {
		machines[v] = f()
		if ne := initGuarded(machines[v], v, makeEnv(g, cfg, srcs, maxDeg, v)); ne != nil {
			return nil, ne
		}
		sleepers[v], _ = machines[v].(Sleeper)
		anySleeper = anySleeper || sleepers[v] != nil
	}
	// The sleep state: the wake queue, and queued[v], the step of node
	// v's newest entry still in the queue (0 for none), negated while v
	// sleeps in mail mode. A mail wake leaves the node's entry in the
	// queue; an entry whose step is not ±queued[v] is stale and skipped,
	// and a node that sleeps again to its entry's step reuses it. The
	// queue holds n entries before it grows, which only a mail-woken node
	// that sleeps to a new step before its stale entry is due can make it
	// do. nappers counts the nodes sleeping in mail mode. A wake step
	// beyond the round budget is clipped to the step that fails the run,
	// which no node reaches.
	var wakes wakeQueue
	var queued []int64
	if anySleeper {
		wakes, queued = cfg.Arena.sleepState(n)
	}
	nappers := 0
	lastWake := min(cfg.MaxRounds+2, math.MaxInt32)

	res := &Result{HaltRound: haltRound}
	live := n
	stats := cfg.OnRoundStats != nil
	for step := 1; live > 0; step++ {
		if ctx.Err() != nil {
			return nil, cancelErr(ctx, step-1)
		}
		if step > cfg.MaxRounds+1 {
			return nil, fmt.Errorf("%w: budget %d, %d nodes still live", ErrMaxRounds, cfg.MaxRounds, live)
		}
		res.Rounds = step - 1
		active := live
		var roundBytes int64
		for {
			w, v, ok := wakes.popDue(step)
			if !ok {
				break
			}
			switch q := queued[v]; q {
			case int64(-w):
				nappers--
			case int64(w):
			default:
				continue // stale: a mail wake came first, or v halted
			}
			queued[v] = 0
			ready[v>>6] |= 1 << (v & 63)
		}
		// Only live, awake nodes are in ready: a halted node's Step is
		// never called again, and a sleeping one's would be a no-op. The
		// word is copied before its nodes are stepped, and a step clears
		// at most the bit of the node it steps, so the sweep visits nodes
		// in index order.
		for wi, word := range ready {
			for ; word != 0; word &= word - 1 {
				v := wi<<6 | bits.TrailingZeros64(word)
				o, deg := off[v], g.Degree(v)
				recv := cur[o : int(o)+deg : int(o)+deg]
				send, nodeDone, wakeAt, onMail, ne := stepGuarded(machines[v], sleepers[v], v, step, recv)
				if ne != nil {
					return nil, ne
				}
				if len(send) > deg {
					return nil, overSendError(v, step, len(send), deg)
				}
				// The machine may reuse send in its next Step, so every
				// entry is copied into next now.
				ports := route[o : int(o)+len(send)]
				for p, msg := range send {
					if msg == nil {
						continue
					}
					slot := ports[p]
					next[slot] = msg
					nextW = append(nextW, slot)
					if stats {
						roundBytes += MessageBytes(msg)
					}
				}
				switch {
				case nodeDone:
					ready[wi] &^= 1 << (v & 63)
					if sleepers[v] != nil {
						queued[v] = 0 // any entry left is stale
					}
					haltRound[v] = step - 1
					live--
				case wakeAt > step+1:
					ready[wi] &^= 1 << (v & 63)
					w := int64(min(wakeAt, lastWake))
					if queued[v] != w { // else an entry left by a mail wake serves again
						wakes.push(int(w), v)
					}
					queued[v] = w
					if onMail {
						queued[v] = -w
						nappers++
					}
				}
			}
		}
		// Mail wakes: every mail-mode sleeper that this step's mail reached,
		// whether it was sent before or after the node fell asleep in the
		// sweep, is stepped at the next step. Its wake entry stays queued.
		if nappers > 0 {
			for _, slot := range nextW {
				v := slotOwner(off, slot)
				if q := queued[v]; q < 0 {
					queued[v] = -q
					nappers--
					ready[v>>6] |= 1 << (v & 63)
				}
			}
		}
		roundMsgs := int64(len(nextW))
		res.MessagesSent += roundMsgs
		// Swap buffers, then clear the slots the new next still holds from
		// the step before: the mail this step consumed, and the mail that
		// sleeping nodes skipped. The other slots are already nil.
		cur, next = next, cur
		curW, nextW = nextW, curW
		for _, slot := range nextW {
			next[slot] = nil
		}
		nextW = nextW[:0]
		// Progress hooks: the step completed for every node (faulted steps
		// return above, matching the concurrent engine's fault-free-only
		// notification).
		if stats {
			cfg.OnRoundStats(RoundStats{Round: step, Messages: roundMsgs,
				Bytes: roundBytes, Active: active, Halted: n - live})
		}
	}

	res.Outputs = make([]any, n)
	for v := 0; v < n; v++ {
		out, ne := outputGuarded(machines[v], v)
		if ne != nil {
			return nil, ne
		}
		res.Outputs[v] = out
	}
	return res, nil
}

// slotOwner returns the node whose inbox holds slot: the last v with
// off[v] <= slot. Nodes of degree zero own no slot, and since they share
// their offset with the next node, the last such v is the one that does.
func slotOwner(off []int32, slot int32) int {
	lo, hi := 0, len(off) // off[lo] <= slot < off[hi], off[len(off)] read as +inf
	for hi-lo > 1 {
		mid := int(uint(lo+hi) >> 1)
		if off[mid] <= slot {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}
