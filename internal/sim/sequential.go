package sim

import (
	"context"
	"fmt"
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
// delivered into its inbox and discarded unread, so every Result field and
// RoundStats value is what stepping it would have produced.
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
	for v := 0; v < n; v++ {
		machines[v] = f()
		if ne := initGuarded(machines[v], v, makeEnv(g, cfg, maxDeg, v)); ne != nil {
			return nil, ne
		}
		sleepers[v], _ = machines[v].(Sleeper)
	}

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
			v, ok := b.wakes.popDue(step)
			if !ok {
				break
			}
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
				send, nodeDone, wakeAt, ne := stepGuarded(machines[v], sleepers[v], v, step, recv)
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
					haltRound[v] = step - 1
					live--
				case wakeAt > step+1:
					ready[wi] &^= 1 << (v & 63)
					b.wakes.push(wakeEntry{step: wakeAt, node: v})
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
