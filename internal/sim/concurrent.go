package sim

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// abortGrace bounds how long an aborting run waits for node goroutines to
// drain after the abort channel closes. Cooperative machines (ones that
// return from Step) exit within microseconds; only a machine blocked
// forever inside Step can exhaust it, and Go offers no way to kill such a
// goroutine — the run then returns anyway, reporting the leak.
const abortGrace = 2 * time.Second

// runConcurrent executes one goroutine per node. Every directed edge is a
// buffered channel of capacity one; a round is: all nodes send on their
// out-channels, then all nodes receive on their in-channels. The capacity-1
// buffering makes the send phase non-blocking, so the round cannot deadlock.
//
// Nodes that have halted keep participating in the message rhythm (sending
// nils) until the whole run stops, which keeps every goroutine in lockstep
// without per-node liveness negotiation. A coordinator drives rounds via
// per-node start channels and collects per-round status.
//
// Failure discipline: machine panics and over-degree sends are captured as
// *NodeError statuses; the coordinator finishes the round, picks the
// (round, node)-minimal fault (matching the sequential engine's sweep
// order) and shuts the run down gracefully. Cancellation aborts via a
// dedicated channel that every blocking operation in the node loop selects
// on, so all goroutines are reaped even mid-round.
func runConcurrent(ctx context.Context, g Topology, cfg Config, f Factory) (*Result, error) {
	n := g.N()
	maxDeg := topologyMaxDegree(g)

	// out[v][p] is the channel carrying v's port-p messages; the neighbor u
	// with reverse port q receives on out[v][p] == in[u][q]. The header
	// slices and receive buffers come from the caller's arena when one is
	// set; the channels themselves are always fresh (see Arena.concurrent).
	recvs, out, in := cfg.Arena.concurrent(g)
	for v := 0; v < n; v++ {
		for p := range out[v] {
			out[v][p] = make(chan Message, 1)
		}
	}
	for v := 0; v < n; v++ {
		for p := range out[v] {
			u, rev := g.NeighborPort(v, p)
			in[u][rev] = out[v][p]
		}
	}

	type status struct {
		node     int
		justDone bool
		fault    *NodeError
		// msgs/bytes carry the node's per-round telemetry when
		// Config.OnRoundStats is set; the coordinator aggregates them so
		// the hook observes the same totals the sequential engine reports.
		msgs  int64
		bytes int64
	}
	stats := cfg.OnRoundStats != nil
	start := make([]chan bool, n) // true = run a round, false = stop
	statusCh := make(chan status, n)
	abort := make(chan struct{})
	var msgCount atomic.Int64

	var wg sync.WaitGroup
	srcs := nodeStreams(cfg, n)
	outputs := make([]any, n)
	outFaults := make([]*NodeError, n)
	haltRound := make([]int, n)

	for v := 0; v < n; v++ {
		start[v] = make(chan bool, 1)
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			m := f()
			initFault := initGuarded(m, v, makeEnv(g, cfg, srcs, maxDeg, v))
			deg := g.Degree(v)
			recv := recvs[v]
			done := initFault != nil
			round := 0
			for {
				var cont bool
				select {
				case cont = <-start[v]:
				case <-abort:
					return
				}
				if !cont {
					break
				}
				round++
				st := status{node: v}
				if initFault != nil {
					st.fault = initFault
					initFault = nil
				}
				var send []Message
				if !done {
					var ne *NodeError
					send, done, _, _, ne = stepGuarded(m, nil, v, round, recv)
					switch {
					case ne != nil:
						st.fault = ne
					case len(send) > deg:
						st.fault = overSendError(v, round, len(send), deg)
						send = send[:deg]
						done = true
					case done:
						st.justDone = true
					}
				}
				// Send phase: one message (possibly nil) per port, always,
				// so receivers never block waiting for a halted node.
				for p := 0; p < deg; p++ {
					var msg Message
					if p < len(send) {
						msg = send[p]
					}
					if msg != nil {
						msgCount.Add(1)
						if stats {
							st.msgs++
							st.bytes += MessageBytes(msg)
						}
					}
					select {
					case out[v][p] <- msg:
					case <-abort:
						return
					}
				}
				// Receive phase.
				for p := 0; p < deg; p++ {
					select {
					case recv[p] = <-in[v][p]:
					case <-abort:
						return
					}
				}
				select {
				case statusCh <- st:
				case <-abort:
					return
				}
			}
			outputs[v], outFaults[v] = outputGuarded(m, v)
		}(v)
	}

	// stopAll drains the run gracefully: every node has finished its round
	// and is (or will be) waiting on its start channel, so the false token
	// lets it collect its output and exit.
	stopAll := func() {
		for v := 0; v < n; v++ {
			start[v] <- false
		}
		wg.Wait()
	}

	// abortAll tears the run down mid-round: the abort channel wakes nodes
	// blocked anywhere in the round protocol. Outputs are not collected.
	abortAll := func(cause error) error {
		close(abort)
		drained := make(chan struct{})
		go func() {
			wg.Wait()
			close(drained)
		}()
		select {
		case <-drained:
			return cause
		case <-time.After(abortGrace):
			return fmt.Errorf("%w (node goroutines still blocked inside Step after %v; they cannot be reaped)", cause, abortGrace)
		}
	}

	ctxDone := ctx.Done()
	collect := func(round int) (status, error) {
		if ctxDone == nil {
			return <-statusCh, nil
		}
		select {
		case st := <-statusCh:
			return st, nil
		case <-ctxDone:
			return status{}, cancelErr(ctx, round)
		}
	}

	res := &Result{HaltRound: haltRound}
	live := n
	for step := 1; live > 0; step++ {
		if ctx.Err() != nil {
			return nil, abortAll(cancelErr(ctx, step-1))
		}
		if step > cfg.MaxRounds+1 {
			stopAll()
			return nil, fmt.Errorf("%w: budget %d, %d nodes still live", ErrMaxRounds, cfg.MaxRounds, live)
		}
		res.Rounds = step - 1
		active := live
		for v := 0; v < n; v++ {
			start[v] <- true
		}
		var fault *NodeError
		var roundMsgs, roundBytes int64
		for i := 0; i < n; i++ {
			st, err := collect(step - 1)
			if err != nil {
				return nil, abortAll(err)
			}
			if st.fault != nil && st.fault.before(fault) {
				fault = st.fault
			}
			roundMsgs += st.msgs
			roundBytes += st.bytes
			if st.justDone {
				haltRound[st.node] = step - 1
				live--
			}
		}
		if fault != nil {
			stopAll()
			return nil, fault
		}
		// Progress hooks: every node's status for this step is in, and no
		// node faulted (mirrors the sequential engine, which aborts its
		// sweep mid-step on a fault and so never notifies for that step).
		if stats {
			cfg.OnRoundStats(RoundStats{Round: step, Messages: roundMsgs,
				Bytes: roundBytes, Active: active, Halted: n - live})
		}
	}
	stopAll()

	var fault *NodeError
	for v := 0; v < n; v++ {
		if outFaults[v] != nil {
			fault = outFaults[v]
			break
		}
	}
	if fault != nil {
		return nil, fault
	}
	res.Outputs = outputs
	res.MessagesSent = msgCount.Load()
	return res, nil
}
