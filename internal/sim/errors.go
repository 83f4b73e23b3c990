package sim

import (
	"errors"
	"fmt"
	"runtime/debug"
)

// Sentinel errors for the kernel's structured failure modes; every one is
// wrapped with run context, so test with errors.Is (and errors.As against
// *NodeError for the node/round detail).
var (
	// ErrNodePanic reports a Machine that panicked in Init, Step or Output.
	// The process never crashes: the panic is recovered, the run aborts, and
	// the error carries the node, round, panic value and stack.
	ErrNodePanic = errors.New("sim: machine panicked")
	// ErrOverSend reports a Machine that returned a send slice longer than
	// its degree. The send is clamped to the degree, the node is halted, and
	// the run aborts with this error — identically on both engines.
	ErrOverSend = errors.New("sim: machine sent on more ports than its degree")
)

// NodeError is the structured report of a misbehaving Machine. It satisfies
// errors.Is against ErrNodePanic or ErrOverSend depending on the fault.
type NodeError struct {
	// Node is the vertex whose machine misbehaved.
	Node int
	// Round is the step the machine was executing: 0 for Init, the step
	// number for Step, -1 for Output (after the run completed).
	Round int
	// Value is the recovered panic value (nil for over-send faults).
	Value any
	// Stack is the goroutine stack captured at the recovery point (nil for
	// over-send faults).
	Stack []byte
	kind  error
}

func (e *NodeError) Error() string {
	var phase string
	switch {
	case e.Round == 0:
		phase = "during Init"
	case e.Round < 0:
		phase = "during Output"
	default:
		phase = fmt.Sprintf("at round %d", e.Round)
	}
	if e.Value != nil {
		return fmt.Sprintf("%v: node %d %s: %v", e.kind, e.Node, phase, e.Value)
	}
	return fmt.Sprintf("%v: node %d %s", e.kind, e.Node, phase)
}

// Unwrap exposes the sentinel (ErrNodePanic or ErrOverSend) to errors.Is.
func (e *NodeError) Unwrap() error { return e.kind }

// before orders node errors by (round, node), with Init (round 0) first and
// Output (round -1, only ever compared against other Output faults) last;
// both engines use it so they report the same fault for the same run.
func (e *NodeError) before(o *NodeError) bool {
	if o == nil {
		return true
	}
	if e.Round != o.Round {
		return e.Round < o.Round
	}
	return e.Node < o.Node
}

// overSendError builds the structured over-degree-send fault.
func overSendError(node, round, sent, degree int) *NodeError {
	return &NodeError{
		Node:  node,
		Round: round,
		Value: fmt.Sprintf("sent on %d ports but has degree %d", sent, degree),
		kind:  ErrOverSend,
	}
}

// initGuarded runs m.Init, converting a panic into a structured fault.
func initGuarded(m Machine, node int, env Env) (ne *NodeError) {
	defer func() {
		if r := recover(); r != nil {
			ne = &NodeError{Node: node, Round: 0, Value: r, Stack: debug.Stack(), kind: ErrNodePanic}
		}
	}()
	m.Init(env)
	return nil
}

// stepGuarded runs m.Step and, when s is non-nil and the node did not halt,
// s.SleepUntil, converting a panic in either into a structured fault (the
// node is then treated as halted with nothing sent).
func stepGuarded(m Machine, s Sleeper, node, round int, recv []Message) (send []Message, done bool, wake int, onMail bool, ne *NodeError) {
	defer func() {
		if r := recover(); r != nil {
			send, done, wake, onMail = nil, true, 0, false
			ne = &NodeError{Node: node, Round: round, Value: r, Stack: debug.Stack(), kind: ErrNodePanic}
		}
	}()
	send, done = m.Step(round, recv)
	if !done && s != nil {
		wake, onMail = s.SleepUntil()
	}
	return send, done, wake, onMail, nil
}

// outputGuarded runs m.Output, converting a panic into a structured fault.
func outputGuarded(m Machine, node int) (out any, ne *NodeError) {
	defer func() {
		if r := recover(); r != nil {
			out = nil
			ne = &NodeError{Node: node, Round: -1, Value: r, Stack: debug.Stack(), kind: ErrNodePanic}
		}
	}()
	return m.Output(), nil
}
