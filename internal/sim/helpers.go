package sim

import "fmt"

// IntOutputs converts a result's outputs to ints. It panics with the vertex
// index if any output has a different dynamic type, which in this library
// indicates a bug in the Machine, not bad input.
func IntOutputs(res *Result) []int {
	out := make([]int, len(res.Outputs))
	for v, o := range res.Outputs {
		x, ok := o.(int)
		if !ok {
			panic(fmt.Sprintf("sim: output of node %d is %T, want int", v, o))
		}
		out[v] = x
	}
	return out
}

// FuncMachine adapts closures to the Machine interface; it keeps tests and
// small experimental algorithms compact.
type FuncMachine struct {
	// OnInit may be nil.
	OnInit func(env Env)
	// OnStep must be non-nil.
	OnStep func(round int, recv []Message) ([]Message, bool)
	// OnOutput may be nil (output is then nil).
	OnOutput func() any
}

var _ Machine = (*FuncMachine)(nil)

// Init implements Machine.
func (m *FuncMachine) Init(env Env) {
	if m.OnInit != nil {
		m.OnInit(env)
	}
}

// Step implements Machine.
func (m *FuncMachine) Step(round int, recv []Message) ([]Message, bool) {
	return m.OnStep(round, recv)
}

// Output implements Machine.
func (m *FuncMachine) Output() any {
	if m.OnOutput != nil {
		return m.OnOutput()
	}
	return nil
}

// BroadcastInto sets the first degree entries of *buf to msg, reallocating
// *buf only when its capacity is below degree, and returns them as the send
// slice. A machine that passes the same buffer on every Step broadcasts
// without allocating; the Machine no-retain rule makes the reuse safe.
func BroadcastInto(buf *[]Message, degree int, msg Message) []Message {
	if cap(*buf) < degree {
		*buf = make([]Message, degree)
	}
	send := (*buf)[:degree]
	for p := range send {
		send[p] = msg
	}
	*buf = send
	return send
}

// Box keeps the Message a machine last broadcast, so a machine whose status
// did not change since its previous Step sends that same immutable Message
// again instead of boxing a copy. T must be comparable with ==: a struct
// with an interface field would panic at run time on an uncomparable
// dynamic value, so such statuses keep boxing through BroadcastInto
// directly. The zero Box is ready to use.
type Box[T comparable] struct {
	msg Message // nil before the first call
}

// Of returns st as a Message. It boxes st on the first call and whenever
// st differs from the previous call's value, and then reports changed;
// otherwise it returns the Message it boxed then. Re-sending that value
// keeps the Machine no-retain rule, since a sent value is never mutated. A
// machine whose neighbours keep the last status they heard can skip the
// send when changed is false.
func (b *Box[T]) Of(st T) (msg Message, changed bool) {
	if last, ok := b.msg.(T); !ok || last != st {
		b.msg = st
		return b.msg, true
	}
	return b.msg, false
}
