package sim_test

import (
	"testing"
	"unsafe"

	"locality/internal/sim"
)

type boxStatus struct {
	ID    uint64
	Color int
	Done  bool
}

// TestBoxReboxesOnlyOnChange: the first call boxes, even a zero value; an
// equal status returns the identical Message; a status that differs in any
// one field is boxed again, and boxing it again yields the new value. Of
// reports changed exactly when it boxed.
func TestBoxReboxesOnlyOnChange(t *testing.T) {
	var b sim.Box[boxStatus]
	first, changed := b.Of(boxStatus{})
	if first == nil || !changed {
		t.Fatalf("first call on a zero status returned %v, changed %v", first, changed)
	}
	if got := first.(boxStatus); got != (boxStatus{}) {
		t.Fatalf("first call boxed %+v, want the zero status", got)
	}
	if again, changed := b.Of(boxStatus{}); !sameBox(again, first) || changed {
		t.Errorf("an equal status was boxed again (changed %v)", changed)
	}

	prev := first
	for _, st := range []boxStatus{{ID: 1}, {ID: 1, Color: 2}, {ID: 1, Color: 2, Done: true}, {Color: 2, Done: true}} {
		msg, changed := b.Of(st)
		if sameBox(msg, prev) || !changed {
			t.Errorf("status %+v: got the Message boxed for the previous status (changed %v)", st, changed)
		}
		if got := msg.(boxStatus); got != st {
			t.Errorf("status %+v: boxed %+v", st, got)
		}
		if again, changed := b.Of(st); !sameBox(again, msg) || changed {
			t.Errorf("status %+v: an unchanged status was boxed again (changed %v)", st, changed)
		}
		prev = msg
	}

	allocs := testing.AllocsPerRun(100, func() { b.Of(boxStatus{Color: 2, Done: true}) })
	if allocs != 0 {
		t.Errorf("re-sending an unchanged status allocates %.0f times", allocs)
	}
}

// sameBox reports whether a and b are the one boxed value, not merely
// equal ones: an interface holding a struct points at its boxed copy, so
// the same box means the same data word.
func sameBox(a, b sim.Message) bool {
	data := func(m *sim.Message) unsafe.Pointer { return (*[2]unsafe.Pointer)(unsafe.Pointer(m))[1] }
	return data(&a) == data(&b)
}
