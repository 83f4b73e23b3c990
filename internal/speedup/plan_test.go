package speedup

import (
	"reflect"
	"testing"

	"locality/internal/linial"
)

// TestSlowColoringSharesOneLinialPlan checks that the slow coloring builds
// its inner Linial factory once per ID length, so every machine's inner
// linial.Machine holds the same plan.
func TestSlowColoringSharesOneLinialPlan(t *testing.T) {
	f := NewSlowColoringFactory(3, 1, 2)(10)
	planOf := func() uintptr {
		inner := f().(*slowColoring).inner.(*linial.Machine)
		return reflect.ValueOf(inner).Elem().FieldByName("plan").Pointer()
	}
	first := planOf()
	if first == 0 {
		t.Fatal("inner Linial machine holds no plan")
	}
	for i := 0; i < 5; i++ {
		if p := planOf(); p != first {
			t.Fatalf("machine %d holds Linial plan %#x, machine 0 holds %#x", i+1, p, first)
		}
	}
}
