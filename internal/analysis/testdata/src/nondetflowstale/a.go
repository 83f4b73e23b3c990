// Package nondetflowstale exercises exemption verification: a live
// leaf-confined exemption silences its callers, while stale, unknown and
// unjustified table entries are themselves reported.
package nondetflowstale // want `exemption "nondetflowstale\.Gone" \(wallclock\) names no function in this package`

import "time"

// Wait is the sanctioned leaf: it directly reads the clock and the test
// exempts it, so neither Wait nor its caller is reported.
func Wait() {
	time.Sleep(time.Millisecond)
}

// UsesWait is accepted: its only path to the clock is the exempted leaf.
func UsesWait() {
	Wait()
}

// NotALeaf is exempted in the test but contains no direct clock read — the
// exemption is stale and must be reported, because it would otherwise
// silently sanction whatever NotALeaf grows to call.
func NotALeaf() { // want `stale exemption: nondetflowstale\.NotALeaf no longer contains a direct wallclock source`
	helper()
}

// helper holds the actual read; NotALeaf's exemption does not cover it, so
// NotALeaf is still a barrier for its callers (exemptions absorb taint
// regardless of staleness) but the table entry itself is flagged.
func helper() { // want `nondeterminism \(wallclock\) reachable from nondetflowstale\.helper`
	_ = time.Now()
}

// Unjustified directly reads the clock and is exempted without a reason —
// the entry is reported even though it is leaf-confined.
func Unjustified() { // want `exemption "nondetflowstale\.Unjustified" \(wallclock\) has no justification`
	_ = time.Now()
}

// Misspelt reads the clock under an exemption whose kind, "wallclok", names
// no kind: the entry is reported, and since it sanctions nothing the read
// is reported too.
func Misspelt() { // want `exemption "nondetflowstale\.Misspelt" has kind "wallclok", which nondetflow does not check \(it checks wallclock, rawrand, mapiter, goroutine\): fix or delete the entry` `nondeterminism \(wallclock\) reachable from nondetflowstale\.Misspelt`
	_ = time.Now()
}

// Blocks is exempted under "blocking", a real taint kind that nondetflow
// does not check: the entry is reported, and it does not cover the sleep.
func Blocks() { // want `exemption "nondetflowstale\.Blocks" has kind "blocking", which nondetflow does not check` `nondeterminism \(wallclock\) reachable from nondetflowstale\.Blocks`
	time.Sleep(time.Millisecond)
}
