package fault

import (
	"fmt"
	"sort"

	"locality/internal/rng"
)

// saltProc separates process-kill victim selection from the message-level
// decision streams.
const saltProc uint64 = 0x9C0C_0004

// ProcPlan is a deterministic process-level fault schedule for the cluster
// harness: which worker shards die, and how far into their sweep. Where
// Plan perturbs messages inside one simulation, ProcPlan kills whole
// localityd processes — the failure mode the coordinator's failover is
// built for. Like every plan in this package, the choices are pure
// functions of the seed, so a kill-a-shard e2e run is exactly as
// reproducible as a fault-free one.
//
// The zero value kills nothing.
type ProcPlan struct {
	// Seed drives victim selection.
	Seed uint64
	// Victims is how many shards die (capped at n-1: killing the whole
	// membership is a different experiment — the coordinator endgame — and
	// is requested explicitly, not by oversampling).
	Victims int
	// AfterBatches is how many row batches a victim commits before it is
	// killed (default 1): deaths land mid-sweep, after real work exists to
	// fail over, not before the sweep starts.
	AfterBatches int
}

// Active reports whether the plan kills anything.
func (p ProcPlan) Active() bool { return p.Victims > 0 }

// KillAfter is the batch count a victim commits before dying.
func (p ProcPlan) KillAfter() int {
	if p.AfterBatches > 0 {
		return p.AfterBatches
	}
	return 1
}

// VictimIndices selects the victims among n shards: the Victims shards
// with the smallest seeded hash, in ascending index order. Deterministic
// in (Seed, Victims, n); distinct seeds select distinct victim sets.
func (p ProcPlan) VictimIndices(n int) []int {
	if !p.Active() || n <= 1 {
		return nil
	}
	k := p.Victims
	if k > n-1 {
		k = n - 1
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		ha := rng.Mix64(p.Seed^saltProc, uint64(idx[a]))
		hb := rng.Mix64(p.Seed^saltProc, uint64(idx[b]))
		if ha != hb {
			return ha < hb
		}
		return idx[a] < idx[b]
	})
	victims := append([]int(nil), idx[:k]...)
	sort.Ints(victims)
	return victims
}

// Victim reports whether shard k of n is a kill target.
func (p ProcPlan) Victim(k, n int) bool {
	for _, v := range p.VictimIndices(n) {
		if v == k {
			return true
		}
	}
	return false
}

// String summarizes the plan for logs and test output.
func (p ProcPlan) String() string {
	if !p.Active() {
		return "none"
	}
	return fmt.Sprintf("kill %d shard(s) after %d batch(es), seed %d",
		p.Victims, p.KillAfter(), p.Seed)
}
