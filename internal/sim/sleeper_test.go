package sim_test

import (
	"errors"
	"reflect"
	"testing"

	"locality/internal/graph"
	"locality/internal/rng"
	"locality/internal/sim"
)

// sleepy is a Sleeper test machine. It works (sums the tokens it receives
// and sends a fresh token on every port) at every step except inside its
// sleep windows, where Step is a no-op that ignores its mail. After the
// step that opens a window it asks to sleep until the window's wake step.
type sleepy struct {
	windows [][2]int // (last working step, wake step) pairs
	stop    int      // halting step
	last    int      // last step at which Step did work
	sum     int      // the output

	rig *sleepyRig

	// Instrumentation owned by the test, one slot per node, outside the
	// machine's observable state.
	calls *[]int // every step at which Step was called
	mail  *int   // messages received inside a sleep window
}

// sleepyRig is what the machines of one run share: a read-only schedule
// and the per-node instrumentation slots (each written by its node only).
type sleepyRig struct {
	schedule func(v int) ([][2]int, int) // node v's windows and halting step
	calls    [][]int
	mail     []int
}

func (m *sleepy) Init(env sim.Env) {
	v := env.Node // instrumentation only: picks the node's schedule and slots
	m.windows, m.stop = m.rig.schedule(v)
	m.calls, m.mail = &m.rig.calls[v], &m.rig.mail[v]
}

func (m *sleepy) asleep(step int) bool {
	for _, w := range m.windows {
		if step > w[0] && step < w[1] {
			return true
		}
	}
	return false
}

func (m *sleepy) Step(step int, recv []sim.Message) ([]sim.Message, bool) {
	*m.calls = append(*m.calls, step)
	if m.asleep(step) {
		for _, msg := range recv {
			if msg != nil {
				*m.mail++
			}
		}
		return nil, false
	}
	m.last = step
	for _, msg := range recv {
		if msg != nil {
			m.sum += msg.(int)
		}
	}
	send := make([]sim.Message, len(recv))
	for p := range send {
		send[p] = 100*step + p
	}
	return send, step >= m.stop
}

func (m *sleepy) SleepUntil() int {
	for _, w := range m.windows {
		if m.last == w[0] {
			return w[1]
		}
	}
	return 0
}

func (m *sleepy) Output() any { return m.sum }

var _ sim.Sleeper = (*sleepy)(nil)

// sleepyRun runs sleepy machines whose windows and halting step schedule
// picks per node, and returns the result, the per-step stats, every node's
// Step calls and the mail the nodes received while asleep.
func sleepyRun(t *testing.T, g sim.Topology, cfg sim.Config, schedule func(v int) ([][2]int, int)) (*sim.Result, []sim.RoundStats, [][]int, int, error) {
	t.Helper()
	n := g.N()
	rig := &sleepyRig{schedule: schedule, calls: make([][]int, n), mail: make([]int, n)}
	var stats []sim.RoundStats
	cfg.OnRoundStats = func(s sim.RoundStats) { stats = append(stats, s) }
	res, err := sim.Run(g, cfg, func() sim.Machine { return &sleepy{rig: rig} })
	total := 0
	for _, m := range rig.mail {
		total += m
	}
	return res, stats, rig.calls, total, err
}

// mixedSchedule gives node v two sleep windows of varying length (or none,
// for every fourth node) and a halting step after both.
func mixedSchedule(v int) ([][2]int, int) {
	stop := 15 + v%4
	if v%4 == 3 {
		return nil, stop
	}
	s1 := 2 + v%3
	w1 := s1 + 2 + v%5
	s2 := w1 + 1
	return [][2]int{{s1, w1}, {s2, s2 + 3}}, stop
}

// TestSleeperContract: the sequential engine never calls Step inside a
// sleep window, while the run it produces — outputs, rounds, halt rounds,
// message count and every round's stats — equals the concurrent engine's,
// which steps every live node. Neighbors keep sending to sleeping nodes, so
// the windows are exercised with mail on their ports.
func TestSleeperContract(t *testing.T) {
	g := graph.RandomTree(40, 4, rng.New(3))
	seqRes, seqStats, seqCalls, _, err := sleepyRun(t, g, sim.Config{Engine: sim.EngineSequential}, mixedSchedule)
	if err != nil {
		t.Fatal(err)
	}
	conRes, conStats, conCalls, asleepMail, err := sleepyRun(t, g, sim.Config{Engine: sim.EngineConcurrent}, mixedSchedule)
	if err != nil {
		t.Fatal(err)
	}
	if asleepMail == 0 {
		t.Fatal("no node received mail while asleep; the test exercises nothing")
	}

	skipped := 0
	for v := range seqCalls {
		windows, _ := mixedSchedule(v)
		probe := &sleepy{windows: windows}
		for _, step := range seqCalls[v] {
			if probe.asleep(step) {
				t.Errorf("node %d: sequential engine called Step at step %d inside a sleep window %v", v, step, windows)
			}
		}
		if want := len(conCalls[v]); len(seqCalls[v]) > want {
			t.Errorf("node %d: sequential engine made %d Step calls, concurrent %d", v, len(seqCalls[v]), want)
		}
		skipped += len(conCalls[v]) - len(seqCalls[v])
	}
	if skipped == 0 {
		t.Error("the sequential engine skipped no Step call")
	}

	if !reflect.DeepEqual(seqRes, conRes) {
		t.Errorf("results diverge:\nsequential %+v\nconcurrent %+v", seqRes, conRes)
	}
	if !reflect.DeepEqual(seqStats, conStats) {
		t.Errorf("round stats diverge:\nsequential %+v\nconcurrent %+v", seqStats, conStats)
	}
}

// TestSleeperArenaReuseLeaksNoWake: a sleeper run that aborts while its
// nodes sleep leaves wake steps in the arena; a plain run on the same arena
// must still step every node at every step.
func TestSleeperArenaReuseLeaksNoWake(t *testing.T) {
	g := graph.Ring(8)
	arena := &sim.Arena{}
	_, _, _, _, err := sleepyRun(t, g, sim.Config{Arena: arena, MaxRounds: 4},
		func(int) ([][2]int, int) { return [][2]int{{1, 50}}, 60 })
	if !errors.Is(err, sim.ErrMaxRounds) {
		t.Fatalf("sleeper run: got %v, want ErrMaxRounds", err)
	}

	const stop = 10
	calls := make([][]int, g.N())
	res, err := sim.Run(g, sim.Config{Arena: arena}, func() sim.Machine {
		var log *[]int
		return &sim.FuncMachine{
			OnInit: func(env sim.Env) { log = &calls[env.Node] },
			OnStep: func(step int, _ []sim.Message) ([]sim.Message, bool) {
				*log = append(*log, step)
				return nil, step >= stop
			},
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != stop-1 {
		t.Errorf("plain run: %d rounds, want %d", res.Rounds, stop-1)
	}
	for v, c := range calls {
		if len(c) != stop {
			t.Errorf("node %d stepped at %v, want every step 1..%d", v, c, stop)
		}
	}
}
