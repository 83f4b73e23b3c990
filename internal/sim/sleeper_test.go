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
// and sends a fresh token on every port its rig lets it speak on) at every
// step except inside its sleep windows, where Step is a no-op that ignores
// its mail. After the step that opens a window it asks to sleep until the
// window's wake step. In mail mode a Step inside a window that has mail
// works too, and the node then asks to sleep to the same wake step again.
type sleepy struct {
	windows [][2]int // (last working step, wake step) pairs
	stop    int      // halting step
	last    int      // last step at which Step did work
	sum     int      // the output
	node    int

	rig *sleepyRig

	// Instrumentation owned by the test, one slot per node, outside the
	// machine's observable state.
	calls *[]int // every step at which Step was called
	mail  *int   // messages received inside a sleep window and not read
}

// sleepyRig is what the machines of one run share: a read-only schedule,
// the sleep mode, and the per-node instrumentation slots (each written by
// its node only).
type sleepyRig struct {
	schedule func(v int) ([][2]int, int) // node v's windows and halting step
	onMail   bool
	// speaks reports whether node v sends at a step it works at; nil means
	// always.
	speaks func(v, step int) bool
	calls  [][]int
	mail   []int
}

func (m *sleepy) Init(env sim.Env) {
	v := env.Node // instrumentation only: picks the node's schedule and slots
	m.node = v
	m.windows, m.stop = m.rig.schedule(v)
	m.calls, m.mail = &m.rig.calls[v], &m.rig.mail[v]
}

// window returns the sleep window step lies in, if any.
func (m *sleepy) window(step int) ([2]int, bool) {
	for _, w := range m.windows {
		if step > w[0] && step < w[1] {
			return w, true
		}
	}
	return [2]int{}, false
}

func (m *sleepy) asleep(step int) bool {
	_, in := m.window(step)
	return in
}

func (m *sleepy) Step(step int, recv []sim.Message) ([]sim.Message, bool) {
	*m.calls = append(*m.calls, step)
	if m.asleep(step) {
		mail := 0
		for _, msg := range recv {
			if msg != nil {
				mail++
			}
		}
		if !m.rig.onMail || mail == 0 {
			*m.mail += mail
			return nil, false
		}
	}
	m.last = step
	for _, msg := range recv {
		if msg != nil {
			m.sum += msg.(int)
		}
	}
	send := make([]sim.Message, len(recv))
	if m.rig.speaks == nil || m.rig.speaks(m.node, step) {
		for p := range send {
			send[p] = 100*step + p
		}
	}
	return send, step >= m.stop
}

func (m *sleepy) SleepUntil() (int, bool) {
	for _, w := range m.windows {
		if m.last == w[0] {
			return w[1], m.rig.onMail
		}
	}
	if w, in := m.window(m.last); in {
		return w[1], m.rig.onMail // woken by mail: sleep on to the same step
	}
	return 0, false
}

func (m *sleepy) Output() any { return m.sum }

var _ sim.Sleeper = (*sleepy)(nil)

// sleepyRun runs sleepy machines on the rig's schedule and returns the
// result, the per-step stats, every node's Step calls and the mail the
// nodes received while asleep and did not read.
func sleepyRun(t *testing.T, g sim.Topology, cfg sim.Config, rig sleepyRig) (*sim.Result, []sim.RoundStats, [][]int, int, error) {
	t.Helper()
	n := g.N()
	rig.calls, rig.mail = make([][]int, n), make([]int, n)
	var stats []sim.RoundStats
	cfg.OnRoundStats = func(s sim.RoundStats) { stats = append(stats, s) }
	res, err := sim.Run(g, cfg, func() sim.Machine { return &sleepy{rig: &rig} })
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

// oneNapper is the schedule of the mail-wake cases: on the path 0-1-2,
// node 1 works through step 3, falls asleep in mail mode until step 9 and
// halts at 12, and its neighbors never sleep.
func oneNapper(v int) ([][2]int, int) {
	if v == 1 {
		return [][2]int{{3, 9}}, 12
	}
	return nil, 12
}

// TestSleeperContract: the sequential engine never calls Step inside a
// sleep window, except, in mail mode, at a step whose inbox holds mail,
// while the run it produces — outputs, rounds, halt rounds, message count
// and every round's stats — equals the concurrent engine's, which steps
// every live node. In the mixed cases neighbors keep sending to sleeping
// nodes, so the windows are exercised with mail on their ports. In the
// two mail-wake cases node 1 falls asleep at step 3, and the only mail it
// gets in its window is sent in that same step, by the lower-index node 0
// (swept before node 1 falls asleep) or by the higher-index node 2 (swept
// after): it must be stepped at step 4 and at no other step of the window.
func TestSleeperContract(t *testing.T) {
	tree := graph.RandomTree(40, 4, rng.New(3))
	speaksAt3 := func(who int) func(v, step int) bool {
		return func(v, step int) bool { return v == who && step == 3 }
	}
	for _, c := range []struct {
		name string
		g    sim.Topology
		rig  sleepyRig
		// woken, when positive, is the one step inside node 1's window
		// at which the sequential engine must step it.
		woken int
	}{
		{name: "discard", g: tree, rig: sleepyRig{schedule: mixedSchedule}},
		{name: "mail-mixed", g: tree, rig: sleepyRig{schedule: mixedSchedule, onMail: true,
			speaks: func(v, step int) bool { return (v+step)%3 == 0 }}},
		{name: "mail-from-lower", g: graph.Path(3), rig: sleepyRig{schedule: oneNapper, onMail: true, speaks: speaksAt3(0)}, woken: 4},
		{name: "mail-from-higher", g: graph.Path(3), rig: sleepyRig{schedule: oneNapper, onMail: true, speaks: speaksAt3(2)}, woken: 4},
	} {
		t.Run(c.name, func(t *testing.T) {
			seqRes, seqStats, seqCalls, _, err := sleepyRun(t, c.g, sim.Config{Engine: sim.EngineSequential}, c.rig)
			if err != nil {
				t.Fatal(err)
			}
			conRes, conStats, conCalls, asleepMail, err := sleepyRun(t, c.g, sim.Config{Engine: sim.EngineConcurrent}, c.rig)
			if err != nil {
				t.Fatal(err)
			}
			if !c.rig.onMail && asleepMail == 0 {
				t.Fatal("no node received mail while asleep; the test exercises nothing")
			}

			skipped, mailSteps := 0, 0
			for v := range seqCalls {
				windows, _ := c.rig.schedule(v)
				probe := &sleepy{windows: windows}
				for _, step := range seqCalls[v] {
					if !probe.asleep(step) {
						continue
					}
					if !c.rig.onMail {
						t.Errorf("node %d: sequential engine called Step at step %d inside a sleep window %v", v, step, windows)
					}
					mailSteps++
				}
				if want := len(conCalls[v]); len(seqCalls[v]) > want {
					t.Errorf("node %d: sequential engine made %d Step calls, concurrent %d", v, len(seqCalls[v]), want)
				}
				skipped += len(conCalls[v]) - len(seqCalls[v])
			}
			if skipped == 0 {
				t.Error("the sequential engine skipped no Step call")
			}
			if c.rig.onMail && mailSteps == 0 {
				t.Error("no mail woke a sleeping node")
			}
			if c.woken > 0 {
				var inWindow []int
				for _, step := range seqCalls[1] {
					if step > 3 && step < 9 {
						inWindow = append(inWindow, step)
					}
				}
				if !reflect.DeepEqual(inWindow, []int{c.woken}) {
					t.Errorf("node 1 was stepped at %v inside its window (3, 9), want only at %d", inWindow, c.woken)
				}
			}

			if !reflect.DeepEqual(seqRes, conRes) {
				t.Errorf("results diverge:\nsequential %+v\nconcurrent %+v", seqRes, conRes)
			}
			if !reflect.DeepEqual(seqStats, conStats) {
				t.Errorf("round stats diverge:\nsequential %+v\nconcurrent %+v", seqStats, conStats)
			}
		})
	}
}

// TestSleeperArenaReuseLeaksNoWake: a sleeper run that aborts while its
// nodes sleep leaves wake steps in the arena; a plain run on the same arena
// must still step every node at every step.
func TestSleeperArenaReuseLeaksNoWake(t *testing.T) {
	g := graph.Ring(8)
	arena := &sim.Arena{}
	_, _, _, _, err := sleepyRun(t, g, sim.Config{Arena: arena, MaxRounds: 4},
		sleepyRig{schedule: func(int) ([][2]int, int) { return [][2]int{{1, 50}}, 60 }})
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
