package lanes_test

// The lane engine's contract is bit-identity with a replay of the same
// configuration on the sim/worstcase sessions; that differential suite
// lives in package predictor (TestLanesMatchScalarPredictor), where the
// session path is the oracle of the quiet-mode lane path. The tests
// here cover the engine's own contracts: storage reuse, lane isolation,
// input rejection, cancellation, the loss error chain, and
// allocation-free steady-state runs.

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"loggpsim/internal/blockops"
	"loggpsim/internal/cost"
	"loggpsim/internal/faults"
	"loggpsim/internal/ge"
	"loggpsim/internal/lanes"
	"loggpsim/internal/layout"
	"loggpsim/internal/loggp"
	"loggpsim/internal/program"
	"loggpsim/internal/trace"
)

// build wraps patterns into a program, interleaving computation phases
// of uneven per-processor cost so clocks both collide (consuming
// tie-break randomness) and spread (reordering sends).
func build(p int, pats ...*trace.Pattern) *program.Program {
	pr := program.New(p)
	for i, pt := range pats {
		s := pr.AddStep()
		for q := 0; q < p; q++ {
			for r := 0; r < (i+q)%3; r++ {
				s.AddOp(q, blockops.Op1, 8+q%2)
			}
		}
		s.Comm = pt
	}
	return pr
}

func corpus(t *testing.T) map[string]*program.Program {
	t.Helper()
	grid, err := ge.NewGrid(96, 12)
	if err != nil {
		t.Fatal(err)
	}
	gePr, err := ge.BuildProgram(grid, layout.Diagonal(6, grid.NB))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*program.Program{
		// Cyclic rings every step: the worst-case scheduler deadlocks and
		// must consume its release RNG repeatedly.
		"rings":     build(6, trace.Ring(6, 112), trace.Ring(6, 112), trace.Ring(6, 700)),
		"symmetric": build(8, trace.AllToAll(8, 64), trace.Butterfly(3, 512)),
		"figure3":   build(10, trace.Figure3()),
		// Mixed message sizes across steps: many byte classes.
		"random": build(9, trace.Random(9, 40, 2048, 5), trace.RandomDAG(9, 30, 4096, 3), trace.Shift(9, 2, 300)),
		"empty":  build(4, trace.New(4), trace.New(4)),
		"ge":     gePr,
	}
}

// TestEngineReuse runs the same engine across different programs and
// lane counts; storage reuse must not leak state between runs.
func TestEngineReuse(t *testing.T) {
	model := cost.DefaultAnalytic()
	prs := corpus(t)
	var eng lanes.Engine
	for _, name := range []string{"rings", "random", "rings", "empty", "symmetric", "rings"} {
		pr := prs[name]
		n := 3 + len(name)%4
		ls := make([]lanes.Lane, n)
		for i := range ls {
			ls[i] = lanes.Lane{Params: loggp.MeikoCS2(pr.P), Seed: int64(i + 1)}
		}
		reused, err := eng.Run(pr, lanes.Config{Cost: model}, ls)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fresh, err := lanes.Run(pr, lanes.Config{Cost: model}, ls)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for l := range ls {
			if reused[l] != fresh[l] {
				t.Fatalf("%s lane %d: reused engine diverges: %+v vs %+v", name, l, reused[l], fresh[l])
			}
		}
	}
}

// TestLaneIsolation checks that a lane rejected at configuration time
// (bad parameters, machine too small) fails alone.
func TestLaneIsolation(t *testing.T) {
	pr := build(4, trace.Ring(4, 128))
	ls := []lanes.Lane{
		{Params: loggp.MeikoCS2(4), Seed: 1},
		{Params: loggp.Params{L: -5, O: 1, Gap: 1, P: 4}, Seed: 1},
		{Params: loggp.MeikoCS2(2), Seed: 1},
		{Params: loggp.MeikoCS2(4), Seed: 1},
	}
	results, err := lanes.Run(pr, lanes.Config{Cost: cost.DefaultAnalytic()}, ls)
	if err != nil {
		t.Fatal(err)
	}
	if results[1].Err == nil || results[2].Err == nil {
		t.Fatalf("invalid lanes accepted: %+v", results)
	}
	if results[0].Err != nil || results[3].Err != nil {
		t.Fatalf("valid lanes poisoned by invalid neighbours: %+v", results)
	}
	if results[0] != results[3] {
		t.Fatalf("identical lanes disagree: %+v vs %+v", results[0], results[3])
	}
}

// TestRunRejectsBadInput covers the shared-input errors.
func TestRunRejectsBadInput(t *testing.T) {
	pr := build(2, trace.New(2).Add(0, 1, 64))
	if _, err := lanes.Run(pr, lanes.Config{}, []lanes.Lane{{Params: loggp.MeikoCS2(2)}}); err == nil {
		t.Fatal("nil cost model accepted")
	}
	if _, err := lanes.Run(pr, lanes.Config{Cost: cost.DefaultAnalytic()}, nil); err == nil {
		t.Fatal("empty lane set accepted")
	}
}

// TestContextCancellation checks the lane-step deadline granularity: a
// pre-cancelled context aborts the whole run with the context's error.
func TestContextCancellation(t *testing.T) {
	pr := build(4, trace.Ring(4, 128), trace.Ring(4, 128))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := lanes.Run(pr, lanes.Config{Cost: cost.DefaultAnalytic(), Ctx: ctx},
		[]lanes.Lane{{Params: loggp.MeikoCS2(4), Seed: 1}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestLostLanePreservesLossError pins the error contract: a lost lane's
// error chain must expose the *faults.LossError so callers can separate
// losses from internal failures, as robust does.
func TestLostLanePreservesLossError(t *testing.T) {
	pr := build(4, trace.AllToAll(4, 256), trace.AllToAll(4, 256))
	ls := []lanes.Lane{{
		Params: loggp.MeikoCS2(4),
		Seed:   2,
		Faults: faults.Plan{Seed: 1, Drop: faults.Drop{Prob: 0.95, MaxRetries: 1}},
	}}
	results, err := lanes.Run(pr, lanes.Config{Cost: cost.DefaultAnalytic()}, ls)
	if err != nil {
		t.Fatal(err)
	}
	var le *faults.LossError
	if results[0].Err == nil || !errors.As(results[0].Err, &le) {
		t.Fatalf("lost lane error %v does not expose *faults.LossError", results[0].Err)
	}
	if fmt.Sprint(le) == "" {
		t.Fatal("empty loss error")
	}
}

// TestRunIntoAllocationFree pins the reuse contract: once a reused
// engine has seen a program, RunInto with a reused result slice
// allocates nothing, and Run allocates only its returned slice.
func TestRunIntoAllocationFree(t *testing.T) {
	pr := corpus(t)["ge"]
	cfg := lanes.Config{Cost: cost.DefaultAnalytic()}
	ls := []lanes.Lane{{Params: loggp.MeikoCS2(pr.P), Seed: 1}, {Params: loggp.Cluster(pr.P), Seed: 2}}
	var eng lanes.Engine
	res, err := eng.RunInto(nil, pr, cfg, ls)
	if err != nil {
		t.Fatal(err) // warm-up sizes every buffer
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if res, err = eng.RunInto(res, pr, cfg, ls); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("steady-state RunInto allocated %v times per run", allocs)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := eng.Run(pr, cfg, ls); err != nil {
			t.Fatal(err)
		}
	}); allocs != 1 {
		t.Fatalf("steady-state Run allocated %v times per run, want 1 (the result slice)", allocs)
	}
}
