package predictor

// Differential suite of the two replay engines. The quiet-mode lane
// path must be indistinguishable from the session path it replaced:
// bit-identical predictions, losses on exactly the same
// configurations, and the same error texts and chains. The corpus
// stresses every divergence source the schedulers have — tie-break RNG
// consumption (symmetric patterns), worst-case deadlock releases
// (cyclic rings), rendezvous and no-cross-gap machines, mixed message
// sizes (byte classes), fault retransmits, jitter, stragglers,
// degradation windows, lost messages — and GE programs up to P=256.

import (
	"context"
	"errors"
	"math"
	"testing"

	"loggpsim/internal/blockops"
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

func diffCorpus(t *testing.T) map[string]*program.Program {
	t.Helper()
	gePr := func(n, b, p int) *program.Program {
		grid, err := ge.NewGrid(n, b)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := ge.BuildProgram(grid, layout.Diagonal(p, grid.NB))
		if err != nil {
			t.Fatal(err)
		}
		return pr
	}
	return map[string]*program.Program{
		// Cyclic rings every step: the worst-case scheduler deadlocks and
		// must consume its release RNG repeatedly.
		"rings":     build(6, trace.Ring(6, 112), trace.Ring(6, 112), trace.Ring(6, 700)),
		"symmetric": build(8, trace.AllToAll(8, 64), trace.Butterfly(3, 512)),
		"figure3":   build(10, trace.Figure3()),
		// Mixed message sizes across steps: many byte classes.
		"random":  build(9, trace.Random(9, 40, 2048, 5), trace.RandomDAG(9, 30, 4096, 3), trace.Shift(9, 2, 300)),
		"empty":   build(4, trace.New(4), trace.New(4)),
		"ge":      gePr(96, 12, 6),
		"ge-p64":  gePr(192, 12, 64),
		"ge-p256": gePr(384, 16, 256),
	}
}

// diffMachines returns machine variants for p processors: presets, an
// ablated no-cross-gap machine, and a rendezvous threshold splitting
// the corpus' message sizes across both protocols.
func diffMachines(p int) []loggp.Params {
	noCross := loggp.MeikoCS2(p)
	noCross.NoCrossGap = true
	rendez := loggp.Cluster(p)
	rendez.S = 256
	return []loggp.Params{loggp.MeikoCS2(p), loggp.LowOverhead(p), noCross, rendez}
}

func diffPlans() []faults.Plan {
	return []faults.Plan{
		{},
		{Seed: 3, Drop: faults.Drop{Prob: 0.1}},
		{Seed: 9, Drop: faults.Drop{Prob: 0.08}, Compute: faults.Compute{Jitter: 0.4, Stragglers: 2, Factor: 3}},
		{Seed: 5, Degrade: []faults.Degrade{{Start: 10, End: 500, GScale: 2.5, LScale: 2}}},
		// Tight retry budget: configurations lose messages.
		{Seed: 7, Drop: faults.Drop{Prob: 0.3, MaxRetries: 1}},
	}
}

// sameBits reports whether two times are the same float64, bit for bit.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// diffResult returns a description of the first field of a lane result
// that differs from the oracle's prediction, or "" when none does.
func diffResult(r lanes.Result, comp []float64, want *Prediction) string {
	got := Prediction{
		Total: r.Total, TotalWorst: r.TotalWorst, Comm: r.Comm, CommWorst: r.CommWorst,
		Comp: r.Comp, CompPerProc: comp, Steps: want.Steps,
	}
	return diffPrediction(&got, want)
}

// diffPrediction returns a description of the first field of got that
// differs from want bit for bit, or "" when none does.
func diffPrediction(got, want *Prediction) string {
	fields := []struct {
		name      string
		got, want float64
	}{
		{"Total", got.Total, want.Total},
		{"TotalWorst", got.TotalWorst, want.TotalWorst},
		{"Comm", got.Comm, want.Comm},
		{"CommWorst", got.CommWorst, want.CommWorst},
		{"Comp", got.Comp, want.Comp},
		{"CacheWarm", got.CacheWarm, want.CacheWarm},
	}
	for _, f := range fields {
		if !sameBits(f.got, f.want) {
			return f.name + " differs"
		}
	}
	if got.Steps != want.Steps || len(got.CompPerProc) != len(want.CompPerProc) || len(got.PerStep) != len(want.PerStep) {
		return "shape differs"
	}
	for q := range want.CompPerProc {
		if !sameBits(got.CompPerProc[q], want.CompPerProc[q]) {
			return "CompPerProc differs"
		}
	}
	return ""
}

// TestLanesMatchScalarPredictor fans every corpus program across the
// machine × seed × fault-plan grid and predicts each configuration
// three ways: on the session path (the oracle), through PredictInto
// (the quiet-mode lane path, one lane), and as one lane of a single
// lockstep lanes.Engine run over the whole grid. All three must agree
// bit for bit on every field, and lose messages on exactly the same
// configurations with the same error text.
func TestLanesMatchScalarPredictor(t *testing.T) {
	for name, pr := range diffCorpus(t) {
		t.Run(name, func(t *testing.T) {
			var ls []lanes.Lane
			for mi, m := range diffMachines(pr.P) {
				for si, seed := range []int64{1, 42, 999} {
					plan := diffPlans()[(mi+si)%len(diffPlans())]
					// Scale a couple of parameters so lanes disagree on the
					// LogGP vector, not just on seeds and faults.
					m := m
					m.L *= 1 + 0.1*float64(si)
					m.Gap *= 1 + 0.05*float64(mi)
					ls = append(ls, lanes.Lane{Params: m, Seed: seed, Faults: plan})
				}
			}
			var eng lanes.Engine
			batch, err := eng.Run(pr, lanes.Config{Cost: model}, ls)
			if err != nil {
				t.Fatal(err)
			}
			e := NewEvaluator()
			lost := 0
			for l, ln := range ls {
				cfg := Config{Params: ln.Params, Cost: model, Seed: ln.Seed, Faults: ln.Faults}
				var want, got Prediction
				wantErr := e.predictSessions(&want, pr, cfg)
				gotErr := e.PredictInto(&got, pr, cfg)
				if wantErr != nil {
					var le *faults.LossError
					if !errors.As(wantErr, &le) {
						t.Fatalf("lane %d: session path failed: %v", l, wantErr)
					}
					if gotErr == nil || gotErr.Error() != wantErr.Error() || !errors.As(gotErr, &le) {
						t.Fatalf("lane %d: session path lost a message:\n%v\nlane path returned\n%v", l, wantErr, gotErr)
					}
					if !errors.As(batch[l].Err, &le) {
						t.Fatalf("lane %d: session path lost a message (%v); batched lane returned %+v", l, wantErr, batch[l])
					}
					lost++
					continue
				}
				if gotErr != nil || batch[l].Err != nil {
					t.Fatalf("lane %d: session path succeeded but the lane path failed: %v / %v", l, gotErr, batch[l].Err)
				}
				if d := diffPrediction(&got, &want); d != "" {
					t.Fatalf("lane %d: lane path diverges from the session path (%s):\nsession %+v\nlane    %+v", l, d, want, got)
				}
				if d := diffResult(batch[l], eng.CompPerProc(l), &want); d != "" {
					t.Fatalf("lane %d: batched lane diverges from the session path (%s):\nsession %+v\nlane    %+v", l, d, want, batch[l])
				}
			}
			if name == "rings" && lost == 0 {
				t.Fatal("no ring configuration lost a message; masking went unexercised")
			}
		})
	}
}

// pollCtx is a context whose Err turns to DeadlineExceeded on its
// (after+1)-th poll: both paths poll once per program step, so it
// cancels them at the same step.
type pollCtx struct {
	context.Context
	polls, after int
}

func (c *pollCtx) Err() error {
	c.polls++
	if c.polls > c.after {
		return context.DeadlineExceeded
	}
	return nil
}

// negModel prices every operation at a negative time.
type negModel struct{}

func (negModel) Cost(blockops.Op, int) float64 { return -1 }
func (negModel) Name() string                  { return "negative" }

// TestLanesErrorTextMatchesSessions pins error parity: every failure the
// lane path can meet must read exactly as the session path words it,
// with the same error chain. A lost message and a mid-replay
// cancellation must be answered by the lane path itself, not by a
// fallback replay on the sessions.
func TestLanesErrorTextMatchesSessions(t *testing.T) {
	pr := geProgram(t, 96, 8, 4)
	lossy, err := faults.Parse("drop=0.99,retries=1")
	if err != nil {
		t.Fatal(err)
	}
	meiko4 := loggp.MeikoCS2(4)
	bad := program.New(4)
	bad.AddStep().AddOp(0, blockops.NumOps, 8)
	cases := []struct {
		name     string
		pr       *program.Program // nil: the GE program
		cfg      func() Config
		is       error
		loss     bool
		laneOnly bool // the lane path must answer without the sessions
	}{
		{name: "loss", cfg: func() Config { return Config{Params: meiko4, Cost: model, Seed: 2, Faults: lossy} },
			loss: true, laneOnly: true},
		{name: "cancel", cfg: func() Config {
			return Config{Params: meiko4, Cost: model, Ctx: &pollCtx{Context: context.Background(), after: 3}}
		}, is: context.DeadlineExceeded, laneOnly: true},
		{name: "machine-too-small", cfg: func() Config { return Config{Params: loggp.MeikoCS2(2), Cost: model} }},
		{name: "bad-params", cfg: func() Config { return Config{Params: loggp.Params{L: -1, O: 1, Gap: 1, P: 4}, Cost: model} }},
		{name: "bad-plan", cfg: func() Config {
			return Config{Params: meiko4, Cost: model, Faults: faults.Plan{Drop: faults.Drop{Prob: 1.5}}}
		}},
		{name: "negative-cost", cfg: func() Config { return Config{Params: meiko4, Cost: negModel{}} }},
		{name: "invalid-program", pr: bad, cfg: func() Config { return Config{Params: meiko4, Cost: model} }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			pr := pr
			if c.pr != nil {
				pr = c.pr
			}
			lane, sess := NewEvaluator(), NewEvaluator()
			var out Prediction
			laneErr := lane.PredictInto(&out, pr, c.cfg())
			sessErr := sess.predictSessions(&out, pr, c.cfg())
			if laneErr == nil || sessErr == nil {
				t.Fatalf("lane path %v, session path %v: want both to fail", laneErr, sessErr)
			}
			if laneErr.Error() != sessErr.Error() {
				t.Fatalf("error texts differ:\nlane    %q\nsession %q", laneErr, sessErr)
			}
			if c.is != nil && (!errors.Is(laneErr, c.is) || !errors.Is(sessErr, c.is)) {
				t.Fatalf("errors.Is(%v): lane %v, session %v", c.is, errors.Is(laneErr, c.is), errors.Is(sessErr, c.is))
			}
			var le *faults.LossError
			if c.loss && (!errors.As(laneErr, &le) || !errors.As(sessErr, &le)) {
				t.Fatalf("loss not in both chains: lane %v, session %v", laneErr, sessErr)
			}
			if c.laneOnly && lane.sim != nil {
				t.Fatal("the lane path fell back to the sessions")
			}
		})
	}
}

// TestAblationsTakeSessionPath checks the dispatch: every configuration
// outside quiet mode must run on the sessions, and quiet mode on the
// lane engine alone.
func TestAblationsTakeSessionPath(t *testing.T) {
	pr := geProgram(t, 48, 8, 4)
	meiko4 := loggp.MeikoCS2(4)
	base := Config{Params: meiko4, Cost: model}
	ablations := map[string]func(*Config){
		"send-priority": func(c *Config) { c.SendPriority = true },
		"global-order":  func(c *Config) { c.GlobalOrder = true },
		"network":       func(c *Config) { c.Network = flatNet{meiko4} },
		"overlap":       func(c *Config) { c.Overlap = true },
		"cache":         func(c *Config) { c.CacheBytes = 1 << 16 },
		"collect-steps": func(c *Config) { c.CollectSteps = true },
	}
	for name, set := range ablations {
		cfg := base
		set(&cfg)
		e := NewEvaluator()
		if _, err := e.Predict(pr, cfg); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if e.sim == nil || e.eng != nil {
			t.Fatalf("%s: ran on the lane engine", name)
		}
	}
	e := NewEvaluator()
	if _, err := e.Predict(pr, base); err != nil {
		t.Fatal(err)
	}
	if e.eng == nil || e.sim != nil {
		t.Fatal("quiet mode did not run on the lane engine alone")
	}
}

// flatNet is the flat LogGP network as an explicit fabric.
type flatNet struct{ p loggp.Params }

func (n flatNet) Arrival(src, dst, bytes int, inject float64) float64 {
	return inject - n.p.O + n.p.ArrivalDelay(bytes)
}
