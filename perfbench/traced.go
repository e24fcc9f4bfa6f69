package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"loggpsim/internal/analyze"
	"loggpsim/internal/cost"
	"loggpsim/internal/experiments"
	"loggpsim/internal/faults"
	"loggpsim/internal/ge"
	"loggpsim/internal/lanes"
	"loggpsim/internal/layout"
	"loggpsim/internal/loggp"
	"loggpsim/internal/machine"
	"loggpsim/internal/predictor"
	"loggpsim/internal/program"
	"loggpsim/internal/robust"
	"loggpsim/internal/sim"
	"loggpsim/internal/sweep"
	"loggpsim/internal/worstcase"
)

// probeN is the matrix size of the probe-scale sweep and envelope
// families.
const probeN = 240

// overheadReps is how many times the tracing-overhead comparison runs
// each probe with tracing off and on; each side keeps its fastest run.
const overheadReps = 11

// fanoutClock turns sweep.Progress callbacks into worker busy time.
// sweep.Map hands items out in input order, so once an item completes
// with fewer items left unclaimed than workers, the worker that ran it
// finds nothing to take and idles until the fan-out's last item ends.
// A fan-out starts where the previous one (or the pass) started or
// ended.
type fanoutClock struct {
	workers int
	start   time.Time
	done    []time.Time
	busy    time.Duration
}

// progress is the sweep.Progress callback; sweep serializes its calls.
func (f *fanoutClock) progress(done, total int) {
	now := time.Now()
	f.done = append(f.done, now)
	if done < total {
		return
	}
	w := min(f.workers, total)
	f.busy += time.Duration(w) * now.Sub(f.start)
	for _, c := range f.done[total-w:] {
		f.busy -= now.Sub(c)
	}
	f.start, f.done = now, f.done[:0]
}

// sweepCell is one (layout, block size) cell of the figure sweep.
type sweepCell struct {
	grid ge.Grid
	lay  layout.Layout
}

func sweepCells(cfg experiments.Config) ([]sweepCell, error) {
	var cells []sweepCell
	for _, diagonal := range []bool{true, false} {
		for _, b := range cfg.Sizes {
			if cfg.N%b != 0 {
				continue
			}
			g, err := ge.NewGrid(cfg.N, b)
			if err != nil {
				return nil, err
			}
			lay := layout.Layout(layout.RowCyclic(cfg.P))
			if diagonal {
				lay = layout.Diagonal(cfg.P, g.NB)
			}
			cells = append(cells, sweepCell{grid: g, lay: lay})
		}
	}
	return cells, nil
}

// probeCell builds one cell's program and runs the emulator on it,
// each in a span, and returns the emulated total (µs).
func probeCell(rec *recorder, cfg experiments.Config, c sweepCell, req int64) (float64, error) {
	var (
		pr   *program.Program
		meas *machine.Result
		err  error
	)
	rec.do("sweep.probe", 0, req, func(id int64) {
		rec.do("ge.build", id, req, func(int64) { pr, err = ge.BuildProgram(c.grid, c.lay) })
		if err != nil {
			return
		}
		mcfg := machine.Default(cfg.Params, cfg.Model)
		mcfg.Seed = cfg.Seed
		mcfg.AssignedBlocks = layout.BlockCounts(c.lay, c.grid.NB)
		rec.do("machine.run", id, req, func(int64) { meas, err = machine.Run(pr, mcfg) })
	})
	if err != nil {
		return 0, err
	}
	return meas.Total, nil
}

// traceSweep measures ge, machine and sweep. The real pass
// (experiments.RunBothLayouts, plus the scaling series at full scale)
// runs whole, untraced, with sweep.Progress timing every fan-out for
// the workers' busy time. ge.BuildProgram and machine.Run are then
// called directly on every cell of the sweep, each in a span, and the
// emulated totals checked against the pass's Points. The scheduler
// cores are timed on the scaling instances at every scale.
func traceSweep(out *outcome, rec *recorder, o options, full bool) error {
	workers := runtime.NumCPU()
	cfg := paperConfig(o.Seed, workers)
	if !full {
		cfg.N = probeN
	}
	clock := &fanoutClock{workers: workers, start: time.Now()}
	t0 := clock.start
	cfg.Options = []sweep.Option{sweep.Progress(clock.progress)}
	byLayout, err := experiments.RunBothLayouts(cfg)
	if err != nil {
		return err
	}
	var scaling []*predictor.Prediction
	if full {
		if scaling, err = scalingSeries(o.Seed, sweep.Workers(workers), sweep.Progress(clock.progress)); err != nil {
			return err
		}
	}
	wall := time.Since(t0)
	out.Layer["sweep.busy_ratio"] = float64(clock.busy) / (float64(workers) * float64(wall))
	out.Layer["traced.sweep.pass_ms"] = float64(wall) / 1e6
	if full && o.Seed == DefaultSeed {
		d := digestPoints(byLayout, scaling)
		out.check(d == paperSweepGolden, "traced paper-sweep digest %s, golden %s", d, paperSweepGolden)
	}

	cells, err := sweepCells(cfg)
	if err != nil {
		return err
	}
	var points []experiments.Point
	for _, name := range []string{"diagonal", "row-cyclic"} {
		points = append(points, byLayout[name]...)
	}
	if !out.check(len(points) == len(cells), "sweep gave %d points for %d cells", len(points), len(cells)) {
		return nil
	}
	mark := len(rec.snapshot())
	rec.on.Store(true)
	for i, c := range cells {
		total, err := probeCell(rec, cfg, c, int64(i+1))
		if err != nil {
			rec.on.Store(false)
			return err
		}
		p := points[i]
		out.check(p.Layout == c.lay.Name() && p.B == c.grid.B && total*1e-6 == p.MeasuredWithCache,
			"machine.Run on %s b=%d gave %v s, the sweep's Point %v s", c.lay.Name(), c.grid.B, total*1e-6, p.MeasuredWithCache)
	}
	rec.on.Store(false)
	st := byName(rec.snapshot()[mark:])
	out.Layer["ge.build_ms"] = st["ge.build"].meanMS()
	out.Layer["machine.ms"] = st["machine.run"].meanMS()
	out.Volume["sweep.cells"] = int64(len(cells))

	// Tracing overhead, on the probe-scale cells.
	pcfg := paperConfig(o.Seed, workers)
	pcfg.N = probeN
	pcells, err := sweepCells(pcfg)
	if err != nil {
		return err
	}
	times, err := fastest(len(pcells), overheadReps,
		func(i int) error { _, err := probeCell(rec, pcfg, pcells[i], 0); return err },
		traced(rec, func(i int) error { _, err := probeCell(rec, pcfg, pcells[i], 0); return err }))
	if err != nil {
		return err
	}
	recordOverhead(out, "traced.sweep", times[0], times[1])
	return traceSchedulers(out, o.Seed)
}

// traced wraps a probe so it runs with span recording on.
func traced(rec *recorder, fn func(i int) error) func(i int) error {
	return func(i int) error {
		rec.on.Store(true)
		defer rec.on.Store(false)
		return fn(i)
	}
}

// fastest runs every fn on every item reps times, rotating which fn
// goes first, and returns per fn the sum over items of the item's
// fastest run. Each timed run directly follows an untimed run of the
// same fn and item, so every fn is timed with its own data in the
// caches and its own garbage behind it, and runs of one item by
// different fns are milliseconds apart, so a slow spell of the machine
// lands on all of them.
func fastest(items, reps int, fns ...func(i int) error) ([]time.Duration, error) {
	best := make([][]time.Duration, len(fns))
	for f := range best {
		best[f] = make([]time.Duration, items)
		for i := range best[f] {
			best[f][i] = math.MaxInt64
		}
	}
	for r := 0; r < reps; r++ {
		for i := 0; i < items; i++ {
			for k := range fns {
				f := (k + r) % len(fns)
				if err := fns[f](i); err != nil {
					return nil, err
				}
				t := time.Now()
				if err := fns[f](i); err != nil {
					return nil, err
				}
				best[f][i] = min(best[f][i], time.Since(t))
			}
		}
	}
	sums := make([]time.Duration, len(fns))
	for f := range best {
		for _, d := range best[f] {
			sums[f] += d
		}
	}
	return sums, nil
}

func recordOverhead(out *outcome, prefix string, off, on time.Duration) {
	out.Layer[prefix+".untraced_probe_ms"] = float64(off) / 1e6
	out.Layer[prefix+".traced_probe_ms"] = float64(on) / 1e6
	out.Layer[prefix+".overhead_ratio"] = float64(on) / float64(off)
}

// traceSchedulers times the scheduler cores directly: every step of the
// scaling instance at P=8 and P=256 replayed through a sim and a
// worstcase Session (Compute, then CommunicateInto, which alone is
// timed), and the allocations of one predictor.Predict call on each.
func traceSchedulers(out *outcome, seed int64) error {
	model := cost.DefaultAnalytic()
	var allocs []float64
	for _, p := range []int{8, 256} {
		pr, err := scalingProgram(p)
		if err != nil {
			return err
		}
		msgs := float64(pr.Summarize().NetworkMessages)
		durs := stepDurations(pr, model)
		params := loggp.MeikoCS2(p)

		ss, err := sim.NewSession(p, sim.Config{Params: params, Seed: seed, NoTimeline: true})
		if err != nil {
			return err
		}
		var sr sim.Result
		simT, err := replaySteps(pr, durs, ss.Compute, func(i int) error { return ss.CommunicateInto(&sr, pr.Steps[i].Comm) })
		if err != nil {
			return fmt.Errorf("sim P=%d: %w", p, err)
		}
		ws, err := worstcase.NewSession(p, worstcase.Config{Params: params, Seed: seed, NoTimeline: true})
		if err != nil {
			return err
		}
		var wr worstcase.Result
		wcT, err := replaySteps(pr, durs, ws.Compute, func(i int) error { return ws.CommunicateInto(&wr, pr.Steps[i].Comm) })
		if err != nil {
			return fmt.Errorf("worstcase P=%d: %w", p, err)
		}
		out.Layer[fmt.Sprintf("sim.ns_per_msg.p%d", p)] = float64(simT) / msgs
		out.Layer[fmt.Sprintf("worstcase.ns_per_msg.p%d", p)] = float64(wcT) / msgs
		out.Counts[fmt.Sprintf("sched.msgs.p%d", p)] = int64(msgs)

		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := predictor.Predict(pr, predictor.Config{Params: params, Cost: model, Seed: seed}); err != nil {
			return err
		}
		runtime.ReadMemStats(&after)
		allocs = append(allocs, float64(after.Mallocs-before.Mallocs))
	}
	out.Layer["predictor.allocs_per_pass"] = mean(allocs)
	return nil
}

// stepDurations prices every step's computation phase per processor.
func stepDurations(pr *program.Program, model cost.Model) [][]float64 {
	durs := make([][]float64, len(pr.Steps))
	for i, s := range pr.Steps {
		d := make([]float64, pr.P)
		for p, calls := range s.Comp {
			for _, c := range calls {
				d[p] += model.Cost(c.Op, c.BlockSize)
			}
		}
		durs[i] = d
	}
	return durs
}

func replaySteps(pr *program.Program, durs [][]float64, compute func([]float64) error, communicate func(int) error) (time.Duration, error) {
	var total time.Duration
	for i := range pr.Steps {
		if err := compute(durs[i]); err != nil {
			return 0, err
		}
		t := time.Now()
		if err := communicate(i); err != nil {
			return 0, err
		}
		total += time.Since(t)
	}
	return total, nil
}

// envelopeProbe is one block size's inputs for the direct calls of the
// envelope family: its program and a set of generated Monte-Carlo
// lanes, drawn by this benchmark (not by robust) with robust's
// perturbation spreads and fault plan. Like robust, it reuses one lane
// engine.
type envelopeProbe struct {
	b     int
	pr    *program.Program
	lanes []lanes.Lane
	eng   *lanes.Engine
}

func envelopeProbes(cfg robust.Config) ([]envelopeProbe, error) {
	var probes []envelopeProbe
	for _, b := range usableSizes(cfg) {
		g, err := ge.NewGrid(cfg.N, b)
		if err != nil {
			return nil, err
		}
		pr, err := ge.BuildProgram(g, layout.Diagonal(cfg.P, g.NB))
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(sweep.Seed(cfg.Seed, b)))
		scale := func(v, spread float64) float64 { return v * (1 + spread*(2*rng.Float64()-1)) }
		ls := make([]lanes.Lane, cfg.Samples)
		for s := range ls {
			p := cfg.Params
			p.L, p.O, p.Gap, p.G = scale(p.L, cfg.Perturb.L), scale(p.O, cfg.Perturb.O), scale(p.Gap, cfg.Perturb.Gap), scale(p.G, cfg.Perturb.G)
			ls[s] = lanes.Lane{Params: p, Seed: rng.Int63(), Faults: cfg.Faults}
			ls[s].Faults.Seed = rng.Int63()
		}
		probes = append(probes, envelopeProbe{b: b, pr: pr, lanes: ls, eng: new(lanes.Engine)})
	}
	return probes, nil
}

// probeEnvelope makes, each in a span, the public calls robust makes
// for one block size: the program build, the nominal prediction, the
// certificate shape, one Pricer.Bound per lane plus the nominal one,
// and the lockstep lanes run; then analyze.CheckProgram beside them.
func probeEnvelope(rec *recorder, cfg robust.Config, pb envelopeProbe, req int64) error {
	var err error
	rec.do("envelope.probe", 0, req, func(id int64) {
		call := func(name string, fn func()) { rec.do(name, id, req, func(int64) { fn() }) }
		g, gerr := ge.NewGrid(cfg.N, pb.b)
		if gerr != nil {
			err = gerr
			return
		}
		call("ge.build", func() { _, err = ge.BuildProgram(g, layout.Diagonal(cfg.P, g.NB)) })
		if err != nil {
			return
		}
		var pred predictor.Prediction
		call("predictor.nominal", func() {
			err = predictor.NewEvaluator().PredictInto(&pred, pb.pr, predictor.Config{Params: cfg.Params, Cost: cfg.Model, Seed: cfg.Seed})
		})
		if err != nil {
			return
		}
		var shape *analyze.ProgramShape
		call("analyze.shape", func() { shape, err = analyze.NewProgramShape(pb.pr, cfg.Model) })
		if err != nil {
			return
		}
		pricer := shape.Pricer()
		call("analyze.bound", func() { _, err = pricer.Bound(cfg.Params) })
		for _, l := range pb.lanes {
			if err != nil {
				return
			}
			call("analyze.bound", func() { _, err = pricer.Bound(l.Params) })
		}
		if err != nil {
			return
		}
		call("lanes.run", func() { _, err = pb.eng.Run(pb.pr, lanes.Config{Cost: cfg.Model}, pb.lanes) })
		if err != nil {
			return
		}
		call("analyze.check", func() { analyze.CheckProgram(pb.pr, cfg.Params, cfg.Model) })
	})
	return err
}

// traceEnvelope measures robust, lanes and analyze. The workload's
// operations (robust.Run on one block size each) run whole, untraced;
// their envelopes give lanes.lost. The public calls robust makes are
// then made directly on generated inputs of the same sizes, each in a
// span. robust's own time and the tracing overhead come from alternated
// runs at probe scale.
func traceEnvelope(out *outcome, rec *recorder, o options, full bool) error {
	cfg := envelopeConfig(o.Seed, 1)
	if !full {
		cfg = probeEnvelopeConfig(o.Seed)
	}
	t0 := time.Now()
	var envs []robust.Envelope
	for _, b := range usableSizes(cfg) {
		e, err := robust.Run(blockConfig(cfg, b))
		if err != nil {
			return err
		}
		envs = append(envs, e...)
	}
	out.Layer["traced.envelope.cycle_ms"] = float64(time.Since(t0)) / 1e6
	if full && o.Seed == DefaultSeed {
		d := digestEnvelopes(envs)
		out.check(d == mcEnvelopeGolden, "traced mc-envelope digest %s, golden %s", d, mcEnvelopeGolden)
	}
	var lost int64
	for _, e := range envs {
		lost += int64(e.Lost)
	}
	out.Layer["lanes.lost"] = float64(lost)
	out.Counts["envelope.lanes_lost"] = lost

	probes, err := envelopeProbes(cfg)
	if err != nil {
		return err
	}
	mark := len(rec.snapshot())
	rec.on.Store(true)
	var laneMsgs float64
	for i, pb := range probes {
		if err := probeEnvelope(rec, cfg, pb, int64(i+1)); err != nil {
			rec.on.Store(false)
			return err
		}
		laneMsgs += float64(pb.pr.Summarize().NetworkMessages) * float64(2*len(pb.lanes))
	}
	rec.on.Store(false)
	st := byName(rec.snapshot()[mark:])
	out.Layer["lanes.ns_per_lane_msg"] = float64(st["lanes.run"].total) / laneMsgs
	out.Layer["analyze.shape_ms"] = st["analyze.shape"].meanMS()
	out.Layer["analyze.bound_us"] = st["analyze.bound"].meanUS()
	out.Layer["analyze.check_ms"] = st["analyze.check"].meanMS()

	// robust's own time and the tracing overhead, at probe scale: per
	// block size, robust.Run alternated with the direct calls, untraced
	// and traced. analyze.CheckProgram is not a call robust makes, so
	// it is timed alone and taken out of the calls' time. Without a
	// fault plan no lane stops early, so the benchmark's lanes replay
	// as many messages as robust's own.
	pcfg := probeEnvelopeConfig(o.Seed)
	pcfg.Faults = faults.Plan{}
	pprobes, err := envelopeProbes(pcfg)
	if err != nil {
		return err
	}
	calls := func(i int) error { return probeEnvelope(rec, pcfg, pprobes[i], 0) }
	times, err := fastest(len(pprobes), overheadReps,
		func(i int) error { _, err := robust.Run(blockConfig(pcfg, pprobes[i].b)); return err },
		calls,
		traced(rec, calls),
		func(i int) error { analyze.CheckProgram(pprobes[i].pr, pcfg.Params, pcfg.Model); return nil })
	if err != nil {
		return err
	}
	out.Layer["robust.self_ms"] = float64(times[0]-(times[1]-times[3])) / 1e6
	recordOverhead(out, "traced.envelope", times[1], times[2])
	return nil
}

func probeEnvelopeConfig(seed int64) robust.Config {
	cfg := envelopeConfig(seed, 1)
	cfg.N, cfg.Sizes, cfg.Samples = probeN, []int{8, 12, 16, 24, 48}, 8
	return cfg
}
