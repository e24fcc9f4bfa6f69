package robust

import (
	"errors"
	"fmt"

	"loggpsim/internal/analyze"
	"loggpsim/internal/faults"
	"loggpsim/internal/predictor"
	"loggpsim/internal/program"
	"loggpsim/internal/sweep"
)

// runScalar is Run on the per-sample reference path: one full predictor
// replay and one from-scratch certificate per sample. It is the oracle
// TestLockstepMatchesScalar holds the lockstep path to, and the
// baseline BenchmarkEnvelopeScalar measures it against.
func runScalar(cfg Config) ([]Envelope, error) {
	return run(cfg, scalarEnvelope)
}

func scalarEnvelope(cfg Config, pr *program.Program, nominalTotal float64, i, b, samples int) (Envelope, error) {
	nominalBounds, err := analyze.BoundProgram(pr, cfg.Params, cfg.Model)
	if err != nil {
		return Envelope{}, err
	}
	env := Envelope{
		B:         b,
		Nominal:   nominalTotal * secPerMicro,
		CertLower: nominalBounds.Lower * secPerMicro,
		CertUpper: nominalBounds.Upper * secPerMicro,
	}
	e := predictor.NewEvaluator()
	var pred predictor.Prediction
	totals := make([]float64, 0, samples)
	worsts := make([]float64, 0, samples)
	for s := 0; s < samples; s++ {
		if cfg.Ctx != nil {
			if err := cfg.Ctx.Err(); err != nil {
				return Envelope{}, fmt.Errorf("robust: b=%d after %d of %d samples: %w", b, s, samples, err)
			}
		}
		seed := sweep.Seed(cfg.Seed, i*samples+s)
		scfg := predictor.Config{
			Params: sampleParams(cfg.Params, cfg.Perturb, seed),
			Cost:   cfg.Model,
			Seed:   seed,
			Ctx:    cfg.Ctx,
		}
		if cfg.Faults.Enabled() {
			scfg.Faults = cfg.Faults
			scfg.Faults.Seed = sweep.Seed(seed, 4)
		}
		if err := e.PredictInto(&pred, pr, scfg); err != nil {
			var le *faults.LossError
			if errors.As(err, &le) {
				env.Lost++
				continue
			}
			return Envelope{}, fmt.Errorf("robust: b=%d sample %d: %w", b, s, err)
		}
		bounds, err := analyze.BoundProgram(pr, scfg.Params, cfg.Model)
		if err != nil {
			return Envelope{}, fmt.Errorf("robust: b=%d sample %d: %w", b, s, err)
		}
		const tol = 1e-9
		if pred.Total < bounds.Lower*(1-tol)-tol {
			return Envelope{}, fmt.Errorf(
				"robust: b=%d sample %d: prediction %g below its certificate lower bound %g",
				b, s, pred.Total, bounds.Lower)
		}
		if !cfg.Faults.Enabled() && pred.TotalWorst > bounds.Upper*(1+tol)+tol {
			return Envelope{}, fmt.Errorf(
				"robust: b=%d sample %d: worst-case prediction %g above its certificate upper bound %g",
				b, s, pred.TotalWorst, bounds.Upper)
		}
		env.Samples++
		totals = append(totals, pred.Total*secPerMicro)
		worsts = append(worsts, pred.TotalWorst*secPerMicro)
	}
	if env.Samples == 0 {
		return Envelope{}, fmt.Errorf("robust: b=%d: all %d samples lost a message; lower the drop rate or raise the retry budget", b, samples)
	}
	env.Total = summarize(totals)
	env.Worst = summarize(worsts)
	return env, nil
}
