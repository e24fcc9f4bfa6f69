package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"loggpsim/internal/cost"
	"loggpsim/internal/experiments"
	"loggpsim/internal/faults"
	"loggpsim/internal/ge"
	"loggpsim/internal/layout"
	"loggpsim/internal/loggp"
	"loggpsim/internal/predictor"
	"loggpsim/internal/program"
	"loggpsim/internal/robust"
	"loggpsim/internal/sweep"
)

const (
	familySweep    = "sweep"
	familyEnvelope = "envelope"
	familyServe    = "serve"
)

// setupReps is how many times each run sets the workload up from
// scratch; setup_s is the median.
const setupReps = 3

// Figure 4/5 completion times of the paper's sample pattern, in µs.
const (
	figure4Golden = 61.555
	figure5Golden = 73.11
)

// Golden digests at DefaultSeed: every Point of the paper sweep plus
// the processor-scaling predictions, and the Monte-Carlo envelopes'
// quantiles, samples and losses. A change to any bit of any of them
// is a correctness failure.
const (
	paperSweepGolden = "8d9598daff74480c"
	mcEnvelopeGolden = "b8abe49d294537a1"
)

// scalingProcs is the processor-scaling series of paper-sweep: GE
// n=1920, b=24, diagonal layout, through the predictor. The indexed
// scheduler cores and the lane engine are expected to cross over at
// P ≥ 64.
var scalingProcs = []int{8, 16, 32, 64, 128, 256}

const (
	scalingN     = 1920
	scalingBlock = 24
)

// sweepWorkers is the sweep fan-out of an in-process workload.
// paper-sweep fans out over every CPU, as cmd/experiments does.
// mc-envelope's operations are one block size each, a single sweep
// item, so it runs one worker.
func sweepWorkers(name string) int {
	if name == "mc-envelope" {
		return 1
	}
	return runtime.NumCPU()
}

// envelopeFaults is mc-envelope's fault plan: compute jitter plus
// packet drops with a small retry budget, so lanes retransmit and
// diverge and a few lose a message outright.
const envelopeFaults = "jitter=0.1,drop=0.01,retries=2"

func paperConfig(seed int64, workers int) experiments.Config {
	cfg := experiments.Default()
	cfg.Seed = seed
	cfg.Workers = workers
	return cfg
}

func envelopeConfig(seed int64, workers int) robust.Config {
	plan, err := faults.Parse(envelopeFaults)
	if err != nil {
		panic(err) // a constant spec
	}
	return robust.Config{
		N:       480,
		P:       8,
		Sizes:   experiments.BlockSizes,
		Params:  loggp.MeikoCS2(8),
		Model:   cost.DefaultAnalytic(),
		Samples: 64,
		Seed:    seed,
		Perturb: robust.Perturb{L: 0.2, O: 0.1, Gap: 0.2, G: 0.15},
		Faults:  plan,
		Workers: workers,
	}
}

// scalingSeries predicts the processor-scaling series, fanned out over
// the sweep workers like the figure sweep.
func scalingSeries(seed int64, opts ...sweep.Option) ([]*predictor.Prediction, error) {
	return sweep.Map(scalingProcs, func(_ int, p int) (*predictor.Prediction, error) {
		pr, err := scalingProgram(p)
		if err != nil {
			return nil, err
		}
		return predictor.Predict(pr, predictor.Config{
			Params: loggp.MeikoCS2(p), Cost: cost.DefaultAnalytic(), Seed: seed,
		})
	}, opts...)
}

func scalingProgram(p int) (*program.Program, error) {
	g, err := ge.NewGrid(scalingN, scalingBlock)
	if err != nil {
		return nil, err
	}
	return ge.BuildProgram(g, layout.Diagonal(p, g.NB))
}

// hexf renders a float bit-exactly.
func hexf(x float64) string { return strconv.FormatFloat(x, 'x', -1, 64) }

func digestPoints(byLayout map[string][]experiments.Point, scaling []*predictor.Prediction) string {
	h := sha256.New()
	names := make([]string, 0, len(byLayout))
	for n := range byLayout {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		for _, p := range byLayout[n] {
			fmt.Fprintf(h, "%s %d %s %s %s %s %s %s %s %s %s %s %d\n", p.Layout, p.B,
				hexf(p.MeasuredWithCache), hexf(p.MeasuredWithoutCache), hexf(p.SimStandard), hexf(p.SimWorst),
				hexf(p.CommMeasured), hexf(p.CommStandard), hexf(p.CommWorst),
				hexf(p.CompMeasured), hexf(p.CompSimulated), hexf(p.CacheWarm), p.Misses)
		}
	}
	for i, pr := range scaling {
		fmt.Fprintf(h, "P=%d %s %s %s %s %s %d\n", scalingProcs[i], hexf(pr.Total), hexf(pr.TotalWorst),
			hexf(pr.Comm), hexf(pr.CommWorst), hexf(pr.Comp), pr.Steps)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func digestEnvelopes(envs []robust.Envelope) string {
	h := sha256.New()
	for _, e := range envs {
		fmt.Fprintf(h, "%d %s %s %s %s %s %s %d %d\n", e.B,
			hexf(e.Total.P5), hexf(e.Total.P50), hexf(e.Total.P95),
			hexf(e.Worst.P5), hexf(e.Worst.P50), hexf(e.Worst.P95), e.Samples, e.Lost)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// computeJob is one in-process workload as the worker runs it: a cycle
// of ops operations, each returning its output digest; the checks the
// first cycle gets; and the exact counters of one cycle. A paper-sweep
// operation is the whole pass a cmd/experiments user waits for; an
// mc-envelope operation is one block size's envelope, what a predictd
// envelope request computes, so a run times a few dozen of them.
type computeJob struct {
	ops    int
	op     func(i int) (string, error)
	first  func(o *outcome, digests []string)
	counts func() (msgsPerCycle float64, counts map[string]int64, err error)
}

func newComputeJob(name string, seed int64, workers int) (computeJob, error) {
	switch name {
	case "paper-sweep":
		var (
			last          map[string][]experiments.Point
			held, nClaims int64
		)
		cfg := paperConfig(seed, workers)
		return computeJob{
			ops: 1,
			op: func(int) (string, error) {
				byLayout, err := experiments.RunBothLayouts(cfg)
				if err != nil {
					return "", err
				}
				scaling, err := scalingSeries(seed, sweep.Workers(workers))
				if err != nil {
					return "", err
				}
				last = byLayout
				return digestPoints(byLayout, scaling), nil
			},
			// The paper's claims are gated at the default seed, where the
			// repository asserts them. They are statistical findings on
			// one emulated sample: at seed 401 the comm-bracketing claim
			// holds on 25 of 28 points, under its 90% threshold. At other
			// seeds the number holding is an exact counter instead.
			first: func(o *outcome, digests []string) {
				checkFigures45(o)
				claims := experiments.CheckClaims(last)
				held, nClaims = 0, int64(len(claims))
				for _, c := range claims {
					if c.Pass {
						held++
					}
					if seed == DefaultSeed {
						o.check(c.Pass, "claim %q does not hold: %s", c.Name, c.Detail)
					}
				}
				if seed == DefaultSeed {
					o.check(digests[0] == paperSweepGolden, "paper-sweep digest %s, golden %s", digests[0], paperSweepGolden)
				}
			},
			counts: func() (float64, map[string]int64, error) {
				msgs, counts, err := paperSweepCounts(cfg)
				if err != nil {
					return 0, nil, err
				}
				counts["claims_held"], counts["claims"] = held, nClaims
				return msgs, counts, nil
			},
		}, nil
	case "mc-envelope":
		cfg := envelopeConfig(seed, workers)
		sizes := usableSizes(cfg)
		last := make([]robust.Envelope, len(sizes))
		return computeJob{
			ops: len(sizes),
			op: func(i int) (string, error) {
				envs, err := robust.Run(blockConfig(cfg, sizes[i]))
				if err != nil {
					return "", err
				}
				if len(envs) != 1 {
					return "", fmt.Errorf("b=%d: %d envelopes", sizes[i], len(envs))
				}
				last[i] = envs[0]
				return digestEnvelopes(envs), nil
			},
			first: func(o *outcome, _ []string) {
				o.check(len(sizes) == len(cfg.Sizes), "%d usable block sizes of %d", len(sizes), len(cfg.Sizes))
				if seed == DefaultSeed {
					d := digestEnvelopes(last)
					o.check(d == mcEnvelopeGolden, "mc-envelope digest %s, golden %s", d, mcEnvelopeGolden)
				}
			},
			counts: func() (float64, map[string]int64, error) {
				msgs, counts, err := envelopeCounts(cfg)
				if err != nil {
					return 0, nil, err
				}
				var lost, samples int64
				for _, e := range last {
					lost += int64(e.Lost)
					samples += int64(e.Samples)
				}
				counts["lanes_lost_per_cycle"] = lost
				counts["samples_per_cycle"] = samples
				return msgs, counts, nil
			},
		}, nil
	}
	return computeJob{}, fmt.Errorf("no in-process workload %q", name)
}

// usableSizes are the block sizes of cfg that divide its matrix.
func usableSizes(cfg robust.Config) []int {
	var sizes []int
	for _, b := range cfg.Sizes {
		if cfg.N%b == 0 {
			sizes = append(sizes, b)
		}
	}
	return sizes
}

// blockConfig is cfg narrowed to the one block size b.
func blockConfig(cfg robust.Config, b int) robust.Config {
	cfg.Sizes = []int{b}
	return cfg
}

func checkFigures45(o *outcome) {
	params := loggp.MeikoCS2(10)
	_, f4, err := experiments.Figure4(params, 60)
	o.check(err == nil && math.Abs(f4-figure4Golden) <= 1e-9, "Figure 4 completion %v (err %v), golden %v", f4, err, figure4Golden)
	_, f5, err := experiments.Figure5(params, 60)
	o.check(err == nil && math.Abs(f5-figure5Golden) <= 1e-9, "Figure 5 completion %v (err %v), golden %v", f5, err, figure5Golden)
}

// paperSweepCounts counts the message deliveries one paper-sweep pass
// replays: per sweep cell the standard and worst-case predictions plus
// the emulator's two executions (with and without cache charges), and
// per scaling point the two predictions. The count is fixed by the
// input.
func paperSweepCounts(cfg experiments.Config) (float64, map[string]int64, error) {
	var msgs, cells int64
	for _, b := range cfg.Sizes {
		if cfg.N%b != 0 {
			continue
		}
		g, err := ge.NewGrid(cfg.N, b)
		if err != nil {
			return 0, nil, err
		}
		for _, lay := range cfg.Layouts(g.NB) {
			pr, err := ge.BuildProgram(g, lay)
			if err != nil {
				return 0, nil, err
			}
			msgs += 4 * int64(pr.Summarize().NetworkMessages)
			cells++
		}
	}
	for _, p := range scalingProcs {
		pr, err := scalingProgram(p)
		if err != nil {
			return 0, nil, err
		}
		msgs += 2 * int64(pr.Summarize().NetworkMessages)
		cells++
	}
	return float64(msgs), map[string]int64{"sim_msgs_per_cycle": msgs, "cells_per_cycle": cells}, nil
}

// envelopeCounts counts one mc-envelope cycle's message deliveries: per
// block size the nominal prediction (standard and worst case) and two
// replays per sample lane. Lanes that lose a message stop early; the
// count is still the input's, so it is fixed per input.
func envelopeCounts(cfg robust.Config) (float64, map[string]int64, error) {
	var msgs int64
	for _, b := range cfg.Sizes {
		if cfg.N%b != 0 {
			continue
		}
		g, err := ge.NewGrid(cfg.N, b)
		if err != nil {
			return 0, nil, err
		}
		pr, err := ge.BuildProgram(g, layout.Diagonal(cfg.P, g.NB))
		if err != nil {
			return 0, nil, err
		}
		msgs += int64(pr.Summarize().NetworkMessages) * int64(2*cfg.Samples+2)
	}
	return float64(msgs), map[string]int64{"sim_msgs_per_cycle": msgs}, nil
}

// workerReport is the worker process's final line.
type workerReport struct {
	Digest    string           `json:"digest"`
	Latencies []float64        `json:"latencies_ms"`
	Elapsed   float64          `json:"elapsed_s"`
	Msgs      float64          `json:"msgs_per_op"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Failures  []string         `json:"failures"`
	Counts    map[string]int64 `json:"counts"`
	PeakRSSMB float64          `json:"peak_rss_mb"`
}

// runWorker is the child process of an in-process workload: it runs
// the set-up cycle, says "ready", and unless --setup-only runs whole
// timed cycles for --seconds, checking every operation against the
// first cycle's.
func runWorker(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("worker", flag.ContinueOnError)
	name := fs.String("workload", "", "")
	seed := fs.Int64("seed", DefaultSeed, "")
	seconds := fs.Float64("seconds", 15, "")
	setupOnly := fs.Bool("setup-only", false, "")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	job, err := newComputeJob(*name, *seed, sweepWorkers(*name))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench worker:", err)
		return 2
	}
	out := newOutcome()
	d0 := make([]string, job.ops)
	for i := range d0 {
		if d0[i], err = job.op(i); err != nil {
			break
		}
	}
	if out.check(err == nil, "set-up cycle: %v", err) {
		job.first(out, d0)
	}
	fmt.Fprintln(stdout, `{"ready":true}`)

	sum := sha256.Sum256([]byte(strings.Join(d0, " ")))
	rep := workerReport{Digest: hex.EncodeToString(sum[:8])}
	if !*setupOnly && err == nil {
		var msgs float64
		msgs, rep.Counts, err = job.counts()
		rep.Msgs = msgs / float64(job.ops)
		out.check(err == nil, "counting messages: %v", err)
		deadline := time.Duration(*seconds * float64(time.Second))
		start := time.Now()
		for cycle := 1; time.Since(start) < deadline; cycle++ {
			for i := 0; i < job.ops; i++ {
				t := time.Now()
				d, err := job.op(i)
				rep.Latencies = append(rep.Latencies, float64(time.Since(t))/float64(time.Millisecond))
				out.check(err == nil && d == d0[i], "cycle %d operation %d: digest %s, first cycle %s (err %v)", cycle, i, d, d0[i], err)
			}
		}
		rep.Elapsed = time.Since(start).Seconds()
	}
	rep.Attempted, rep.Failed, rep.Failures = out.Attempted, out.Failed, out.Failures
	if rep.PeakRSSMB, err = peakRSSMB("self"); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench worker:", err)
		return 1
	}
	b, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench worker:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

// runInProcess runs an in-process workload in fresh worker processes:
// setupReps-1 set-up-only children, then one that also runs the timed
// phase. Set-up time is process start to the child's "ready" (boot
// plus the first, cold cycle); peak RSS is the measuring child's.
func runInProcess(o options) (*outcome, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	nproc := runtime.NumCPU()
	out.Procs["worker"] = nproc
	out.Procs["sweep_workers"] = sweepWorkers(o.Workload)
	var first string
	for i := 0; i < setupReps; i++ {
		args := []string{"worker", "--workload", o.Workload, "--seed", strconv.FormatInt(o.Seed, 10),
			"--seconds", strconv.FormatFloat(o.Seconds, 'g', -1, 64)}
		timed := i == setupReps-1
		if !timed {
			args = append(args, "--setup-only")
		}
		cmd := exec.Command(self, args...)
		cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(nproc))
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		cmd.Stderr = os.Stderr
		pipe, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("starting worker: %w", err)
		}
		rd := bufio.NewReader(pipe)
		line, err := rd.ReadString('\n')
		ready := time.Since(t0)
		if err != nil || !strings.Contains(line, `"ready"`) {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
			return nil, fmt.Errorf("worker never became ready (%q, %v)", line, err)
		}
		out.Setup = append(out.Setup, ready.Seconds())
		rest, err := io.ReadAll(rd)
		werr := cmd.Wait()
		if err != nil || werr != nil {
			return nil, fmt.Errorf("worker failed: read %v, exit %v", err, werr)
		}
		var rep workerReport
		if err := json.Unmarshal(lastLine(rest), &rep); err != nil {
			return nil, fmt.Errorf("worker report: %w", err)
		}
		out.Attempted += rep.Attempted
		out.Failed += rep.Failed
		out.Failures = append(out.Failures, rep.Failures...)
		if i == 0 {
			first = rep.Digest
		}
		out.check(rep.Digest == first, "set-up %d digest %s differs from set-up 0's %s", i, rep.Digest, first)
		if timed {
			out.Latencies = rep.Latencies
			out.Elapsed = rep.Elapsed
			out.MsgsPerOp = rep.Msgs
			for k, v := range rep.Counts {
				out.Counts[k] = v
			}
			out.Volume["operations"] = int64(len(rep.Latencies))
			out.PeakRSSMB = rep.PeakRSSMB
		}
	}
	out.Notes["digest"] = first
	return out, nil
}

// peakRSSMB reads a live process's peak resident set (VmHWM, in KiB)
// from /proc/<pid>/status; pid may be "self". The exit rusage would not
// do: a child started by fork and exec inherits its parent's high-water
// mark in ru_maxrss, so the benchmark's own memory would count.
func peakRSSMB(pid string) (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kib, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM of %s: %w", pid, err)
			}
			return kib / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

func lastLine(b []byte) []byte {
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	return []byte(lines[len(lines)-1])
}
