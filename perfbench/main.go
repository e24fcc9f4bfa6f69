// Command perfbench is the loggpsim repository benchmark: one command that
// runs a named workload for a fixed time, checks every output it
// produces, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer metrics) as the last line of standard output.
//
//	perfbench --workload paper-sweep --seed 1 --seconds 15 --trace 0
//	perfbench compare base.jsonl head.jsonl
//
// The workloads, the metrics and the layers each one exercises are
// described in README.md next to this file. perfbench measures the
// program from outside: it times calls into the packages' public
// functions, reads their public Stats()//statsz counters, and runs the
// predictd and predictrouter binaries as separate processes. It changes
// no program code.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// DefaultSeed is the seed the golden digests are pinned at;
// HeldOutSeed is a second seed, never used while the benchmark was
// tuned, run once to show every check also passes away from the
// default.
const (
	DefaultSeed = 1
	HeldOutSeed = 7331
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(runCompare(os.Args[2:], os.Stdout, os.Stderr))
		case "worker":
			os.Exit(runWorker(os.Args[2:], os.Stdout))
		}
	}
	os.Exit(runBench(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the benchmark's command-line settings.
type options struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	// Out is the directory run artifacts (records, spans) go to; Bin
	// holds the predictd and predictrouter binaries.
	Out string
	Bin string
}

// result is what one run reports: the outcome of its checks and the
// metrics by name.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workload is one named input set; README.md says why each exists.
// family names the traced run that measures its layers at full scale.
type workload struct {
	name   string
	family string
	run    func(o options) (*outcome, error)
}

var workloads = []workload{
	{"paper-sweep", familySweep, runInProcess},
	{"mc-envelope", familyEnvelope, runInProcess},
	{"serve-hot", familyServe, runServeHot},
	{"serve-cold", familyServe, runServeCold},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// exitIncorrect is the exit code of a run whose checks failed; the
// result line is still printed.
const exitIncorrect = 3

func runBench(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.Workload, "workload", "", "workload name ("+workloadNames()+"), or all")
	fs.Int64Var(&o.Seed, "seed", DefaultSeed, fmt.Sprintf("workload seed; inputs are generated from it (goldens are pinned at %d; %d is the held-out seed)", DefaultSeed, HeldOutSeed))
	fs.Float64Var(&o.Seconds, "seconds", 40, "how long the timed phase measures")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&o.Out, "out", ".bench_build", "directory for records and span files")
	fs.StringVar(&o.Bin, "bin", ".bench_build/bin", "directory holding the predictd and predictrouter binaries")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	run := workloads
	if o.Workload != "all" {
		run = nil
		if w, ok := findWorkload(o.Workload); ok {
			run = []workload{w}
		}
	}
	if len(run) == 0 || o.Seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s, or all), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	o.Trace = trace == 1
	if err := os.MkdirAll(o.Out, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}

	// One workload's line carries its metrics by name; with all of them
	// the names are prefixed by the workload.
	total := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range run {
		o.Workload = w.name
		res, err := runOne(w, o, stdout, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for n, m := range res.Metrics {
			if len(run) > 1 {
				n = w.name + "." + n
			}
			total.Metrics[n] = m
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !total.Correct {
		return exitIncorrect
	}
	return 0
}

// runOne runs one workload, records it, prints every metric it
// measured, and returns its result line.
func runOne(w workload, o options, stdout, stderr io.Writer) (result, error) {
	var (
		out *outcome
		err error
	)
	if o.Trace {
		out, err = runTraced(w, o)
	} else {
		out, err = w.run(o)
	}
	if err != nil {
		return result{}, err
	}
	rec := newRecord(w, o, out)
	if err := appendRecord(o.Out, rec); err != nil {
		return result{}, err
	}
	for _, f := range out.Failures {
		fmt.Fprintln(stderr, "perfbench: check failed:", f)
	}
	printHuman(stdout, rec)

	res := result{
		Correct:   out.Failed == 0,
		Attempted: out.Attempted,
		Failed:    out.Failed,
		Metrics:   map[string]metric{},
	}
	names := endToEnd
	if o.Trace {
		names = perLayer
	}
	for _, d := range names {
		v, ok := rec.Metrics[d.Name]
		if !ok {
			return result{}, fmt.Errorf("metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = v
	}
	return res, nil
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// printHuman prints every metric of the record by name with its unit,
// those the JSON line leaves out included (error_rate,
// sim_msgs_per_s), ahead of the machine-readable line.
func printHuman(w io.Writer, rec *record) {
	fmt.Fprintf(w, "# %s seed=%d trace=%d attempted=%d failed=%d latency_samples=%d\n",
		rec.Workload, rec.Seed, rec.Trace, rec.Attempted, rec.Failed, rec.Samples)
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rec.Metrics[n]
		fmt.Fprintf(w, "%-28s %16.6g %s\n", n, m.Value, m.Unit)
	}
}
