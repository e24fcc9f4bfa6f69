package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names one metric with its unit and direction. The lists
// below are the benchmark's metric contract; BENCHMARK.json repeats
// them with the regression bounds.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are the user-visible metrics every untraced run prints.
// A workload's "operation" is one request for the serve workloads, one
// full pass (what a CLI user runs and waits for) for paper-sweep, and
// one block size's envelope for mc-envelope.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"req_per_s", "1/s", "higher"},
	{"p50_ms", "ms", "lower"},
	{"p99_ms", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// extraEndToEnd are end-to-end metrics that are recorded and printed
// but cannot sit in the JSON line: error_rate is 0 on a correct run
// (the JSON line carries it as failed/attempted), and sim_msgs_per_s
// exists only where the workload replays messages in the timed phase.
var extraEndToEnd = []metricDef{
	{"error_rate", "ratio", "lower"},
	{"sim_msgs_per_s", "1/s", "higher"},
}

// perLayer are the traced run's metrics, named by module.
var perLayer = []metricDef{
	{"sim.ns_per_msg.p8", "ns", "lower"},
	{"sim.ns_per_msg.p256", "ns", "lower"},
	{"worstcase.ns_per_msg.p8", "ns", "lower"},
	{"worstcase.ns_per_msg.p256", "ns", "lower"},
	{"predictor.allocs_per_pass", "count", "lower"},
	{"ge.build_ms", "ms", "lower"},
	{"machine.ms", "ms", "lower"},
	{"sweep.busy_ratio", "ratio", "higher"},
	{"lanes.ns_per_lane_msg", "ns", "lower"},
	{"lanes.lost", "count", "lower"},
	{"robust.self_ms", "ms", "lower"},
	{"analyze.shape_ms", "ms", "lower"},
	{"analyze.bound_us", "us", "lower"},
	{"analyze.check_ms", "ms", "lower"},
	{"resultcache.get_ns", "ns", "lower"},
	{"resultcache.put_ns", "ns", "lower"},
	{"serve.key_us", "us", "lower"},
	{"resultcache.hit_rate", "ratio", "higher"},
	{"resultcache.evictions", "count", "lower"},
	{"serve.hit_us", "us", "lower"},
	{"serve.hit_allocs", "count", "lower"},
	{"serve.decode_us", "us", "lower"},
	{"serve.encode_us", "us", "lower"},
	{"serve.miss_ms.simulate", "ms", "lower"},
	{"serve.miss_ms.worstcase", "ms", "lower"},
	{"serve.miss_ms.analyze", "ms", "lower"},
	{"serve.miss_ms.envelope", "ms", "lower"},
	{"serve.queued_mean", "count", "lower"},
	{"serve.shed", "count", "lower"},
	{"serve.degraded", "count", "lower"},
	{"cluster.route_us", "us", "lower"},
	{"cluster.upstream_us", "us", "lower"},
	{"ring.owners_ns", "ns", "lower"},
	{"cluster.owner_hit_ratio", "ratio", "higher"},
	{"cluster.failovers", "count", "lower"},
	{"cluster.hedges", "count", "lower"},
	{"cluster.load_reroutes", "count", "lower"},
	{"client.outside_share", "ratio", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},
}

func unitOf(name string) string {
	for _, list := range [][]metricDef{endToEnd, extraEndToEnd, perLayer} {
		for _, d := range list {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	return ""
}

// outcome is what a workload run hands back: the raw measurements the
// metrics are derived from, the checks' tally, and the exact counters.
type outcome struct {
	// Setup holds one duration (seconds) per set-up repetition.
	Setup []float64
	// Latencies holds one client-observed duration (ms) per timed
	// operation and Done its completion time (s since the timed phase
	// began); Elapsed is the timed phase in seconds.
	Latencies []float64
	Done      []float64
	Elapsed   float64
	// Window is the length (s) of the windows the timed phase's
	// throughput is taken over (see windowed); zero means the whole
	// phase.
	Window float64
	// MsgsPerOp is the message deliveries one operation replays (0
	// where operations replay none).
	MsgsPerOp float64
	// PeakRSSMB is the peak resident set of the processes doing the
	// work (summed over server processes).
	PeakRSSMB float64

	Attempted int
	Failed    int
	Failures  []string

	// Counts are exact counters taken at deterministic points of the
	// run: two runs at one seed must agree on every one of them.
	// Volume are counters that scale with how much the timed phase
	// got through.
	Counts map[string]int64
	Volume map[string]int64
	// Procs records GOMAXPROCS per process role.
	Procs map[string]int
	// Layer holds the traced run's per-layer metrics, plus the traced
	// replay's own end-to-end numbers.
	Layer map[string]float64
	// Notes are free-form facts worth keeping in the record.
	Notes map[string]string
}

func newOutcome() *outcome {
	return &outcome{
		Counts: map[string]int64{},
		Volume: map[string]int64{},
		Procs:  map[string]int{},
		Layer:  map[string]float64{},
		Notes:  map[string]string{},
	}
}

// check counts one checked operation and records a failure message
// when ok is false.
func (o *outcome) check(ok bool, format string, args ...any) bool {
	o.Attempted++
	if !ok {
		o.Failed++
		if len(o.Failures) < 32 {
			o.Failures = append(o.Failures, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// record is one run's line in the records file.
type record struct {
	Time      string            `json:"time"`
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     int               `json:"trace"`
	Seconds   float64           `json:"seconds"`
	Meta      meta              `json:"meta"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Samples   int               `json:"latency_samples"`
	Metrics   map[string]metric `json:"metrics"`
	Counts    map[string]int64  `json:"counts"`
	Volume    map[string]int64  `json:"volume"`
	Notes     map[string]string `json:"notes,omitempty"`
}

// meta is the machine metadata every record carries.
type meta struct {
	CPU        string         `json:"cpu"`
	NProc      int            `json:"nproc"`
	Go         string         `json:"go"`
	Commit     string         `json:"commit"`
	Source     string         `json:"source_sha256"`
	GOMAXPROCS map[string]int `json:"gomaxprocs"`
}

func newRecord(w workload, o options, out *outcome) *record {
	rec := &record{
		Time:      time.Now().UTC().Format(time.RFC3339),
		Workload:  w.name,
		Seed:      o.Seed,
		Seconds:   o.Seconds,
		Meta:      machineMeta(out.Procs),
		Correct:   out.Failed == 0,
		Attempted: out.Attempted,
		Failed:    out.Failed,
		Failures:  out.Failures,
		Samples:   len(out.Latencies),
		Metrics:   map[string]metric{},
		Counts:    out.Counts,
		Volume:    out.Volume,
		Notes:     out.Notes,
	}
	if o.Trace {
		rec.Trace = 1
	}
	put := func(name string, v float64) {
		rec.Metrics[name] = metric{Value: v, Unit: unitOf(name)}
	}
	if !o.Trace {
		rate, p50, p99, rates := windowed(out)
		put("setup_s", median(out.Setup))
		put("req_per_s", rate)
		put("p50_ms", p50)
		put("p99_ms", p99)
		put("peak_rss_mb", out.PeakRSSMB)
		if out.MsgsPerOp > 0 {
			put("sim_msgs_per_s", out.MsgsPerOp*rate)
		}
		rec.Notes["window_req_per_s"] = strings.Trim(fmt.Sprintf("%.4g", rates), "[]")
	}
	if out.Attempted > 0 {
		put("error_rate", float64(out.Failed)/float64(out.Attempted))
	}
	for name, v := range out.Layer {
		u := unitOf(name)
		if u == "" {
			u = layerExtraUnit(name)
		}
		rec.Metrics[name] = metric{Value: v, Unit: u}
	}
	return rec
}

// windowed returns the timed phase's throughput and latency median
// and p99, and the throughput of each window. With a window length the
// phase is cut into windows (the trailing partial one dropped) and each
// figure is the median window's, so a slow spell of a shared machine
// moves a few windows, not the result; windows are sized to hold a
// thousand requests, ten beyond their p99. With none (the in-process
// workloads' few dozen operations at most) throughput is operations
// over the phase and the percentiles are over the operations.
func windowed(out *outcome) (rate, p50, p99 float64, rates []float64) {
	if out.Window <= 0 {
		for _, l := range out.Latencies {
			rates = append(rates, 1000/l)
		}
		return float64(len(out.Latencies)) / out.Elapsed, median(out.Latencies), percentile(out.Latencies, 0.99), rates
	}
	// A phase shorter than one window is one window.
	width := out.Window
	n := int(out.Elapsed / width)
	if n < 1 {
		n, width = 1, out.Elapsed
	}
	wins := make([][]float64, n)
	for i, d := range out.Done {
		if w := int(d / width); w < n {
			wins[w] = append(wins[w], out.Latencies[i])
		}
	}
	var p50s, p99s []float64
	for _, w := range wins {
		rates = append(rates, float64(len(w))/width)
		p50s = append(p50s, median(w))
		p99s = append(p99s, percentile(w, 0.99))
	}
	return median(rates), median(p50s), median(p99s), rates
}

// layerExtraUnit gives units to the traced run's own end-to-end
// numbers ("traced.*"), which are recorded beside the per-layer ones.
func layerExtraUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_per_s"):
		return "1/s"
	case strings.HasSuffix(name, "_s"):
		return "s"
	}
	return "ratio"
}

func appendRecord(dir string, rec *record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(dir, "records.jsonl"), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("opening records: %w", err)
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("writing record: %w", err)
	}
	return f.Close()
}

func machineMeta(procs map[string]int) meta {
	m := meta{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		Go:         runtime.Version(),
		Commit:     commit(),
		Source:     sourceDigest("."),
		GOMAXPROCS: procs,
	}
	return m
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit names the checked-out commit when the tree is a git work
// tree; benchmark checkouts often are not, and the source digest is
// the identity that always exists.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every Go source and module file of the tree
// (build outputs excluded), so a record names exactly the code it
// measured.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(p), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
