package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// boundDef is one end-to-end metric of BENCHMARK.json: the share of the
// base median by which the head may get worse before it counts as a
// regression.
type boundDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBounds(path string) ([]boundDef, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []boundDef `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for _, d := range spec.EndToEnd {
		if d.Better != "lower" && d.Better != "higher" {
			return nil, fmt.Errorf("%s: metric %s: better must be lower or higher", path, d.Name)
		}
	}
	return spec.EndToEnd, nil
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for line := 1; sc.Scan(); line++ {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// side summarizes one metric's values on one side of a comparison.
type side struct {
	vals       []float64
	q1, q2, q3 float64
}

func newSide(vals []float64) side {
	s := side{vals: vals}
	s.q1, s.q2, s.q3 = quartiles(vals)
	return s
}

// spread is the interquartile distance as a share of the median.
func (s side) spread() float64 { return (s.q3 - s.q1) / math.Abs(s.q2) }

// verdict judges head against base for one metric: a regression when
// head's median is worse by more than the bound; an improvement only
// when head wins at least nine tenths of the pairs and the medians
// differ by more than base's own interquartile spread; unresolved when
// base spreads wider than the bound and head does not beat every base
// run; otherwise ok.
func verdict(base, head side, better string, bound float64, wins, pairs int) string {
	sign := 1.0 // positive = head worse
	if better == "higher" {
		sign = -1
	}
	worse := sign * (head.q2 - base.q2) / math.Abs(base.q2)
	switch {
	case worse > bound:
		return "REGRESSION"
	case pairs > 0 && wins*10 >= pairs*9 && math.Abs(head.q2-base.q2) > base.q3-base.q1:
		return "improved"
	case base.spread() > bound && !dominates(head, base, better):
		return "unresolved"
	}
	return "ok"
}

// dominates reports whether every head value beats every base value.
func dominates(head, base side, better string) bool {
	for _, h := range head.vals {
		for _, b := range base.vals {
			if (better == "lower" && h >= b) || (better == "higher" && h <= b) {
				return false
			}
		}
	}
	return true
}

// pairWins pairs the i-th base run with the i-th head run and counts
// the pairs head wins; ties count for neither.
func pairWins(base, head []float64, better string) (wins, pairs int) {
	pairs = min(len(base), len(head))
	for i := 0; i < pairs; i++ {
		if (better == "lower" && head[i] < base[i]) || (better == "higher" && head[i] > base[i]) {
			wins++
		}
	}
	return wins, pairs
}

// countDiffs lists every exact counter that differs between two
// records of the same workload, seed and mode.
func countDiffs(recs []record) []string {
	type key struct {
		workload string
		seed     int64
		trace    int
	}
	groups := map[key][]record{}
	var keys []key
	for _, r := range recs {
		k := key{r.Workload, r.Seed, r.Trace}
		if _, ok := groups[k]; !ok {
			keys = append(keys, k)
		}
		groups[k] = append(groups[k], r)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		if keys[i].seed != keys[j].seed {
			return keys[i].seed < keys[j].seed
		}
		return keys[i].trace < keys[j].trace
	})
	var out []string
	for _, k := range keys {
		g := groups[k]
		names := map[string]bool{}
		for _, r := range g {
			for n := range r.Counts {
				names[n] = true
			}
		}
		sorted := make([]string, 0, len(names))
		for n := range names {
			sorted = append(sorted, n)
		}
		sort.Strings(sorted)
		for _, n := range sorted {
			vals := make([]string, len(g))
			differ := false
			for i, r := range g {
				v, ok := r.Counts[n]
				vals[i] = "-"
				if ok {
					vals[i] = fmt.Sprint(v)
				}
				differ = differ || vals[i] != vals[0]
			}
			if differ {
				out = append(out, fmt.Sprintf("%s seed=%d trace=%d %s: %s", k.workload, k.seed, k.trace, n, strings.Join(vals, " ")))
			}
		}
	}
	return out
}

// runCompare is the benchstat-style comparer: for each workload and
// end-to-end metric it prints both sides' median and quartiles, the
// pair win count and the verdict against BENCHMARK.json's bound, then
// flags incorrect runs and exact counters that differ at one seed. It
// exits 1 when anything regressed, failed or differed.
func runCompare(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	spec := fs.String("benchmark", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare [-benchmark BENCHMARK.json] base.jsonl head.jsonl")
		return 2
	}
	bounds, err := readBounds(*spec)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench compare:", err)
		return 2
	}
	base, err := readRecords(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "perfbench compare:", err)
		return 2
	}
	head, err := readRecords(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "perfbench compare:", err)
		return 2
	}
	bad := compare(stdout, bounds, base, head)
	if bad {
		return 1
	}
	return 0
}

func compare(w io.Writer, bounds []boundDef, base, head []record) (bad bool) {
	values := func(recs []record, workload, name string) []float64 {
		var v []float64
		for _, r := range recs {
			if r.Trace != 0 || r.Workload != workload {
				continue
			}
			if m, ok := r.Metrics[name]; ok {
				v = append(v, m.Value)
			}
		}
		return v
	}
	seen := map[string]bool{}
	var workloads []string
	for _, r := range append(append([]record(nil), base...), head...) {
		if r.Trace == 0 && !seen[r.Workload] {
			seen[r.Workload] = true
			workloads = append(workloads, r.Workload)
		}
	}
	sort.Strings(workloads)
	fmt.Fprintf(w, "%-12s %-14s %-5s %34s %34s %8s %6s  %s\n", "workload", "metric", "unit",
		"base median [q1 q3] n", "head median [q1 q3] n", "delta", "wins", "verdict")
	for _, wl := range workloads {
		for _, d := range bounds {
			bv, hv := values(base, wl, d.Name), values(head, wl, d.Name)
			if len(bv) == 0 || len(hv) == 0 {
				continue
			}
			b, h := newSide(bv), newSide(hv)
			wins, pairs := pairWins(bv, hv, d.Better)
			v := verdict(b, h, d.Better, d.Bound, wins, pairs)
			bad = bad || v == "REGRESSION"
			fmt.Fprintf(w, "%-12s %-14s %-5s %34s %34s %+7.2f%% %3d/%-2d  %s (bound %.0f%%)\n", wl, d.Name, d.Unit,
				fmtSide(b), fmtSide(h), 100*(h.q2-b.q2)/math.Abs(b.q2), wins, pairs, v, 100*d.Bound)
		}
	}
	for _, set := range []struct {
		label string
		recs  []record
	}{{"base", base}, {"head", head}} {
		label := set.label
		for _, r := range set.recs {
			if !r.Correct || r.Failed > 0 {
				bad = true
				fmt.Fprintf(w, "INCORRECT %s %s seed=%d: %d of %d operations failed\n", label, r.Workload, r.Seed, r.Failed, r.Attempted)
			}
		}
	}
	for _, d := range countDiffs(append(append([]record(nil), base...), head...)) {
		bad = true
		fmt.Fprintln(w, "COUNT DIFFERS", d)
	}
	return bad
}

func fmtSide(s side) string {
	return fmt.Sprintf("%.4g [%.4g %.4g] %d", s.q2, s.q1, s.q3, len(s.vals))
}
