// Package lanes advances many Monte-Carlo samples of one program —
// "lanes" — through the quiet-mode schedulers in lockstep: one pass
// over the decoded program structure drives every lane's standard
// (Figure 2) and worst-case (Section 4.2) replay, with the per-lane
// state laid out structure-of-arrays (clocks and gap floors lane-major,
// per-lane hash-derived RNG streams and fault injectors).
//
// A scalar Monte-Carlo envelope replays the program once per sample,
// re-paying per sample everything that does not depend on the sample:
// program and pattern validation, the arena decode of every
// communication step, the per-step computation-cost sums, session
// reconfiguration, and the indexed scheduler structures. The lane
// engine hoists all of it: the program is validated once and each step
// decoded once, just before every lane replays it (flat per-processor
// send windows, in-degrees, sender masks, receive runs, byte classes),
// the unperturbed computation charges are summed once per step and
// shared, and each lane's LogGP derivatives (arrival delay, like/unlike
// operation intervals) are tabulated once per lane and byte class.
// The scheduler cores themselves are leaner than the sessions': because
// every communication phase starts and ends with empty receive queues,
// only clocks and gap floors persist per lane; receive buffers, send
// heads and candidate caches are step-transient scratch shared by all
// lanes. Receive queues are not heaps: a step's messages are grouped
// into runs, one per (sender, receiver) pair, and a sender's arrivals
// at a fixed receiver are almost always nondecreasing (its start times
// only grow), so a push is an append (with a rare ordered insert) and
// a pop scans the heads of the receiver's few runs — a two-or-three-way
// merge instead of a heap sift. Scans run over bitmasks of live
// processors, and a processor that remains the strict minimum after a
// commit keeps committing without a rescan (the common case in
// broadcast-shaped steps), so the per-lane cost approaches the bare
// per-message float arithmetic. The cores replicate the schedulers'
// reference loops (sim.runPaperReference, worstcase.runReference — the
// oracles the session cores are differentially tested against) decision
// for decision, including when tie-break randomness is consumed, so a
// lane's results are bit-identical to a replay of the same
// configuration on the sim/worstcase sessions. That replay is the
// oracle: predictor keeps it for its timeline and ablation modes and
// holds its quiet-mode lane path (this engine at width 1) equal to it
// in a differential suite.
//
// Besides the two totals, every lane accumulates the decomposition
// predictor.Prediction reports: per processor, the computation time and
// the clock advance across each communication phase (waiting included)
// under both algorithms, summed in the same order as the session path's
// clock reads, so the sums are bit-identical too.
//
// Divergence between lanes is handled two ways:
//
//   - Value divergence — perturbed LogGP charges, fault retransmit
//     busy/delay charges, deadlock-break choices — stays inside the
//     lane's own state: every lane owns its clocks, gap floors, two
//     tie-break RNG streams (standard and worst-case, seeded like the
//     scalar sessions) and its compiled fault injector.
//
//   - Branch divergence — a message exhausting its retries aborts the
//     sample — masks the lane out: the lane records a *MessageError
//     (the *faults.LossError is preserved in the chain) and is skipped
//     for the rest of the run, exactly as the scalar path abandons the
//     sample. No scalar replay is needed for masked lanes: the abort
//     point is mid-step and the lane's remaining schedule is never
//     observed by anyone. Once every lane is masked the run stops.
//
// Fault decisions are pure functions of (plan seed, identities), never
// of evaluation order (see internal/faults), so interleaving lanes
// cannot leak state between them.
package lanes

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"loggpsim/internal/cost"
	"loggpsim/internal/faults"
	"loggpsim/internal/loggp"
	"loggpsim/internal/program"
)

// Lane configures one Monte-Carlo sample: its (possibly perturbed)
// machine, its scheduler tie-break seed, and its fault plan.
type Lane struct {
	// Params is the lane's LogGP machine description.
	Params loggp.Params
	// Seed seeds the lane's two tie-break RNG streams exactly as
	// predictor.Config.Seed seeds the scalar sessions.
	Seed int64
	// Faults is the lane's fault plan (seed included); the zero plan
	// injects nothing.
	Faults faults.Plan
}

// Config carries the lane-shared configuration.
type Config struct {
	// Cost prices the basic operations; it is shared by all lanes (the
	// robust sweep perturbs the machine, not the measured operation
	// costs), and per-lane computation perturbations are applied on top.
	Cost cost.Model
	// Ctx, when non-nil, deadline-bounds the run at lane-step
	// granularity: it is polled once per program step (each step
	// advancing every live lane), and a cancelled or expired context
	// aborts the whole run with an error wrapping ctx.Err().
	Ctx context.Context
}

// Result is one lane's outcome. Every time is bit-identical to the
// same field of predictor.Prediction for the equivalent configuration
// replayed on the sim/worstcase sessions.
type Result struct {
	// Total and TotalWorst are the standard and worst-case predicted
	// running times.
	Total      float64
	TotalWorst float64
	// Comm and CommWorst are the maximum over processors of the clock
	// advance accumulated across communication phases, under the
	// standard and worst-case algorithms.
	Comm      float64
	CommWorst float64
	// Comp is the maximum over processors of the summed (perturbed)
	// computation charges; Engine.CompPerProc has the per-processor sums.
	Comp float64
	// Err, when non-nil, marks a masked lane: the replay aborted (a
	// *MessageError wrapping a *faults.LossError means the sample lost a
	// message) and the times are meaningless.
	Err error
}

// A MessageError masks a lane whose fault hook failed on one message:
// the message exhausted its retries (Err wraps the *faults.LossError)
// or the hook returned an unusable charge.
type MessageError struct {
	// Step is the program step and Msg the message's index in that
	// step's pattern; Src and Dst are its endpoints.
	Step, Msg, Src, Dst int
	// Worst reports that the worst-case replay failed; otherwise the
	// standard one did.
	Worst bool
	Err   error
}

func (e *MessageError) Error() string {
	return fmt.Sprintf("lanes: message %d (%d->%d): %v", e.Msg, e.Src, e.Dst, e.Err)
}

func (e *MessageError) Unwrap() error { return e.Err }

// A StepError is the error Run returns when Config.Ctx ends the run
// before program step Step of Steps; it wraps the context's error.
type StepError struct {
	Step, Steps int
	Err         error
}

func (e *StepError) Error() string {
	return fmt.Sprintf("lanes: step %d of %d: %v", e.Step, e.Steps, e.Err)
}

func (e *StepError) Unwrap() error { return e.Err }

// stepPlan is the decoded structure of one communication step. The
// messages are laid out in send slots grouped by sender (pattern order
// within each group): processor q sends slots off[q]..off[q+1], and the
// parallel sDst/sCls/sRun/sOrig arrays give each slot's destination,
// byte class, receive run and pattern index, so a sender's commits read
// four sequential streams instead of chasing a message table. A run is
// the slice of arrivals one sender delivers to one receiver; runs are
// grouped per receiver (runIdx[q]..runIdx[q+1]) and each owns a
// fixed-capacity region of the step's arrival buffer at runBase[r].
type stepPlan struct {
	off      []int32 // len p+1: send-slot range per sender
	sDst     []int32 // per slot: destination processor
	sCls     []int32 // per slot: byte class (engine classBytes index)
	sRun     []int32 // per slot: receive run (step-local)
	sOrig    []int32 // per slot: index within the pattern (fault identity)
	inCnt    []int32
	sendMask []uint64
	runIdx   []int32 // len p+1: run-table range per receiver
	runBase  []int32 // per run: base offset into the arrival buffer
	nRuns    int
	nmsgs    int
}

// classTab is one lane's LogGP derivatives for one byte class,
// evaluated with the exact expressions of loggp.Params.ArrivalDelay and
// Interval.
type classTab struct {
	ad     float64 // ArrivalDelay(bytes)
	like   float64 // Interval(k, k, bytes): like consecutive ops
	unlike float64 // Interval(k, k', bytes), k != k'
}

const (
	candRecv = uint8(0)
	candSend = uint8(1)
)

// Engine holds the lockstep state. The zero value is ready; Run may be
// called repeatedly. The program is decoded one step at a time, just
// before the lanes replay that step, into storage reused across steps
// and runs: the plan never holds more than the largest step, and a
// steady-state RunInto on a reused engine allocates nothing for a
// zero-fault lane set. An Engine must not be used concurrently.
type Engine struct {
	p, lanes, words int

	// The current step's plan and unperturbed computation charges,
	// shared across lanes.
	sp   stepPlan
	base []float64

	// Byte classes met so far in this run, and the decode scratch:
	// per-processor counters and the per-(src,dst) message counts and
	// run indices. pairCnt is all zero between steps: decodeStep resets
	// every entry it counts, and its one error return precedes the
	// counting.
	classBytes     []int
	classOf        map[int]int32
	cnt, runCnt    []int32
	pairs          []int32
	pairCnt, runOf []int32

	// Per-lane machine: the parameters, O, and the derivatives of every
	// byte class met so far (tabs[lane][class]).
	params []loggp.Params
	o      []float64
	tabs   [][]classTab

	// Persistent per-lane-processor scheduler state, lane-major
	// [lane*p + proc]: the clocks and gap-floor carries. The floors hold
	// lastStart + Interval(last, kind, lastBytes), or zero before the
	// lane's first operation; clocks are non-negative, so
	// max(clock, floor) reproduces the sessions' earliest() exactly.
	ctStd, fsStd, frStd []float64
	ctWC, fsWC, frWC    []float64

	// Per-lane-processor decomposition accumulators, lane-major: summed
	// computation charges, and summed clock advances across the
	// communication phases of each algorithm. before is the per-step
	// clock snapshot the advances are measured from.
	comp, commStd, commWC []float64
	before                []float64

	// Step-transient scratch, shared by all lanes (every communication
	// phase starts and ends with empty receive buffers, so nothing
	// below outlives one lane-step). qKey/qSeq/qCls form the arrival
	// buffer the step's receive runs live in; rHead/rFill are the
	// per-run consumed and filled counts.
	qKey           []float64
	qSeq, qCls     []int32
	rHead, rFill   []int32
	rKey           []float64 // cached head arrival per run (valid while non-empty)
	rSeq           []int32   // cached head sequence per run
	head           []int32   // next unsent send slot per sender
	toRecv, forced []int32
	candKey        []float64
	candKind       []uint8
	mask, pend     []uint64

	// Standard-algorithm selection tree: a tournament over tw (next
	// power of two >= p) leaves holding each unexhausted sender's clock
	// (+Inf otherwise), with per-node tie counts. Selecting the
	// minimum-clock sender, counting its ties and extracting the k-th
	// tied index — all in leaf (index) order, as the reference's scan
	// produces them — costs log p instead of a full rescan per commit.
	treeVal []float64
	treeCnt []int32
	tw      int

	// Per-receiver head cache: hRun[q] is the run holding q's earliest
	// pending arrival (-1 when none) and hKey[q] that arrival. A push
	// maintains it with one compare (a new entry only matters if it
	// becomes its own run's head and beats the cached key); only a pop
	// pays the scan over q's runs to rebuild it.
	hRun []int32
	hKey []float64

	rngStd, rngWC []*rand.Rand
	inj           []*faults.Injector
	errs          []error
	durs          []float64 // per-lane perturbed computation scratch
}

// Run advances every lane through the whole program and returns one
// Result per lane, in lane order. A non-nil error aborts all lanes
// (invalid shared inputs, or Config.Ctx done); per-lane failures land
// in Result.Err instead.
func Run(pr *program.Program, cfg Config, ls []Lane) ([]Result, error) {
	var e Engine
	return e.Run(pr, cfg, ls)
}

// Run is the method form, reusing the engine's storage across calls; its
// only steady-state allocation is the returned slice (see RunInto).
func (e *Engine) Run(pr *program.Program, cfg Config, ls []Lane) ([]Result, error) {
	return e.RunInto(nil, pr, cfg, ls)
}

// RunInto is Run writing the results over dst, which is grown to
// len(ls) entries only when its capacity is short.
func (e *Engine) RunInto(dst []Result, pr *program.Program, cfg Config, ls []Lane) ([]Result, error) {
	if cfg.Cost == nil {
		return nil, fmt.Errorf("lanes: no cost model")
	}
	if len(ls) == 0 {
		return nil, fmt.Errorf("lanes: no lanes")
	}
	if err := pr.Validate(); err != nil {
		return nil, err
	}
	live := e.prepare(pr.P, ls)

	p := e.p
	for si, s := range pr.Steps {
		if live == 0 {
			break // every lane is masked; nobody observes the rest
		}
		if cfg.Ctx != nil {
			if err := cfg.Ctx.Err(); err != nil {
				return nil, &StepError{Step: si, Steps: len(pr.Steps), Err: err}
			}
		}
		if err := e.decodeStep(si, s, cfg.Cost); err != nil {
			return nil, err
		}
		sp := &e.sp
		for l := range ls {
			if e.errs[l] != nil {
				continue
			}
			// Computation phase: the shared unperturbed charges, inflated
			// by the lane's injector exactly as predictor's session path
			// inflates them (same step and processor identities).
			durs := e.base
			if inj := e.inj[l]; inj != nil {
				for q := range e.durs {
					e.durs[q] = inj.PerturbCompute(si, q, e.base[q])
				}
				durs = e.durs
			}
			lp := l * p
			ctStd, ctWC := e.ctStd[lp:lp+p], e.ctWC[lp:lp+p]
			comp := e.comp[lp : lp+p]
			for q, d := range durs {
				ctStd[q] += d
				ctWC[q] += d
				comp[q] += d
			}
			if sp.nmsgs == 0 {
				continue // nothing to schedule; no clock advances
			}
			// Each scheduler run resets the shared receive buffers on
			// entry, so a lane dying mid-step cannot leak undelivered
			// arrivals into the next lane.
			copy(e.before, ctStd)
			e.runStd(sp, si, l)
			if e.errs[l] == nil {
				accumulate(e.commStd[lp:lp+p], ctStd, e.before)
				copy(e.before, ctWC)
				e.runWC(sp, si, l)
			}
			if e.errs[l] != nil {
				live--
				continue
			}
			accumulate(e.commWC[lp:lp+p], ctWC, e.before)
		}
	}

	if cap(dst) < len(ls) {
		dst = make([]Result, len(ls))
	}
	dst = dst[:len(ls)]
	for l := range ls {
		r := Result{Err: e.errs[l]}
		if r.Err == nil {
			lp := l * p
			for q := 0; q < p; q++ {
				r.Total = max(r.Total, e.ctStd[lp+q])
				r.TotalWorst = max(r.TotalWorst, e.ctWC[lp+q])
				r.Comm = max(r.Comm, e.commStd[lp+q])
				r.CommWorst = max(r.CommWorst, e.commWC[lp+q])
				r.Comp = max(r.Comp, e.comp[lp+q])
			}
		}
		dst[l] = r
	}
	return dst, nil
}

// accumulate adds each processor's clock advance over a communication
// phase, after[q] - before[q], to acc[q].
func accumulate(acc, after, before []float64) {
	for q := range acc {
		acc[q] += after[q] - before[q]
	}
}

// CompPerProc returns lane l's per-processor computation time from the
// last run. The slice aliases engine storage: it is valid until the
// next run and must not be modified.
func (e *Engine) CompPerProc(l int) []float64 {
	return e.comp[l*e.p : (l+1)*e.p : (l+1)*e.p]
}

// decodeStep builds step si's plan into e.sp — flat per-sender send
// windows, in-degrees, the sender mask and the receive-run table,
// registering byte classes as they first appear — sums its unperturbed
// computation charges into e.base, and sizes the arrival buffer. The
// program is already validated. Receive runs are numbered per receiver
// in order of their first message; run order never decides a pop
// (heads compare by (arrival, seq), which is unique), so any order
// replays identically.
func (e *Engine) decodeStep(si int, s *program.Step, model cost.Model) error {
	p := e.p
	for q := range e.base {
		d := 0.0
		for _, call := range s.Comp[q] {
			d += model.Cost(call.Op, call.BlockSize)
		}
		if d < 0 {
			return fmt.Errorf("lanes: step %d: processor %d has negative computation time %g", si, q, d)
		}
		e.base[q] = d
	}
	// First pass: per-sender and per-receiver counts, byte classes, and
	// the distinct (sender, receiver) pairs in first-message order.
	sp := &e.sp
	cnt, runCnt, pairCnt, runOf := e.cnt, e.runCnt, e.pairCnt, e.runOf
	clear(cnt)
	clear(runCnt)
	sp.inCnt = growI32(sp.inCnt, p)
	e.pairs = e.pairs[:0]
	nmsgs := 0
	for _, m := range s.Comm.Msgs {
		if m.Src == m.Dst {
			continue // local transfer: skipped by both schedulers
		}
		if _, ok := e.classOf[m.Bytes]; !ok {
			e.addClass(m.Bytes)
		}
		cnt[m.Src]++
		sp.inCnt[m.Dst]++
		k := m.Src*p + m.Dst
		if pairCnt[k] == 0 {
			e.pairs = append(e.pairs, int32(k))
			runCnt[m.Dst]++
		}
		pairCnt[k]++
		nmsgs++
	}
	sp.nmsgs = nmsgs
	sp.off = growI32(sp.off, p+1)
	if cap(sp.sendMask) < e.words {
		sp.sendMask = make([]uint64, e.words)
	}
	sp.sendMask = sp.sendMask[:e.words]
	clear(sp.sendMask)
	o := int32(0)
	for q := 0; q < p; q++ {
		sp.off[q] = o
		o += cnt[q]
		if cnt[q] > 0 {
			sp.sendMask[q>>6] |= 1 << (q & 63)
		}
	}
	sp.off[p] = o
	// Receive runs: one per (sender, receiver) pair with traffic,
	// grouped per receiver, each owning a region of the step's arrival
	// buffer sized to the pair's message count. runCnt turns into each
	// receiver's next free run number.
	sp.runIdx = growI32(sp.runIdx, p+1)
	nRuns := int32(0)
	for q := 0; q < p; q++ {
		sp.runIdx[q] = nRuns
		nRuns, runCnt[q] = nRuns+runCnt[q], nRuns
	}
	sp.runIdx[p] = nRuns
	sp.nRuns = int(nRuns)
	sp.runBase = growI32(sp.runBase, sp.nRuns)
	for _, k := range e.pairs {
		dst := int(k) % p
		r := runCnt[dst]
		runCnt[dst] = r + 1
		runOf[k] = r
		sp.runBase[r] = pairCnt[k] // the run's length, for now
	}
	b := int32(0)
	for r, n := range sp.runBase {
		sp.runBase[r], b = b, b+n
	}
	// Second pass: fill the send slots, grouped by sender in pattern
	// order.
	sp.sDst, sp.sCls = growI32(sp.sDst, nmsgs), growI32(sp.sCls, nmsgs)
	sp.sRun, sp.sOrig = growI32(sp.sRun, nmsgs), growI32(sp.sOrig, nmsgs)
	copy(cnt, sp.off[:p]) // cnt becomes each sender's next free slot
	for idx, m := range s.Comm.Msgs {
		if m.Src == m.Dst {
			continue
		}
		slot := cnt[m.Src]
		cnt[m.Src]++
		k := m.Src*p + m.Dst
		sp.sDst[slot] = int32(m.Dst)
		sp.sCls[slot] = e.classOf[m.Bytes]
		sp.sRun[slot] = runOf[k]
		sp.sOrig[slot] = int32(idx)
		pairCnt[k] = 0
	}
	// Arrival buffer and per-run state; every scheduler run resets the
	// run counters itself, so nothing here needs clearing.
	if cap(e.qKey) < nmsgs {
		e.qKey = make([]float64, nmsgs)
		e.qSeq, e.qCls = make([]int32, nmsgs), make([]int32, nmsgs)
	}
	if cap(e.rHead) < sp.nRuns {
		e.rHead, e.rFill = make([]int32, sp.nRuns), make([]int32, sp.nRuns)
		e.rKey, e.rSeq = make([]float64, sp.nRuns), make([]int32, sp.nRuns)
	}
	e.qKey, e.qSeq, e.qCls = e.qKey[:nmsgs], e.qSeq[:nmsgs], e.qCls[:nmsgs]
	e.rHead, e.rFill = e.rHead[:sp.nRuns], e.rFill[:sp.nRuns]
	e.rKey, e.rSeq = e.rKey[:sp.nRuns], e.rSeq[:sp.nRuns]
	return nil
}

// addClass registers a new byte class and tabulates its LogGP
// derivatives for every lane (a lane rejected by prepare gets entries it
// never reads, keeping the class indices aligned).
func (e *Engine) addClass(bytes int) {
	e.classOf[bytes] = int32(len(e.classBytes))
	e.classBytes = append(e.classBytes, bytes)
	for l, pm := range e.params {
		floor := max(pm.O, pm.Serialization(bytes))
		t := classTab{ad: pm.ArrivalDelay(bytes), like: max(pm.Gap, floor)}
		t.unlike = t.like
		if pm.NoCrossGap {
			t.unlike = floor
		}
		e.tabs[l] = append(e.tabs[l], t)
	}
}

// growF64 / growI32 resize scratch to n entries, reusing backing.
func growF64(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

func growI32(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// prepare sizes and initializes the engine state for a run over p
// processors: fresh per-lane clocks, gap floors and accumulators,
// per-lane RNG pairs, injectors and machines (with empty class tables),
// an empty byte-class index, and the shared per-processor scratch. It
// returns the number of lanes that passed their configuration checks.
func (e *Engine) prepare(p int, ls []Lane) int {
	e.p = p
	e.words = (p + 63) / 64
	e.lanes = len(ls)
	n := e.lanes * p
	e.ctStd, e.fsStd, e.frStd = growF64(e.ctStd, n), growF64(e.fsStd, n), growF64(e.frStd, n)
	e.ctWC, e.fsWC, e.frWC = growF64(e.ctWC, n), growF64(e.fsWC, n), growF64(e.frWC, n)
	e.comp, e.commStd, e.commWC = growF64(e.comp, n), growF64(e.commStd, n), growF64(e.commWC, n)
	e.before, e.base = growF64(e.before, p), growF64(e.base, p)

	e.classBytes = e.classBytes[:0]
	if e.classOf == nil {
		e.classOf = make(map[int]int32)
	}
	clear(e.classOf)
	e.cnt, e.runCnt = growI32(e.cnt, p), growI32(e.runCnt, p)
	if cap(e.pairCnt) < p*p {
		e.pairCnt, e.runOf = make([]int32, p*p), make([]int32, p*p)
	}
	e.pairCnt, e.runOf = e.pairCnt[:p*p], e.runOf[:p*p]

	e.head = growI32(e.head, p)
	e.toRecv, e.forced = growI32(e.toRecv, p), growI32(e.forced, p)
	e.candKey = growF64(e.candKey, p)
	if cap(e.candKind) < p {
		e.candKind = make([]uint8, p)
	}
	e.candKind = e.candKind[:p]
	e.hRun, e.hKey = growI32(e.hRun, p), growF64(e.hKey, p)
	e.tw = 1
	for e.tw < p {
		e.tw <<= 1
	}
	e.treeVal = growF64(e.treeVal, 2*e.tw)
	e.treeCnt = growI32(e.treeCnt, 2*e.tw)
	if cap(e.mask) < e.words {
		e.mask = make([]uint64, e.words)
		e.pend = make([]uint64, e.words)
	}
	e.mask, e.pend = e.mask[:e.words], e.pend[:e.words]
	e.durs = growF64(e.durs, p)
	e.o = growF64(e.o, e.lanes)

	if cap(e.rngStd) < e.lanes {
		e.rngStd = make([]*rand.Rand, e.lanes)
		e.rngWC = make([]*rand.Rand, e.lanes)
	}
	e.rngStd, e.rngWC = e.rngStd[:e.lanes], e.rngWC[:e.lanes]
	if cap(e.inj) < e.lanes {
		e.inj = make([]*faults.Injector, e.lanes)
	}
	e.inj = e.inj[:e.lanes]
	if cap(e.errs) < e.lanes {
		e.errs = make([]error, e.lanes)
	}
	e.errs = e.errs[:e.lanes]
	if cap(e.params) < e.lanes {
		e.params = make([]loggp.Params, e.lanes)
	}
	e.params = e.params[:e.lanes]
	if cap(e.tabs) < e.lanes {
		e.tabs = append(e.tabs[:cap(e.tabs)], make([][]classTab, e.lanes-cap(e.tabs))...)
	}
	e.tabs = e.tabs[:e.lanes]

	live := 0
	for l, ln := range ls {
		e.errs[l] = nil
		e.inj[l] = nil
		e.params[l] = ln.Params
		e.tabs[l] = e.tabs[l][:0]
		// The same acceptance checks the scalar sessions apply in
		// Reconfigure; a rejected lane fails alone, like its sample would.
		if err := ln.Params.Validate(); err != nil {
			e.errs[l] = err
			continue
		}
		if p > ln.Params.P {
			e.errs[l] = fmt.Errorf("lanes: program uses %d processors but machine has P=%d", p, ln.Params.P)
			continue
		}
		inj, err := ln.Faults.Injector(ln.Params)
		if err != nil {
			e.errs[l] = err
			continue
		}
		e.inj[l] = inj
		// Two owned streams per lane, seeded exactly like the scalar
		// standard and worst-case sessions (both from the same seed, with
		// independent state).
		if e.rngStd[l] == nil {
			e.rngStd[l] = rand.New(rand.NewSource(ln.Seed))
			e.rngWC[l] = rand.New(rand.NewSource(ln.Seed))
		} else {
			e.rngStd[l].Seed(ln.Seed)
			e.rngWC[l].Seed(ln.Seed)
		}
		e.o[l] = ln.Params.O
		live++
	}
	return live
}

// runStd replays one communication step of one lane under the standard
// algorithm, replicating sim.runPaperReference: the minimum-clock
// sender (random tie-break, randomness consumed only on genuine ties)
// chooses between its next send and its earliest pending receive,
// receive winning start-time ties; then every processor drains its
// remaining receives in index order. Selection runs on the tournament
// tree — one leaf update and a root read per commit — whose tie counts
// and leaf order reproduce the reference scan's tie list exactly.
func (e *Engine) runStd(sp *stepPlan, si, l int) {
	p := e.p
	lp := l * p
	ct := e.ctStd[lp : lp+p : lp+p]
	fs := e.fsStd[lp : lp+p : lp+p]
	fr := e.frStd[lp : lp+p : lp+p]
	head := e.head
	copy(head, sp.off[:p])
	clear(e.rHead[:sp.nRuns])
	clear(e.rFill[:sp.nRuns])
	hRun, hKey := e.hRun, e.hKey
	for q := 0; q < p; q++ {
		hRun[q] = -1
	}
	seq := int32(0)
	rng := e.rngStd[l]
	o := e.o[l]
	inj := e.inj[l]
	tab := e.tabs[l]

	// Build the selection tree: leaves hold the clocks of processors
	// with unsent messages, +Inf otherwise.
	tw := e.tw
	tv, tc := e.treeVal, e.treeCnt
	for i := 0; i < tw; i++ {
		leaf := math.Inf(1)
		if i < p && sp.off[i] < sp.off[i+1] {
			leaf = ct[i]
		}
		tv[tw+i], tc[tw+i] = leaf, 1
	}
	for n := tw - 1; n >= 1; n-- {
		lv, rv := tv[2*n], tv[2*n+1]
		switch {
		case lv < rv:
			tv[n], tc[n] = lv, tc[2*n]
		case lv > rv:
			tv[n], tc[n] = rv, tc[2*n+1]
		default:
			tv[n], tc[n] = lv, tc[2*n]+tc[2*n+1]
		}
	}

	for {
		minT := tv[1]
		if math.IsInf(minT, 1) {
			break
		}
		// Descend to the minimum-clock leaf. With ties, the reference
		// collects tied processors in index order and consumes one
		// Intn; descending by per-node tie counts selects the k-th
		// tied leaf — the same draw against the same ordering.
		n := 1
		if tc[1] > 1 {
			k := int32(rng.Intn(int(tc[1])))
			for n < tw {
				left := 2 * n
				if tv[left] == minT {
					if k < tc[left] {
						n = left
						continue
					}
					k -= tc[left]
				}
				n = 2*n + 1
			}
		} else {
			for n < tw {
				if tv[2*n] == minT {
					n = 2 * n
				} else {
					n = 2*n + 1
				}
			}
		}
		proc := n - tw

		startSend := ct[proc]
		if f := fs[proc]; f > startSend {
			startSend = f
		}
		startRecv := math.Inf(1)
		if hRun[proc] >= 0 {
			startRecv = ct[proc]
			if f := fr[proc]; f > startRecv {
				startRecv = f
			}
			if a := hKey[proc]; a > startRecv {
				startRecv = a
			}
		}
		leaf := math.Inf(1) // proc's new tree leaf: clock, or +Inf once exhausted
		if startSend < startRecv {
			slot := head[proc]
			head[proc] = slot + 1
			c := int(sp.sCls[slot])
			dst := int(sp.sDst[slot])
			arrival := startSend + tab[c].ad
			busy := 0.0
			if inj != nil {
				orig := int(sp.sOrig[slot])
				extraBusy, delay, err := inj.SendOutcome(si, orig, proc, dst, e.classBytes[c], startSend)
				arrival += delay
				busy = extraBusy
				switch {
				case err != nil:
				case math.IsNaN(busy) || math.IsInf(busy, 0) || busy < 0:
					err = fmt.Errorf("fault hook returned bad busy time %g", busy)
				case math.IsNaN(arrival) || math.IsInf(arrival, 0):
					err = fmt.Errorf("non-finite arrival time %g from fault hook", arrival)
				}
				if err != nil {
					e.errs[l] = &MessageError{Step: si, Msg: orig, Src: proc, Dst: dst, Err: err}
					return
				}
			}
			e.push(sp, sp.sRun[slot], dst, arrival, seq, int32(c))
			seq++
			ct[proc] = startSend + o + busy
			fs[proc] = startSend + tab[c].like
			fr[proc] = startSend + tab[c].unlike
			if int32(slot)+1 < sp.off[proc+1] {
				leaf = ct[proc]
			}
		} else {
			c := int(e.popRun(sp, hRun[proc]))
			e.rebuildHead(sp, proc)
			ct[proc] = startRecv + o
			fs[proc] = startRecv + tab[c].unlike
			fr[proc] = startRecv + tab[c].like
			leaf = ct[proc]
		}
		// Re-seat proc in the tree along its leaf-to-root path.
		tv[n] = leaf
		for n >>= 1; n >= 1; n >>= 1 {
			lv, rv := tv[2*n], tv[2*n+1]
			switch {
			case lv < rv:
				tv[n], tc[n] = lv, tc[2*n]
			case lv > rv:
				tv[n], tc[n] = rv, tc[2*n+1]
			default:
				tv[n], tc[n] = lv, tc[2*n]+tc[2*n+1]
			}
		}
	}
	// Drain phase: remaining receives per processor in index order.
	for q := 0; q < p; q++ {
		for hRun[q] >= 0 {
			start := ct[q]
			if f := fr[q]; f > start {
				start = f
			}
			if a := hKey[q]; a > start {
				start = a
			}
			c := int(e.popRun(sp, hRun[q]))
			e.rebuildHead(sp, q)
			ct[q] = start + o
			fs[q] = start + tab[c].unlike
			fr[q] = start + tab[c].like
		}
	}
}

// push appends an arrival to its receive run. A sender's start times
// only grow, so within a run arrivals are nondecreasing unless fault
// delays or mixed byte classes reorder them — then the entry is
// inserted in (arrival, seq) order, which keeps every run sorted and
// makes the run-head merge pop exactly what a (key, seq) heap would.
// The receiver's head cache needs at most one compare: the new entry
// only matters if it heads its own run and beats the cached key (on a
// key tie the cache keeps the earlier push, as the seq order demands).
func (e *Engine) push(sp *stepPlan, run int32, dst int, arrival float64, seq, cls int32) {
	b := sp.runBase[run]
	f := e.rFill[run]
	h := e.rHead[run]
	atHead := f == h
	if f > h && e.qKey[b+f-1] > arrival {
		pos := h
		for e.qKey[b+pos] <= arrival {
			pos++
		}
		copy(e.qKey[b+pos+1:b+f+1], e.qKey[b+pos:b+f])
		copy(e.qSeq[b+pos+1:b+f+1], e.qSeq[b+pos:b+f])
		copy(e.qCls[b+pos+1:b+f+1], e.qCls[b+pos:b+f])
		e.qKey[b+pos], e.qSeq[b+pos], e.qCls[b+pos] = arrival, seq, cls
		atHead = pos == h
	} else {
		e.qKey[b+f], e.qSeq[b+f], e.qCls[b+f] = arrival, seq, cls
	}
	e.rFill[run] = f + 1
	if atHead {
		e.rKey[run], e.rSeq[run] = arrival, seq
		if e.hRun[dst] < 0 || arrival < e.hKey[dst] {
			e.hRun[dst], e.hKey[dst] = run, arrival
		}
	}
}

// popRun consumes run r's head entry, returning its byte class, and
// refreshes the run's cached head so rebuildHead never has to chase
// pointers into the arrival buffer.
func (e *Engine) popRun(sp *stepPlan, r int32) int32 {
	b := sp.runBase[r]
	h := e.rHead[r]
	c := e.qCls[b+h]
	h++
	e.rHead[r] = h
	if h < e.rFill[r] {
		e.rKey[r], e.rSeq[r] = e.qKey[b+h], e.qSeq[b+h]
	}
	return c
}

// rebuildHead rescans receiver q's runs after a pop to restore the
// head cache: the earliest (arrival, seq) among the run heads. The
// per-run cached keys keep the scan inside a few contiguous cache
// lines instead of striding across the arrival buffer.
func (e *Engine) rebuildHead(sp *stepPlan, q int) {
	prun, headK, headS := int32(-1), 0.0, int32(0)
	rHead, rFill := e.rHead, e.rFill
	rKey, rSeq := e.rKey, e.rSeq
	for r := sp.runIdx[q]; r < sp.runIdx[q+1]; r++ {
		if rHead[r] == rFill[r] {
			continue
		}
		if k := rKey[r]; prun < 0 || k < headK || (k == headK && rSeq[r] < headS) {
			headK, headS, prun = k, rSeq[r], r
		}
	}
	e.hRun[q], e.hKey[q] = prun, headK
}

// runWC replays one communication step of one lane under the
// worst-case strategy, replicating worstcase.runReference through the
// same incremental candidate cache the session's tournament core uses:
// after a commit only the committed processor's candidates — and, for a
// send, the destination's receive candidate — can change, so only those
// are recomputed; the scan takes the leftmost strictly smallest cached
// start (receive winning ties within a processor). A processor stays in
// a commit burst while its refreshed key is strictly below every other
// key (other keys never rise in between: a push can only lower the
// destination's). Deadlocks are broken by releasing a random blocked
// sender — one RNG draw per break, unconditionally, like both session
// loops.
func (e *Engine) runWC(sp *stepPlan, si, l int) {
	p := e.p
	lp := l * p
	ct := e.ctWC[lp : lp+p : lp+p]
	fs := e.fsWC[lp : lp+p : lp+p]
	fr := e.frWC[lp : lp+p : lp+p]
	head := e.head
	toRecv, forced := e.toRecv, e.forced
	key, kind := e.candKey, e.candKind
	cand, pend := e.mask, e.pend
	copy(pend, sp.sendMask)
	copy(head, sp.off[:p])
	clear(e.rHead[:sp.nRuns])
	clear(e.rFill[:sp.nRuns])
	hRun := e.hRun
	for q := 0; q < p; q++ {
		hRun[q] = -1
	}
	seq := int32(0)
	rng := e.rngWC[l]
	o := e.o[l]
	inj := e.inj[l]
	tab := e.tabs[l]

	// Initial candidates: receive buffers are empty, so only processors
	// with sends and no pending receives are eligible.
	for w := range cand {
		cand[w] = 0
	}
	for q := 0; q < p; q++ {
		toRecv[q] = sp.inCnt[q]
		forced[q] = 0
		key[q] = math.Inf(1)
		if head[q] < sp.off[q+1] && toRecv[q] == 0 {
			key[q] = ct[q]
			if f := fs[q]; f > key[q] {
				key[q] = f
			}
			kind[q] = candSend
			cand[q>>6] |= 1 << (q & 63)
		}
	}

	for {
		// Scan: leftmost strict minimum key over live candidates, with
		// the runner-up bounding the burst.
		best, bestK, min2 := -1, math.Inf(1), math.Inf(1)
		for w, mw := range cand {
			for m := mw; m != 0; m &= m - 1 {
				q := w<<6 | bits.TrailingZeros64(m)
				k := key[q]
				if k < bestK {
					min2 = bestK
					bestK, best = k, q
				} else if k < min2 {
					min2 = k
				}
			}
		}
		if best < 0 {
			// No candidate: every processor with messages left is blocked
			// on unreceived messages — release one at random (index-order
			// list, one draw even for a single blocked sender).
			blocked := 0
			for _, mw := range pend {
				blocked += bits.OnesCount64(mw)
			}
			if blocked == 0 {
				break
			}
			k := rng.Intn(blocked)
			release := -1
		rel:
			for w, mw := range pend {
				for m := mw; m != 0; m &= m - 1 {
					if k == 0 {
						release = w<<6 | bits.TrailingZeros64(m)
						break rel
					}
					k--
				}
			}
			forced[release]++
			e.refreshWC(sp, lp, release)
			continue
		}
		// Burst on best: keys of other processors never rise between
		// best's commits (a push only lowers the destination's), so
		// best remains the leftmost strict minimum while its refreshed
		// key stays strictly below min2.
		for {
			start := key[best]
			if kind[best] == candSend {
				if toRecv[best] != 0 {
					forced[best]--
				}
				slot := head[best]
				head[best] = slot + 1
				c := int(sp.sCls[slot])
				dst := int(sp.sDst[slot])
				arrival := start + tab[c].ad
				busy := 0.0
				if inj != nil {
					orig := int(sp.sOrig[slot])
					extraBusy, delay, err := inj.SendOutcome(si, orig, best, dst, e.classBytes[c], start)
					arrival += delay
					busy = extraBusy
					if err == nil && (math.IsNaN(arrival) || math.IsInf(arrival, 0) || math.IsNaN(busy) || math.IsInf(busy, 0) || busy < 0) {
						err = fmt.Errorf("bad fault charge (busy %g, arrival %g)", busy, arrival)
					}
					if err != nil {
						e.errs[l] = &MessageError{Step: si, Msg: orig, Src: best, Dst: dst, Worst: true, Err: err}
						return
					}
				}
				e.push(sp, sp.sRun[slot], dst, arrival, seq, int32(c))
				seq++
				ct[best] = start + o + busy
				fs[best] = start + tab[c].like
				fr[best] = start + tab[c].unlike
				if head[best] == sp.off[best+1] {
					pend[best>>6] &^= 1 << (best & 63)
				}
				e.refreshWC(sp, lp, best)
				e.refreshWC(sp, lp, dst)
				if k := key[dst]; k < min2 {
					min2 = k
				}
			} else {
				c := int(e.popRun(sp, hRun[best]))
				e.rebuildHead(sp, best)
				toRecv[best]--
				ct[best] = start + o
				fs[best] = start + tab[c].unlike
				fr[best] = start + tab[c].like
				e.refreshWC(sp, lp, best)
			}
			if key[best] >= min2 {
				break // rescan applies the exact leftmost tie rule
			}
		}
	}
}

// refreshWC recomputes processor q's worst-case candidate (key, kind,
// live bit) from the clocks, floors and the receiver head cache. lp is
// the lane's base offset into the worst-case state arrays.
func (e *Engine) refreshWC(sp *stepPlan, lp, q int) {
	startSend := math.Inf(1)
	if e.head[q] < sp.off[q+1] && (e.toRecv[q] == 0 || e.forced[q] > 0) {
		startSend = e.ctWC[lp+q]
		if f := e.fsWC[lp+q]; f > startSend {
			startSend = f
		}
	}
	startRecv := math.Inf(1)
	if e.hRun[q] >= 0 {
		startRecv = e.ctWC[lp+q]
		if f := e.frWC[lp+q]; f > startRecv {
			startRecv = f
		}
		if a := e.hKey[q]; a > startRecv {
			startRecv = a
		}
	}
	k, kd := startRecv, candRecv
	if startSend < k {
		k, kd = startSend, candSend
	}
	e.candKey[q], e.candKind[q] = k, kd
	if math.IsInf(k, 1) {
		e.mask[q>>6] &^= 1 << (q & 63)
	} else {
		e.mask[q>>6] |= 1 << (q & 63)
	}
}
