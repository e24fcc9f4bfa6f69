package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"loggpsim/internal/cluster"
	"loggpsim/internal/loadgen"
	"loggpsim/internal/resultcache"
	"loggpsim/internal/serve"
)

// Serve workload shapes. Both are closed loops from this one process:
// predictd's callers (CLIs, sweep drivers) wait for each reply before
// sending the next request. serve-hot runs serveClients clients;
// serve-cold runs coldClients, one caller, so its peer evaluates one
// request at a time on one CPU and leaves the other to its runtime and
// the client: with two, two evaluations and the client shared two CPUs
// and the rate spread about twice as much between runs.
const (
	serveClients = 2
	coldClients  = 1
	hotUniverse  = 256
	hotSkew      = 1.3
	// hotCorpusSeed fixes serve-hot's request universe; the run's seed
	// drives the replay order. Which requests sit at the top Zipf ranks
	// sets the cost of a hit (responses range from 0.2 to 76 KB, and
	// the top three ranks take over half the traffic), so a universe
	// drawn per seed would change throughput twofold between seeds.
	hotCorpusSeed = DefaultSeed
	// coldUniverse yields about 6700 distinct canonical requests (6652
	// past the set-up batch), a 40-s run's worth at 165 req/s (this
	// machine serves 90-135 with one client). A run that gets through
	// all of them starts over; a repeat must come back byte-identical
	// to its first serving, and may be a hit, since predictd's
	// cost-aware eviction keeps some expensive entries. coldCorpusSeed fixes the universe, as
	// hotCorpusSeed does serve-hot's, and the run's seed drives the
	// order: runs at different seeds then serve mostly the same
	// requests, so their mode mix and cost differ less.
	// coldMin is the fewest requests a serve-cold run completes, and
	// the prefix the default-seed digest covers.
	coldUniverse   = 65536
	coldCorpusSeed = DefaultSeed
	coldMin        = 1000
	// coldCacheEntries keeps predictd's LRU well below the requests a
	// run sends, so stores evict during the timed phase.
	coldCacheEntries = 512
	// coldSetupReps: serve-cold sets up more often than the others,
	// its set-up being short. Each set-up boots predictd and serves it
	// its first cold batch, coldSetupBatch distinct requests of
	// loadgen.Corpus(coldSetupUniverse, coldSetupSeed). The batch is
	// the same at every seed, as serve-hot's universe is: a per-seed
	// batch of a few dozen misses would vary in cost with its mode mix.
	coldSetupReps     = 9
	coldSetupBatch    = 64
	coldSetupUniverse = 128
	coldSetupSeed     = DefaultSeed
	// hotWindow and coldWindow are the measurement windows (s), each
	// long enough for about a thousand requests.
	hotWindow  = 1.0
	coldWindow = 8.0
	// clientGOMAXPROCS is the load generator's CPU share. serve-hot's
	// router and peers get one CPU each too: four processes share two
	// CPUs, and serving hits needs no parallelism inside a process.
	// serve-cold's one peer gets every CPU, for its evaluations.
	clientGOMAXPROCS = 1
	hotServerProcs   = 1
)

// Golden digests at DefaultSeed of serve-hot's warm tableau (one
// normalized response per distinct request) and of serve-cold's first
// coldMin responses.
const (
	serveHotGolden  = "3f1356929e036d01"
	serveColdGolden = "6852e8b47373773f"
)

// elapsedKey introduces the one wall-clock field of a response, the
// last one the server writes.
var elapsedKey = []byte(`,"elapsed_ms":`)

// normalize removes the elapsed_ms field entirely, not just its value,
// so moving it elsewhere (a header) changes no digest. It returns a
// fresh slice and leaves body alone.
func normalize(body []byte) []byte {
	i := bytes.LastIndex(body, elapsedKey)
	if i < 0 {
		return append([]byte(nil), body...)
	}
	j := i + len(elapsedKey)
	for j < len(body) && bytes.IndexByte([]byte("+-.0123456789eE"), body[j]) >= 0 {
		j++
	}
	return append(append(make([]byte, 0, len(body)-(j-i)), body[:i]...), body[j:]...)
}

func digestBytes(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// corpusEntry is one generated request with its canonical key.
type corpusEntry struct {
	Body []byte
	Mode string
	Key  resultcache.Key
}

func decodeRequest(body []byte) (*serve.Request, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var r serve.Request
	if err := dec.Decode(&r); err != nil {
		return nil, err
	}
	return &r, nil
}

// corpus generates loadgen.Corpus(universe, seed) with canonical keys;
// first[i] is the index of the first request canonically equal to i.
func corpus(universe int, seed int64) ([]corpusEntry, []int, error) {
	bodies := loadgen.Corpus(universe, seed)
	out := make([]corpusEntry, len(bodies))
	first := make([]int, len(bodies))
	seen := map[resultcache.Key]int{}
	for i, b := range bodies {
		r, err := decodeRequest([]byte(b))
		if err != nil {
			return nil, nil, fmt.Errorf("corpus request %d: %w", i, err)
		}
		k, err := serve.CanonicalKey(r)
		if err != nil {
			return nil, nil, fmt.Errorf("corpus request %d: %w", i, err)
		}
		out[i] = corpusEntry{Body: []byte(b), Mode: r.Mode, Key: k}
		if j, ok := seen[k]; ok {
			first[i] = j
		} else {
			seen[k] = i
			first[i] = i
		}
	}
	return out, first, nil
}

// coldOrder returns the distinct requests of the cold corpus in seeded
// shuffled order.
func coldOrder(seed int64) ([]corpusEntry, error) {
	entries, first, err := corpus(coldUniverse, coldCorpusSeed)
	if err != nil {
		return nil, err
	}
	var distinct []corpusEntry
	for i, e := range entries {
		if first[i] == i {
			distinct = append(distinct, e)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(distinct), func(i, j int) { distinct[i], distinct[j] = distinct[j], distinct[i] })
	return distinct, nil
}

// coldSetupRequests is serve-cold's set-up batch.
func coldSetupRequests() ([]corpusEntry, error) {
	entries, first, err := corpus(coldSetupUniverse, coldSetupSeed)
	if err != nil {
		return nil, err
	}
	var batch []corpusEntry
	for i, e := range entries {
		if first[i] == i && len(batch) < coldSetupBatch {
			batch = append(batch, e)
		}
	}
	if len(batch) < coldSetupBatch {
		return nil, fmt.Errorf("set-up corpus has %d distinct requests, want %d", len(batch), coldSetupBatch)
	}
	return batch, nil
}

// reply is one request's client-side view.
type reply struct {
	Status  int
	Cache   string
	Body    []byte
	Latency time.Duration
	Retries int
	Err     error
}

func (r reply) ok() bool { return r.Err == nil && r.Status == http.StatusOK }

func (r reply) degraded() bool { return bytes.Contains(r.Body, []byte(`"degraded":true`)) }

// client issues predict requests with shed-aware retries.
type client struct {
	http *http.Client
}

func newClient() *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 8, DisableCompression: true, IdleConnTimeout: 30 * time.Second}
	return &client{http: &http.Client{Transport: tr}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// maxShedRetries bounds re-sends after a 429/503 shed answer; a shed
// that survives them is a failure.
const maxShedRetries = 3

func (c *client) post(base string, body []byte, hdr http.Header) reply {
	var rep reply
	t0 := time.Now()
	for attempt := 0; ; attempt++ {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/predict", bytes.NewReader(body))
		if err != nil {
			cancel()
			rep.Err = err
			break
		}
		req.Header.Set("Content-Type", "application/json")
		for k, v := range hdr {
			req.Header[k] = v
		}
		resp, err := c.http.Do(req)
		if err != nil {
			cancel()
			rep.Err = err
			break
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		cancel()
		rep.Status, rep.Cache, rep.Body, rep.Err = resp.StatusCode, resp.Header.Get("X-Cache"), b, err
		shed := resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable
		if !shed || attempt >= maxShedRetries {
			break
		}
		rep.Retries++
		time.Sleep(time.Duration(attempt+1) * 20 * time.Millisecond)
	}
	rep.Latency = time.Since(t0)
	return rep
}

// closedLoop runs `clients` goroutines that each take the next
// position from a shared counter and call fn on it, until next
// returns false. It returns once every goroutine is done.
func closedLoop(clients int, next func(i int) bool, fn func(worker, i int)) {
	var ctr atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(ctr.Add(1) - 1)
				if !next(i) {
					return
				}
				fn(w, i)
			}
		}(w)
	}
	wg.Wait()
}

// proc is one server process the benchmark started.
type proc struct {
	name string
	cmd  *exec.Cmd
	url  string
	done chan struct{} // closed when its stderr reaches EOF
	// rss is the peak resident set read just before stop signals it.
	rss    float64
	rssErr error
}

var listenRE = regexp.MustCompile(`listening on (\S+)`)

// startProc runs a server binary on an ephemeral loopback port and
// returns once it has printed its address.
func startProc(bin, name string, procs int, args ...string) (*proc, error) {
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(p.done)
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			if m := listenRE.FindStringSubmatch(sc.Text()); m != nil && !sent {
				addr <- m[1]
				sent = true
			}
		}
		if !sent {
			close(addr)
		}
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			p.stop()
			return nil, fmt.Errorf("%s exited before listening", name)
		}
		p.url = "http://" + a
		return p, nil
	case <-time.After(30 * time.Second):
		p.stop()
		return nil, fmt.Errorf("%s did not listen within 30s", name)
	}
}

// stop records the process's peak RSS, sends SIGTERM, and waits for it
// to exit (killing it after a grace period).
func (p *proc) stop() {
	p.rss, p.rssErr = peakRSSMB(strconv.Itoa(p.cmd.Process.Pid))
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(20 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
	_ = p.cmd.Wait()
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// waitFor polls cond every few milliseconds until it holds.
func waitFor(what string, limit time.Duration, cond func() bool) error {
	deadline := time.Now().Add(limit)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("%s: not within %v", what, limit)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}

func readyz(url string) bool {
	resp, err := http.Get(url + "/readyz")
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// deployment is the server processes of one set-up: predictd peers
// and, for serve-hot, a predictrouter in front of them.
type deployment struct {
	peers  []*proc
	router *proc
}

func (d *deployment) base() string {
	if d.router != nil {
		return d.router.url
	}
	return d.peers[0].url
}

// stop stops every process and returns their peak RSS summed.
func (d *deployment) stop() (float64, error) {
	procs := d.peers
	if d.router != nil {
		procs = append([]*proc{d.router}, procs...)
	}
	var (
		rss  float64
		errs []error
	)
	for _, p := range procs {
		p.stop()
		rss += p.rss
		errs = append(errs, p.rssErr)
	}
	return rss, errors.Join(errs...)
}

// startDeployment starts peers predictd processes (and a router in
// front when asked), each with GOMAXPROCS=procs and workers = nproc.
func startDeployment(o options, procs, peers int, router bool, peerArgs ...string) (*deployment, error) {
	d := &deployment{}
	for i := 0; i < peers; i++ {
		args := append([]string{"-addr", "127.0.0.1:0", "-workers", strconv.Itoa(runtime.NumCPU())}, peerArgs...)
		p, err := startProc(filepath.Join(o.Bin, "predictd"), fmt.Sprintf("predictd-%d", i), procs, args...)
		if err != nil {
			d.stop()
			return nil, err
		}
		d.peers = append(d.peers, p)
	}
	for _, p := range d.peers {
		p := p
		if err := waitFor(p.name+" ready", 30*time.Second, func() bool { return readyz(p.url) }); err != nil {
			d.stop()
			return nil, err
		}
	}
	if !router {
		return d, nil
	}
	urls := make([]string, len(d.peers))
	for i, p := range d.peers {
		urls[i] = p.url
	}
	r, err := startProc(filepath.Join(o.Bin, "predictrouter"), "predictrouter", procs,
		"-addr", "127.0.0.1:0", "-peers", strings.Join(urls, ","), "-probe-interval", "50ms")
	if err != nil {
		d.stop()
		return nil, err
	}
	d.router = r
	// Wait for every peer to probe healthy, not just one, so warm-up
	// traffic is routed to ring owners from the first request.
	err = waitFor("router peers healthy", 30*time.Second, func() bool {
		var st cluster.Stats
		if getJSON(r.url+"/statsz", &st) != nil {
			return false
		}
		for _, p := range st.Peers {
			if p.State != "healthy" {
				return false
			}
		}
		return len(st.Peers) == len(d.peers)
	})
	if err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// peerStats sums the peers' /statsz counters.
func (d *deployment) peerStats() (serve.Stats, error) {
	var sum serve.Stats
	sum.Cache = &resultcache.Stats{}
	for _, p := range d.peers {
		var st serve.Stats
		if err := getJSON(p.url+"/statsz", &st); err != nil {
			return sum, err
		}
		addServeStats(&sum, st)
	}
	return sum, nil
}

func addServeStats(sum *serve.Stats, st serve.Stats) {
	sum.Accepted += st.Accepted
	sum.Shed += st.Shed
	sum.Rejected += st.Rejected
	sum.Degraded += st.Degraded
	sum.Completed += st.Completed
	sum.Coalesced += st.Coalesced
	sum.Queued += st.Queued
	if st.Cache != nil {
		sum.Cache.Hits += st.Cache.Hits
		sum.Cache.Misses += st.Cache.Misses
		sum.Cache.Coalesced += st.Cache.Coalesced
		sum.Cache.Stores += st.Cache.Stores
		sum.Cache.Evictions += st.Cache.Evictions
	}
}

// serveCounts flattens the exact counters of a peer-sum and a router
// snapshot, each name prefixed.
func serveCounts(dst map[string]int64, prefix string, st serve.Stats) {
	dst[prefix+"serve.accepted"] = st.Accepted
	dst[prefix+"serve.shed"] = st.Shed
	dst[prefix+"serve.degraded"] = st.Degraded
	dst[prefix+"serve.rejected"] = st.Rejected
	dst[prefix+"cache.hits"] = st.Cache.Hits
	dst[prefix+"cache.misses"] = st.Cache.Misses
	dst[prefix+"cache.stores"] = st.Cache.Stores
	dst[prefix+"cache.evictions"] = st.Cache.Evictions
}

func routerCounts(dst map[string]int64, prefix string, st cluster.Stats) {
	dst[prefix+"router.owner_hits"] = st.OwnerHits
	dst[prefix+"router.failovers"] = st.Failovers
	dst[prefix+"router.hedges"] = st.Hedges
	dst[prefix+"router.load_reroutes"] = st.LoadReroutes
	dst[prefix+"router.forwards"] = st.Forwards
}

// warm sends each distinct request once (2 clients) and returns the
// normalized response per corpus index, filled for first occurrences.
func warm(o *outcome, c *client, base string, entries []corpusEntry, first []int) [][]byte {
	var distinct []int
	for i := range entries {
		if first[i] == i {
			distinct = append(distinct, i)
		}
	}
	tableau := make([][]byte, len(entries))
	var mu sync.Mutex
	closedLoop(serveClients, func(i int) bool { return i < len(distinct) }, func(_, i int) {
		idx := distinct[i]
		r := c.post(base, entries[idx].Body, nil)
		norm, degraded := normalize(r.Body), r.degraded()
		mu.Lock()
		defer mu.Unlock()
		if o.check(r.ok() && !degraded, "warm request %d: status %d cache %q err %v degraded %v",
			idx, r.Status, r.Cache, r.Err, degraded) {
			tableau[idx] = norm
		}
	})
	return tableau
}

func tableauDigest(tableau [][]byte) string {
	h := sha256.New()
	for i, b := range tableau {
		if b != nil {
			fmt.Fprintf(h, "%d %s\n", i, digestBytes(b))
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func runServeHot(o options) (*outcome, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(clientGOMAXPROCS))
	out := newOutcome()
	out.Window = hotWindow
	out.Procs["client"] = clientGOMAXPROCS
	out.Procs["predictd"] = hotServerProcs
	out.Procs["predictrouter"] = hotServerProcs
	entries, first, err := corpus(hotUniverse, hotCorpusSeed)
	if err != nil {
		return nil, err
	}
	seq := loadgen.Sequence(1<<18, hotUniverse, hotSkew, o.Seed)
	c := newClient()
	defer c.close()

	var (
		d       *deployment
		tableau [][]byte
		digest0 string
	)
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		dep, err := startDeployment(o, hotServerProcs, 2, true)
		if err != nil {
			return nil, err
		}
		tab := warm(out, c, dep.base(), entries, first)
		out.Setup = append(out.Setup, time.Since(t0).Seconds())
		dg := tableauDigest(tab)
		if rep == 0 {
			digest0 = dg
		}
		out.check(dg == digest0, "set-up %d warm tableau %s differs from set-up 0's %s", rep, dg, digest0)
		if rep < setupReps-1 {
			dep.stop()
			c.close()
			continue
		}
		d, tableau = dep, tab
	}
	if o.Seed == DefaultSeed {
		out.check(digest0 == serveHotGolden, "serve-hot warm digest %s, golden %s", digest0, serveHotGolden)
	}
	out.Notes["digest"] = digest0
	warmPeers, err := d.peerStats()
	if err != nil {
		d.stop()
		return nil, err
	}
	var warmRouter cluster.Stats
	if err := getJSON(d.router.url+"/statsz", &warmRouter); err != nil {
		d.stop()
		return nil, err
	}
	serveCounts(out.Counts, "warm.", warmPeers)
	routerCounts(out.Counts, "warm.", warmRouter)

	// Timed phase: Zipf replay of read hits, each checked byte for byte
	// against the warm serving of its canonical request.
	var (
		mu       sync.Mutex
		lat      []float64
		done     []float64
		nonHits  int64
		retries  int64
		deadline = time.Now().Add(time.Duration(o.Seconds * float64(time.Second)))
	)
	start := time.Now()
	closedLoop(serveClients, func(int) bool { return time.Now().Before(deadline) }, func(_, i int) {
		idx := seq[i%len(seq)]
		r := c.post(d.base(), entries[idx].Body, nil)
		same := bytes.Equal(normalize(r.Body), tableau[first[idx]])
		mu.Lock()
		defer mu.Unlock()
		lat = append(lat, float64(r.Latency)/float64(time.Millisecond))
		done = append(done, time.Since(start).Seconds())
		retries += int64(r.Retries)
		if r.Cache != "hit" {
			nonHits++
		}
		out.check(r.ok() && r.Cache == "hit" && same,
			"timed request %d (corpus %d): status %d cache %q err %v, identical %v",
			i, idx, r.Status, r.Cache, r.Err, same)
	})
	out.Elapsed = time.Since(start).Seconds()
	out.Latencies, out.Done = lat, done

	endPeers, err := d.peerStats()
	if err != nil {
		d.stop()
		return nil, err
	}
	var endRouter cluster.Stats
	if err := getJSON(d.router.url+"/statsz", &endRouter); err != nil {
		d.stop()
		return nil, err
	}
	n := int64(len(lat))
	out.Counts["timed.non_hits"] = nonHits
	out.Counts["timed.cache_hits_minus_requests"] = endPeers.Cache.Hits - warmPeers.Cache.Hits - n
	out.Counts["timed.cache.misses"] = endPeers.Cache.Misses - warmPeers.Cache.Misses
	out.Counts["timed.cache.evictions"] = endPeers.Cache.Evictions - warmPeers.Cache.Evictions
	out.Counts["timed.serve.shed"] = endPeers.Shed - warmPeers.Shed
	out.Counts["timed.serve.degraded"] = endPeers.Degraded - warmPeers.Degraded
	out.Counts["timed.router.non_owner"] = n - (endRouter.OwnerHits - warmRouter.OwnerHits)
	out.Counts["timed.router.failovers"] = endRouter.Failovers - warmRouter.Failovers
	out.Counts["timed.router.hedges"] = endRouter.Hedges - warmRouter.Hedges
	out.Counts["timed.router.load_reroutes"] = endRouter.LoadReroutes - warmRouter.LoadReroutes
	out.Volume["requests"] = n
	out.Volume["retries"] = retries
	serveCounts(out.Volume, "end.", endPeers)
	routerCounts(out.Volume, "end.", endRouter)
	if out.PeakRSSMB, err = d.stop(); err != nil {
		return nil, err
	}
	return out, nil
}

func runServeCold(o options) (*outcome, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(clientGOMAXPROCS))
	out := newOutcome()
	out.Window = coldWindow
	out.Procs["client"] = clientGOMAXPROCS
	out.Procs["predictd"] = runtime.NumCPU()
	order, err := coldOrder(o.Seed)
	if err != nil {
		return nil, err
	}
	batch, err := coldSetupRequests()
	if err != nil {
		return nil, err
	}
	// The last set-up's peer serves the timed phase with the batch in
	// its cache, so the timed requests leave the batch out.
	inBatch := map[resultcache.Key]bool{}
	for _, e := range batch {
		inBatch[e.Key] = true
	}
	order = slices.DeleteFunc(order, func(e corpusEntry) bool { return inBatch[e.Key] })
	out.Counts["distinct_requests"] = int64(len(order))
	c := newClient()
	defer c.close()
	peerArgs := []string{"-cache-entries", strconv.Itoa(coldCacheEntries)}

	var (
		d          *deployment
		batchFirst [][]byte
	)
	for rep := 0; rep < coldSetupReps; rep++ {
		t0 := time.Now()
		dep, err := startDeployment(o, runtime.NumCPU(), 1, false, peerArgs...)
		if err != nil {
			return nil, err
		}
		replies := make([]reply, len(batch))
		closedLoop(coldClients, func(i int) bool { return i < len(batch) }, func(_, i int) {
			replies[i] = c.post(dep.base(), batch[i].Body, nil)
		})
		out.Setup = append(out.Setup, time.Since(t0).Seconds())
		for i, r := range replies {
			norm := normalize(r.Body)
			if rep == 0 {
				batchFirst = append(batchFirst, norm)
			}
			out.check(r.ok() && r.Cache == "miss" && !r.degraded() && bytes.Equal(norm, batchFirst[i]),
				"set-up %d request %d: status %d cache %q err %v, identical to set-up 0's %v",
				rep, i, r.Status, r.Cache, r.Err, bytes.Equal(norm, batchFirst[i]))
		}
		if rep < coldSetupReps-1 {
			dep.stop()
			c.close()
			continue
		}
		d = dep
	}
	st0, err := d.peerStats()
	if err != nil {
		d.stop()
		return nil, err
	}

	// Timed phase: every request a miss that evaluates, stores and
	// (past coldCacheEntries) evicts.
	var (
		mu       sync.Mutex
		lat      []float64
		done     []float64
		bodies   = make([][]byte, len(order))
		retries  int64
		deadline = time.Now().Add(time.Duration(o.Seconds * float64(time.Second)))
		served   atomic.Int64
	)
	start := time.Now()
	closedLoop(coldClients, func(i int) bool {
		return time.Now().Before(deadline) || i < coldMin
	}, func(_, i int) {
		p := i % len(order)
		r := c.post(d.base(), order[p].Body, nil)
		served.Add(1)
		norm, degraded := normalize(r.Body), r.degraded()
		mu.Lock()
		defer mu.Unlock()
		lat = append(lat, float64(r.Latency)/float64(time.Millisecond))
		done = append(done, time.Since(start).Seconds())
		retries += int64(r.Retries)
		ok := r.ok() && r.Cache == "miss" && !degraded
		if i >= len(order) {
			ok = r.ok() && bytes.Equal(norm, bodies[p])
		}
		if out.check(ok, "cold request %d: status %d cache %q err %v degraded %v", i, r.Status, r.Cache, r.Err, degraded) && i < len(order) {
			bodies[p] = norm
		}
	})
	out.Elapsed = time.Since(start).Seconds()
	out.Latencies, out.Done = lat, done
	n := int(served.Load())
	st, err := d.peerStats()
	if err != nil {
		d.stop()
		return nil, err
	}
	// Past the first pass over the order the cache counters depend on
	// how far the run got.
	cache := out.Counts
	if n > len(order) {
		cache = out.Volume
	}
	cache["timed.cache_misses_minus_requests"] = st.Cache.Misses - st0.Cache.Misses - int64(n)
	cache["timed.cache_stores_minus_requests"] = st.Cache.Stores - st0.Cache.Stores - int64(n)
	cache["timed.cache.hits"] = st.Cache.Hits - st0.Cache.Hits
	out.Counts["timed.serve.shed"] = st.Shed - st0.Shed
	out.Counts["timed.serve.degraded"] = st.Degraded - st0.Degraded
	out.Counts["timed.serve.rejected"] = st.Rejected - st0.Rejected
	out.Volume["requests"] = int64(n)
	out.Volume["retries"] = retries
	serveCounts(out.Volume, "end.", st)

	// Repeated servings: the earliest requests (long evicted, so they
	// evaluate again) and the latest (still cached) must come back
	// byte-identical to their first serving.
	var again []int
	for i := 0; i < 64 && i < n; i++ {
		again = append(again, i)
	}
	for i := max(n-32, 64); i < n; i++ {
		again = append(again, i%len(order))
	}
	for _, i := range again {
		r := c.post(d.base(), order[i].Body, nil)
		out.check(r.ok() && bytes.Equal(normalize(r.Body), bodies[i]), "repeat of cold request %d: status %d cache %q, identical %v",
			i, r.Status, r.Cache, bytes.Equal(normalize(r.Body), bodies[i]))
	}

	h := sha256.New()
	for i := 0; i < coldMin; i++ {
		fmt.Fprintf(h, "%d %s\n", i, digestBytes(bodies[i]))
	}
	digest := hex.EncodeToString(h.Sum(nil))[:16]
	out.Notes["digest"] = digest
	if o.Seed == DefaultSeed {
		out.check(digest == serveColdGolden, "serve-cold digest %s, golden %s", digest, serveColdGolden)
	}
	if out.PeakRSSMB, err = d.stop(); err != nil {
		return nil, err
	}
	return out, nil
}
