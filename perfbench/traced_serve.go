package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"time"

	"loggpsim/internal/cluster"
	"loggpsim/internal/loadgen"
	"loggpsim/internal/resultcache"
	"loggpsim/internal/ring"
	"loggpsim/internal/serve"
)

// serveScale sizes the traced serve family.
type serveScale struct {
	hotUniverse int
	// hotN requests are replayed twice through the router, untraced
	// then traced.
	hotN int
	// coldN distinct requests are sent to a fresh peer, untraced, and
	// again to a second fresh peer, traced; zero means perMode requests
	// of each mode instead.
	coldN   int
	perMode int
}

var (
	serveProbe    = serveScale{hotUniverse: 64, hotN: 1000, perMode: 4}
	serveHotFull  = serveScale{hotUniverse: hotUniverse, hotN: 8000, perMode: 4}
	serveColdFull = serveScale{hotUniverse: 64, hotN: 1000, coldN: 600}
)

// Headers carrying the request id and the parent span across a hop.
const (
	hdrReq  = "X-Bench-Req"
	hdrSpan = "X-Bench-Span"
)

type spanCtxKey struct{}

type spanCtx struct{ req, span int64 }

// traceHandler wraps h in a span named name whose parent and request
// id arrive in the X-Bench-* headers; the span's identity travels on in
// the request context, where traceTransport finds it. The span's
// attribute is the response's X-Cache header.
func traceHandler(rec *recorder, name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := strconv.ParseInt(r.Header.Get(hdrReq), 10, 64)
		if req == 0 || !rec.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
		id := rec.newID()
		start := rec.now()
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanCtxKey{}, spanCtx{req, id})))
		rec.add(span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: rec.now(), Attr: w.Header().Get("X-Cache")})
	})
}

// traceTransport is the router's outgoing transport: a forward made on
// behalf of a traced request becomes an "upstream" span, ended when the
// router closes the response body, and carries its ids to the peer.
type traceTransport struct {
	rec  *recorder
	base http.RoundTripper
}

func (t traceTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	sc, ok := r.Context().Value(spanCtxKey{}).(spanCtx)
	if !ok || !t.rec.on.Load() {
		return t.base.RoundTrip(r)
	}
	id := t.rec.newID()
	start := t.rec.now()
	r = r.Clone(r.Context())
	r.Header.Set(hdrReq, strconv.FormatInt(sc.req, 10))
	r.Header.Set(hdrSpan, strconv.FormatInt(id, 10))
	end := func() {
		t.rec.add(span{ID: id, Parent: sc.span, Req: sc.req, Name: "upstream", Start: start, End: t.rec.now()})
	}
	resp, err := t.base.RoundTrip(r)
	if err != nil {
		end()
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, end: end}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.end)
	return err
}

// tracedPost sends one request as a "client" span (attribute: mode)
// whose ids the server side picks up from the headers.
func tracedPost(rec *recorder, c *client, base string, e corpusEntry, req int64) reply {
	id := rec.newID()
	hdr := http.Header{}
	hdr.Set(hdrReq, strconv.FormatInt(req, 10))
	hdr.Set(hdrSpan, strconv.FormatInt(id, 10))
	start := rec.now()
	r := c.post(base, e.Body, hdr)
	rec.add(span{ID: id, Req: req, Name: "client", Start: start, End: rec.now(), Attr: e.Mode})
	return r
}

// inproc is one in-process predictd peer behind an httptest listener.
type inproc struct {
	srv *serve.Server
	ts  *httptest.Server
}

func newInproc(rec *recorder, cfg serve.Config) *inproc {
	s := serve.NewServer(cfg)
	return &inproc{srv: s, ts: httptest.NewServer(traceHandler(rec, "peer", s.Handler()))}
}

func sumStats(ps ...*inproc) serve.Stats {
	var sum serve.Stats
	sum.Cache = &resultcache.Stats{}
	for _, p := range ps {
		addServeStats(&sum, p.srv.Stats())
	}
	return sum
}

// replayResult is one closed-loop replay's client-side view.
type replayResult struct {
	lat     []float64
	elapsed time.Duration
	bodies  [][]byte
}

func (r replayResult) reqPerS() float64 { return float64(len(r.lat)) / r.elapsed.Seconds() }

// serveOverheadReps is how many untraced and traced replays the
// tracing-overhead comparison alternates.
const serveOverheadReps = 3

// faster returns whichever replay took less time.
func faster(a, b replayResult) replayResult {
	if b.elapsed < a.elapsed {
		return b
	}
	return a
}

// replay sends reqs[i] for every i through base with `clients`
// closed-loop clients; traced requests carry ids reqBase+i. after, when
// set, runs after each request (outside the timing).
func replay(rec *recorder, c *client, base string, clients int, reqs []corpusEntry, traced bool, reqBase int64, after func()) (replayResult, []reply) {
	res := replayResult{bodies: make([][]byte, len(reqs))}
	replies := make([]reply, len(reqs))
	var mu sync.Mutex
	t0 := time.Now()
	closedLoop(clients, func(i int) bool { return i < len(reqs) }, func(_, i int) {
		var r reply
		if traced {
			r = tracedPost(rec, c, base, reqs[i], reqBase+int64(i))
		} else {
			r = c.post(base, reqs[i].Body, nil)
		}
		norm := normalize(r.Body)
		if after != nil {
			after()
		}
		mu.Lock()
		res.lat = append(res.lat, float64(r.Latency)/float64(time.Millisecond))
		res.bodies[i] = norm
		replies[i] = r
		mu.Unlock()
	})
	res.elapsed = time.Since(t0)
	return res, replies
}

func recordReplay(out *outcome, prefix string, off, on replayResult) float64 {
	out.Layer[prefix+".untraced_req_per_s"] = off.reqPerS()
	out.Layer[prefix+".traced_req_per_s"] = on.reqPerS()
	out.Layer[prefix+".traced_p50_ms"] = percentile(on.lat, 0.5)
	out.Layer[prefix+".traced_p99_ms"] = percentile(on.lat, 0.99)
	out.Layer[prefix+".untraced_p50_ms"] = percentile(off.lat, 0.5)
	ratio := float64(on.elapsed) / float64(off.elapsed)
	out.Layer[prefix+".overhead_ratio"] = ratio
	return ratio
}

// traceServe measures resultcache, serve, cluster, ring and the client
// with the peers and the router hosted in this process: a hot phase
// (warm, then a Zipf replay of hits through the router, untraced and
// traced) and a cold phase (distinct requests to fresh peers, untraced
// and traced), plus direct calls on the same inputs.
func traceServe(out *outcome, rec *recorder, o options, sc serveScale) error {
	nproc := runtime.NumCPU()
	c := newClient()
	defer c.close()

	// Hot phase.
	peers := []*inproc{newInproc(rec, serve.Config{Workers: nproc}), newInproc(rec, serve.Config{Workers: nproc})}
	defer func() {
		for _, p := range peers {
			p.ts.Close()
		}
	}()
	urls := []string{peers[0].ts.URL, peers[1].ts.URL}
	rt, err := cluster.NewRouter(cluster.Config{
		Peers:         urls,
		ProbeInterval: 50 * time.Millisecond,
		Transport:     traceTransport{rec: rec, base: &http.Transport{MaxIdleConnsPerHost: 8, DisableCompression: true}},
	})
	if err != nil {
		return err
	}
	rt.Start()
	rts := httptest.NewServer(traceHandler(rec, "router", rt.Handler()))
	closeRouter := func() {
		if rts != nil {
			rts.Close()
			rt.Close()
			rts = nil
		}
	}
	defer closeRouter()
	err = waitFor("in-process peers healthy", 30*time.Second, func() bool {
		for _, p := range rt.Stats().Peers {
			if p.State != "healthy" {
				return false
			}
		}
		return true
	})
	if err != nil {
		return err
	}

	entries, first, err := corpus(sc.hotUniverse, hotCorpusSeed)
	if err != nil {
		return err
	}
	tableau := warm(out, c, rts.URL, entries, first)
	seq := loadgen.Sequence(sc.hotN, sc.hotUniverse, hotSkew, o.Seed)
	hotReqs := make([]corpusEntry, len(seq))
	for i, idx := range seq {
		hotReqs[i] = entries[idx]
	}
	// Untraced and traced replays of the same requests alternate, each
	// side keeping its fastest; the first traced replay's spans and
	// counters give the metrics.
	off, _ := replay(rec, c, rts.URL, serveClients, hotReqs, false, 0, nil)
	peersBefore, routerBefore := sumStats(peers...), rt.Stats()
	mark := len(rec.snapshot())
	rec.on.Store(true)
	on, hotReplies := replay(rec, c, rts.URL, serveClients, hotReqs, true, 1_000_000, nil)
	rec.on.Store(false)
	hotSpans := rec.snapshot()[mark:]
	peersAfter, routerAfter := sumStats(peers...), rt.Stats()
	for i, r := range hotReplies {
		out.check(r.ok() && r.Cache == "hit" && bytes.Equal(on.bodies[i], tableau[first[seq[i]]]) && bytes.Equal(off.bodies[i], on.bodies[i]),
			"traced hot request %d: status %d cache %q", i, r.Status, r.Cache)
	}
	for rep := 1; rep < serveOverheadReps; rep++ {
		off2, _ := replay(rec, c, rts.URL, serveClients, hotReqs, false, 0, nil)
		rec.on.Store(true)
		on2, _ := replay(rec, c, rts.URL, serveClients, hotReqs, true, 1_000_000, nil)
		rec.on.Store(false)
		off, on = faster(off, off2), faster(on, on2)
	}
	hotRatio := recordReplay(out, "traced.serve.hot", off, on)

	self := selfTimes(hotSpans)
	var peerHit, peerAll, client, route, upstream spanStats
	for _, s := range hotSpans {
		switch s.Name {
		case "peer":
			peerAll.n++
			peerAll.total += s.dur()
			if s.Attr == "hit" {
				peerHit.n++
				peerHit.total += s.dur()
			}
		case "client":
			client.n++
			client.total += s.dur()
		case "router":
			route.n++
			route.total += self[s.ID]
		case "upstream":
			upstream.n++
			upstream.total += s.dur()
		}
	}
	reqs := routerAfter.Requests - routerBefore.Requests
	out.Layer["serve.hit_us"] = peerHit.meanUS()
	out.Layer["cluster.route_us"] = route.meanUS()
	out.Layer["cluster.upstream_us"] = upstream.meanUS()
	out.Layer["client.outside_share"] = 1 - float64(peerAll.total)/float64(client.total)
	out.Layer["cluster.owner_hit_ratio"] = float64(routerAfter.OwnerHits-routerBefore.OwnerHits) / float64(max(reqs, 1))
	out.Layer["cluster.failovers"] = float64(routerAfter.Failovers - routerBefore.Failovers)
	out.Layer["cluster.hedges"] = float64(routerAfter.Hedges - routerBefore.Hedges)
	out.Layer["cluster.load_reroutes"] = float64(routerAfter.LoadReroutes - routerBefore.LoadReroutes)
	out.Counts["traced.hot.router.failovers"] = routerAfter.Failovers - routerBefore.Failovers
	out.Counts["traced.hot.router.hedges"] = routerAfter.Hedges - routerBefore.Hedges
	out.Counts["traced.hot.router.load_reroutes"] = routerAfter.LoadReroutes - routerBefore.LoadReroutes
	out.Counts["traced.hot.router.non_owner"] = reqs - (routerAfter.OwnerHits - routerBefore.OwnerHits)
	out.Counts["traced.hot.cache.misses"] = peersAfter.Cache.Misses - peersBefore.Cache.Misses
	closeRouter()

	if err := directServeProbes(out, peers, urls, entries, first, tableau, hotReqs, o.Seed); err != nil {
		return err
	}

	// Cold phase.
	order, err := coldOrder(o.Seed)
	if err != nil {
		return err
	}
	var coldReqs []corpusEntry
	if sc.coldN > 0 {
		coldReqs = order[:sc.coldN]
	} else {
		taken := map[string]int{}
		for _, e := range order {
			if taken[e.Mode] < sc.perMode {
				taken[e.Mode]++
				coldReqs = append(coldReqs, e)
			}
		}
	}
	// Every cold replay needs fresh peers: a for the untraced replay, b
	// for the traced one. The first pair's traced replay gives the
	// metrics; later pairs only time.
	coldCfg := serve.Config{Workers: nproc, Cache: resultcache.Config{MaxEntries: coldCacheEntries}}
	a, b := newInproc(rec, coldCfg), newInproc(rec, coldCfg)
	defer a.ts.Close()
	defer b.ts.Close()
	coldOff, _ := replay(rec, c, a.ts.URL, coldClients, coldReqs, false, 0, nil)
	var qmu sync.Mutex
	var queued []float64
	sample := func() {
		q := float64(b.srv.Stats().Queued)
		qmu.Lock()
		queued = append(queued, q)
		qmu.Unlock()
	}
	mark = len(rec.snapshot())
	rec.on.Store(true)
	coldOn, coldReplies := replay(rec, c, b.ts.URL, coldClients, coldReqs, true, 2_000_000, sample)
	rec.on.Store(false)
	coldSpans := rec.snapshot()[mark:]
	for i, r := range coldReplies {
		out.check(r.ok() && r.Cache == "miss" && !r.degraded() && bytes.Equal(coldOff.bodies[i], coldOn.bodies[i]),
			"traced cold request %d: status %d cache %q, identical to the untraced peer's %v",
			i, r.Status, r.Cache, bytes.Equal(coldOff.bodies[i], coldOn.bodies[i]))
	}
	for rep := 1; rep < serveOverheadReps; rep++ {
		a2, b2 := newInproc(rec, coldCfg), newInproc(rec, coldCfg)
		off2, _ := replay(rec, c, a2.ts.URL, coldClients, coldReqs, false, 0, nil)
		rec.on.Store(true)
		on2, _ := replay(rec, c, b2.ts.URL, coldClients, coldReqs, true, 2_000_000, nil)
		rec.on.Store(false)
		a2.ts.Close()
		b2.ts.Close()
		coldOff, coldOn = faster(coldOff, off2), faster(coldOn, on2)
	}
	coldRatio := recordReplay(out, "traced.serve.cold", coldOff, coldOn)

	miss := map[string]*spanStats{}
	for _, s := range coldSpans {
		if s.Name != "peer" || s.Attr != "miss" {
			continue
		}
		mode := coldReqs[s.Req-2_000_000].Mode
		if miss[mode] == nil {
			miss[mode] = &spanStats{}
		}
		miss[mode].n++
		miss[mode].total += s.dur()
	}
	for _, mode := range []string{serve.ModeSimulate, serve.ModeWorstCase, serve.ModeAnalyze, serve.ModeEnvelope} {
		st := miss[mode]
		if !out.check(st != nil, "traced cold phase served no %s miss", mode) {
			continue
		}
		out.Layer["serve.miss_ms."+mode] = st.meanMS()
	}
	bst := b.srv.Stats()
	all := sumStats(append(peers, a, b)...)
	out.Layer["serve.queued_mean"] = mean(queued)
	out.Layer["resultcache.evictions"] = float64(bst.Cache.Evictions)
	out.Layer["resultcache.hit_rate"] = float64(all.Cache.Hits) / float64(max(all.Cache.Hits+all.Cache.Misses, 1))
	out.Layer["serve.shed"] = float64(peersAfter.Shed - peersBefore.Shed + bst.Shed)
	out.Layer["serve.degraded"] = float64(peersAfter.Degraded - peersBefore.Degraded + bst.Degraded)
	out.Counts["traced.cold.shed"] = bst.Shed
	out.Counts["traced.cold.degraded"] = bst.Degraded
	out.Counts["traced.cold.evictions"] = bst.Cache.Evictions

	switch sc {
	case serveColdFull:
		out.Layer["traced.serve.overhead_ratio"] = coldRatio
	default:
		out.Layer["traced.serve.overhead_ratio"] = hotRatio
	}
	return nil
}

// directServeProbes times the serving layers' public calls on the hot
// phase's inputs, weighted as the Zipf replay weights them: decode +
// Validate, CanonicalKey, response encoding, cache Get/Put, ring
// owners, and the allocations of one hit through a peer's handler.
func directServeProbes(out *outcome, peers []*inproc, urls []string, entries []corpusEntry, first []int, tableau [][]byte, hotReqs []corpusEntry, seed int64) error {
	const minOps = 20000
	rounds := (minOps + len(hotReqs) - 1) / len(hotReqs)
	lim := serve.DefaultLimits()

	reqs := make([]*serve.Request, len(hotReqs))
	t := time.Now()
	for r := 0; r < rounds; r++ {
		for i, e := range hotReqs {
			q, err := decodeRequest(e.Body)
			if err != nil {
				return err
			}
			if err := q.Validate(lim); err != nil {
				return err
			}
			reqs[i] = q
		}
	}
	out.Layer["serve.decode_us"] = float64(time.Since(t)) / float64(rounds*len(hotReqs)) / 1e3

	keys := make([]resultcache.Key, len(reqs))
	t = time.Now()
	for r := 0; r < rounds; r++ {
		for i, q := range reqs {
			k, err := serve.CanonicalKey(q)
			if err != nil {
				return err
			}
			keys[i] = k
		}
	}
	out.Layer["serve.key_us"] = float64(time.Since(t)) / float64(rounds*len(reqs)) / 1e3

	// Responses as the handler encodes them.
	byKey := map[resultcache.Key][]byte{}
	var resps []serve.Response
	for i, e := range entries {
		if first[i] != i || tableau[i] == nil {
			continue
		}
		byKey[e.Key] = tableau[i]
	}
	for _, e := range hotReqs {
		var resp serve.Response
		if err := json.Unmarshal(byKey[e.Key], &resp); err != nil {
			return fmt.Errorf("decoding a served response: %w", err)
		}
		resps = append(resps, resp)
	}
	t = time.Now()
	for r := 0; r < rounds; r++ {
		for i := range resps {
			if err := json.NewEncoder(io.Discard).Encode(&resps[i]); err != nil {
				return err
			}
		}
	}
	out.Layer["serve.encode_us"] = float64(time.Since(t)) / float64(rounds*len(resps)) / 1e3

	hot := resultcache.New[[]byte](resultcache.Config{})
	for k, v := range byKey {
		hot.Put(k, v, resultcache.Meta{Size: len(v), Cost: 1, Store: true})
	}
	t = time.Now()
	for r := 0; r < rounds; r++ {
		for _, k := range keys {
			if _, ok := hot.Get(k); !ok {
				return fmt.Errorf("warm cache lost a key")
			}
		}
	}
	out.Layer["resultcache.get_ns"] = float64(time.Since(t)) / float64(rounds*len(keys))

	order, err := coldOrder(seed)
	if err != nil {
		return err
	}
	cold := resultcache.New[[]byte](resultcache.Config{MaxEntries: coldCacheEntries})
	t = time.Now()
	for _, e := range order {
		cold.Put(e.Key, e.Body, resultcache.Meta{Size: len(e.Body), Cost: 1, Store: true})
	}
	out.Layer["resultcache.put_ns"] = float64(time.Since(t)) / float64(len(order))
	out.Counts["direct.put_evictions"] = cold.Stats().Evictions

	rg, err := ring.New(urls, ring.Config{})
	if err != nil {
		return err
	}
	n := 0
	t = time.Now()
	for r := 0; r < rounds*10; r++ {
		for _, k := range keys {
			n += len(rg.Owners(k[:], len(urls)))
		}
	}
	out.Layer["ring.owners_ns"] = float64(time.Since(t)) / float64(rounds*10*len(keys))

	// Hits through each key's owning peer's own handler, minus what
	// building the request and recorder costs.
	handlers := map[string]http.Handler{}
	for i, u := range urls {
		handlers[u] = peers[i].srv.Handler()
	}
	owner := make([]http.Handler, len(hotReqs))
	for i, e := range hotReqs {
		owner[i] = handlers[rg.Owner(e.Key[:])]
	}
	noop := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {})
	allocs := func(h func(i int) http.Handler, check bool) float64 {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i, e := range hotReqs {
			w := httptest.NewRecorder()
			h(i).ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(e.Body)))
			if check && w.Header().Get("X-Cache") != "hit" {
				return -1
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs - before.Mallocs)
	}
	own := func(i int) http.Handler { return owner[i] }
	allocs(own, false) // warm up
	hits := allocs(own, true)
	if !out.check(hits >= 0, "a hot request missed its owner's cache") {
		return nil
	}
	base := allocs(func(int) http.Handler { return noop }, false)
	out.Layer["serve.hit_allocs"] = (hits - base) / float64(len(hotReqs))
	return nil
}
