package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"atgis"
	"atgis/internal/geom"
	"atgis/internal/query"
	"atgis/internal/server"
	"atgis/internal/sidecar"
	"atgis/internal/synth"
)

// Serving traffic. The rate is fixed at about a sixth of the measured
// capacity of a 2-core host for this mix (~130 requests/s with every
// connection busy, ~20% CPU busy at this rate), so queues form only in
// bursts and a host that slows down twofold still keeps up.
const (
	serveRate          = 20.0 // requests per second, Poisson arrivals
	serveBatchShare    = 0.2  // share of requests from the batch tenant
	interactiveWinFrac = 0.01 // interactive window area share of the world
	batchWinFrac       = 0.25
	interactiveWindows = 32
	batchWindows       = 32
	// Latency limits (from the due time) for slo_miss_rate.
	interactiveLimit = 50 * time.Millisecond
	batchLimit       = 500 * time.Millisecond
	// requestTimeout bounds every request; an expired one fails typed.
	requestTimeout = 10 * time.Second
)

// Tenant weights 3:1 drive both admission and the worker scheduler.
var serveWeights = map[string]int{"interactive": 3, "batch": 1}

// httpServer is an in-process atgis server on a loopback listener
// serving one mapped file as source "data".
type httpServer struct {
	eng    *atgis.Engine
	src    *atgis.MappedSource
	srv    *server.Server
	hs     *http.Server
	base   string
	client *http.Client
	done   chan error
}

// startHTTP maps path, starts an engine with cfg and serves it.
func startHTTP(cfg atgis.EngineConfig, path string) (*httpServer, error) {
	src, err := atgis.OpenMapped(path, atgis.AutoDetect)
	if err != nil {
		return nil, err
	}
	eng := atgis.NewEngine(cfg)
	srv := server.New(server.Config{Engine: eng, DefaultTimeout: requestTimeout})
	if err := srv.RegisterSource("data", src, path); err != nil {
		eng.Close()
		src.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		eng.Close()
		return nil, err
	}
	conns := runtime.GOMAXPROCS(0)
	h := &httpServer{
		eng: eng, src: src, srv: srv,
		hs:   &http.Server{Handler: srv.Handler()},
		base: "http://" + ln.Addr().String(),
		client: &http.Client{Timeout: requestTimeout, Transport: &http.Transport{
			MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}},
		done: make(chan error, 1),
	}
	go func() { h.done <- h.hs.Serve(ln) }()
	return h, nil
}

// close stops the listener, waits for the serve loop and in-flight
// handlers, then releases the source and the engine.
func (h *httpServer) close() {
	h.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := h.hs.Shutdown(ctx); err != nil {
		h.hs.Close()
	}
	<-h.done
	h.srv.Close()
	h.eng.Close()
}

// ndRecord is any NDJSON record of /v1/query or /v1/join.
type ndRecord struct {
	Type       string            `json:"type"`
	ID         int64             `json:"id"`
	Offset     int64             `json:"offset"`
	Properties map[string]string `json:"properties"`
	AID        int64             `json:"a_id"`
	BID        int64             `json:"b_id"`
	Matched    int64             `json:"matched"`
	Scanned    int64             `json:"scanned"`
	SumArea    float64           `json:"sum_area"`
	Kind       string            `json:"kind"`
	Error      string            `json:"error"`
}

// httpOut is the outcome of one drained NDJSON response.
type httpOut struct {
	first, end time.Time
	records    int64  // feature or pair records
	hash       uint64 // recHash / pairHash summed over the records
	summary    ndRecord
	bytes      int64
	err        error
}

// post sends body and drains the NDJSON stream. withName folds each
// feature's "name" property into the record hash.
func (h *httpServer) post(ctx context.Context, path, tenant string, body []byte, withName bool) httpOut {
	var o httpOut
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, h.base+path, bytes.NewReader(body))
	if err != nil {
		o.err = err
		return o
	}
	if tenant != "" {
		req.Header.Set("X-Atgis-Tenant", tenant)
	}
	resp, err := h.client.Do(req)
	if err != nil {
		o.err = err
		o.end = time.Now()
		return o
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		o.err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
		o.end = time.Now()
		return o
	}
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	gotSummary := false
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			if o.first.IsZero() {
				o.first = time.Now()
			}
			o.bytes += int64(len(line))
			var r ndRecord
			if jerr := json.Unmarshal(line, &r); jerr != nil {
				o.err = fmt.Errorf("bad record %.80q: %w", line, jerr)
				break
			}
			switch r.Type {
			case "feature":
				name := ""
				if withName {
					name = r.Properties["name"]
				}
				o.hash += recHash(r.ID, r.Offset, name)
				o.records++
			case "pair":
				o.hash += pairHash(r.AID, r.BID)
				o.records++
			case "summary":
				o.summary, gotSummary = r, true
			case "error":
				o.err = fmt.Errorf("in-band %s error: %s", r.Kind, r.Error)
			}
		}
		if err != nil {
			if !errors.Is(err, io.EOF) && o.err == nil {
				o.err = err
			}
			break
		}
	}
	o.end = time.Now()
	if o.err == nil && !gotSummary {
		o.err = fmt.Errorf("stream ended without a summary")
	}
	return o
}

// drain posts body and reads the response to its end without decoding
// it, so a ladder rung times the server's encoding, not the client's.
func (h *httpServer) drain(ctx context.Context, path string, body []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, h.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	n, err := io.CopyBuffer(io.Discard, resp.Body, make([]byte, 64<<10))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK || n == 0 {
		return fmt.Errorf("status %d, %d bytes", resp.StatusCode, n)
	}
	return nil
}

// queryBody builds a /v1/query request body.
func queryBody(win geom.Box, kind, mode string, want, props []string) []byte {
	b, _ := json.Marshal(map[string]any{
		"source": "data", "kind": kind, "mode": mode,
		"ref":  []float64{win.MinX, win.MinY, win.MaxX, win.MaxY},
		"want": want, "prop_keys": props,
	})
	return b
}

// arrival is one scheduled request of the open loop.
type arrival struct {
	due   time.Duration // since the loop's start
	batch bool
	win   int // index into the tenant's window cycle
}

// poissonSchedule draws the arrivals of a Poisson process at rate per
// second over d, conditioned on its expected count: rate·d arrival times
// uniform over d, sorted. A batchShare of them, at random positions, are
// batch requests; windows are taken in a fixed cycle per tenant. Fixing
// the counts keeps Poisson bursts while removing the run-to-run spread
// of the offered load itself.
func poissonSchedule(rng *rand.Rand, rate float64, d time.Duration, batchShare float64) []arrival {
	n := int(rate * d.Seconds())
	at := make([]float64, n)
	for i := range at {
		at[i] = rng.Float64() * float64(d)
	}
	sort.Float64s(at)
	batch := make([]bool, n)
	for i := 0; i < int(math.Round(batchShare*float64(n))); i++ {
		batch[i] = true
	}
	rng.Shuffle(n, func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
	out := make([]arrival, n)
	ni, nb := 0, 0
	for i := range out {
		out[i] = arrival{due: time.Duration(at[i]), batch: batch[i]}
		if batch[i] {
			out[i].win, nb = nb%batchWindows, nb+1
		} else {
			out[i].win, ni = ni%interactiveWindows, ni+1
		}
	}
	return out
}

// sent is the client-side timing of one open-loop request.
type sent struct {
	due, send, first, end time.Time
	lag                   time.Duration // how late an idle sender woke for it
	idle                  bool          // the sender was waiting when it fell due
	err                   error
}

// openLoop issues every arrival at its due time over conns senders, in
// due order. A request that falls due while every sender is busy goes
// out as soon as one frees up; its latency still counts from the due
// time, so a stall shows in every request it delays.
func openLoop(start time.Time, sched []arrival, conns int, do func(i int, due time.Time) (first, end time.Time, err error)) []sent {
	out := make([]sent, len(sched))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				s := &out[i]
				s.due = start.Add(sched[i].due)
				if d := time.Until(s.due); d > 0 {
					time.Sleep(d)
					s.idle = true
				}
				s.send = time.Now()
				if s.idle {
					s.lag = s.send.Sub(s.due)
				}
				s.first, s.end, s.err = do(i, s.due)
				if s.first.IsZero() {
					s.first = s.end
				}
			}
		}()
	}
	wg.Wait()
	return out
}

// serveSetup starts the server and runs the first, sidecar-recording
// pass over the whole source, returning the server and that pass's time.
func serveSetup(path string, want expect) (*httpServer, time.Duration, error) {
	h, err := startHTTP(atgis.EngineConfig{
		Workers: runtime.GOMAXPROCS(0), MaxInFlight: runtime.GOMAXPROCS(0), TenantQueue: 16,
		TenantWeights: serveWeights, Sidecar: atgis.SidecarReadWrite,
	}, path)
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	o := h.post(context.Background(), "/v1/query", "batch", queryBody(synth.Extent, "aggregation", "", []string{"area"}, nil), false)
	rec := time.Since(t0)
	if o.err == nil {
		o.err = checkAggregation(o, want)
	}
	if o.err == nil && h.src.SidecarStats().State != "active" {
		o.err = fmt.Errorf("first pass did not record a sidecar: %+v", h.src.SidecarStats())
	}
	if o.err != nil {
		h.close()
		return nil, 0, fmt.Errorf("sidecar-recording pass: %w", o.err)
	}
	return h, rec, nil
}

func checkAggregation(o httpOut, want expect) error {
	s := o.summary
	if s.Matched != want.matched || s.Scanned != want.scanned || s.SumArea != want.sumArea {
		return fmt.Errorf("aggregation matched=%d scanned=%d sum_area=%v, oracle %d/%d/%v",
			s.Matched, s.Scanned, s.SumArea, want.matched, want.scanned, want.sumArea)
	}
	return nil
}

func checkContainment(o httpOut, want expect) error {
	s := o.summary
	if o.records != want.matched || s.Matched != want.matched || s.Scanned != want.scanned || o.hash != want.hash {
		return fmt.Errorf("containment streamed=%d matched=%d scanned=%d hash=%x, oracle %d/%d hash=%x",
			o.records, s.Matched, s.Scanned, o.hash, want.matched, want.scanned, want.hash)
	}
	return nil
}

// serveMix is the request cycle of the serving phase and its expectations.
type serveMix struct {
	iBodies, bBodies [][]byte
	iWins, bWins     []geom.Box
	iExp, bExp       []expect
}

func (m *serveMix) request(a arrival) (tenant string, body []byte) {
	if a.batch {
		return "batch", m.bBodies[a.win]
	}
	return "interactive", m.iBodies[a.win]
}

func (m *serveMix) check(a arrival, o httpOut) error {
	if a.batch {
		return checkAggregation(o, m.bExp[a.win])
	}
	return checkContainment(o, m.iExp[a.win])
}

// servePhaseSeconds is how long scan-pat's traced run drives the server.
const servePhaseSeconds = 10

// servePhase is the serving part of scan-pat's traced run: the
// in-process server (admission on, SidecarReadWrite, warm after its
// sidecar-recording first pass) over the scan's first file, driven open
// loop by seeded Poisson arrivals of interactive streamed containment and
// batch aggregations from two weighted tenants, every response checked
// against the oracle. It reports the admission, scheduler, sidecar, server
// and load-generator layers; served ops count in attempted and failed.
//
// Serving has no end-to-end workload of its own: its millisecond requests
// magnify every stall of a shared virtual machine, and in ten-seed rounds
// their median and tail latency spread 0.3–0.7 of the median, past any
// bound allowed.
func servePhase(res *result, tr *tracer, seed int64, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(subSeed(seed, streamServe)))
	m := &serveMix{iWins: windows(rng, interactiveWindows, interactiveWinFrac), bWins: windows(rng, batchWindows, batchWinFrac)}
	feats, err := oracleGeoJSON(data)
	if err != nil {
		return err
	}
	for _, w := range m.iWins {
		m.iExp = append(m.iExp, expectWindow(feats, w, true))
		m.iBodies = append(m.iBodies, queryBody(w, "containment", "", nil, []string{"name"}))
	}
	for _, w := range m.bWins {
		m.bExp = append(m.bExp, expectWindow(feats, w, false))
		m.bBodies = append(m.bBodies, queryBody(w, "aggregation", "", []string{"area"}, nil))
	}
	full := expectWindow(feats, synth.Extent, false)
	feats, data = nil, nil

	h, rec, err := serveSetup(path, full)
	if err != nil {
		return err
	}
	defer h.close()
	res.layer["sidecar.record_s"] = rec.Seconds()
	ctx := context.Background()
	var warm []arrival // every window once, checked, untimed
	for i := range m.iBodies {
		warm = append(warm, arrival{win: i})
	}
	for i := range m.bBodies {
		warm = append(warm, arrival{batch: true, win: i})
	}
	for _, w := range warm {
		tenant, body := m.request(w)
		o := h.post(ctx, "/v1/query", tenant, body, !w.batch)
		if o.err == nil {
			o.err = m.check(w, o)
		}
		if o.err != nil {
			return fmt.Errorf("serving warm-up: %w", o.err)
		}
	}

	sched := poissonSchedule(rand.New(rand.NewSource(subSeed(seed, streamTraffic))), serveRate, servePhaseSeconds*time.Second, serveBatchShare)
	shares := startShareSampler(h.eng)
	outs := make([]httpOut, len(sched))
	es0, sc0 := h.eng.Stats(), h.src.SidecarStats()
	sends := openLoop(time.Now(), sched, runtime.GOMAXPROCS(0), func(i int, due time.Time) (time.Time, time.Time, error) {
		tenant, body := m.request(sched[i])
		o := h.post(ctx, "/v1/query", tenant, body, !sched[i].batch)
		if o.err == nil {
			if o.err = m.check(sched[i], o); o.err != nil {
				o.err = &mismatchError{o.err}
			}
		}
		outs[i] = o
		first := o.first
		if first.IsZero() {
			first = o.end
		}
		root := tr.add("serve.request", 0, int64(i), due, o.end)
		tr.add("http.first_record", root, int64(i), due, first)
		tr.add("http.drain", root, int64(i), first, o.end)
		return o.first, o.end, o.err
	})
	res.layer["pipeline.sched_share_interactive"] = shares.finish()
	es1, sc1 := h.eng.Stats(), h.src.SidecarStats()

	var lats, lags []float64
	var recs, bytesOut int64
	slo := 0
	for i, s := range sends {
		res.attempted++
		limit := interactiveLimit
		if sched[i].batch {
			limit = batchLimit
		}
		if s.err != nil {
			res.failed++
			slo++
			var mm *mismatchError
			if errors.As(s.err, &mm) {
				res.mismatches++
			}
			res.note("served request %d failed: %v", i, s.err)
			continue
		}
		lat := s.end.Sub(s.due)
		if lat > limit {
			slo++
		}
		lats = append(lats, ms(lat))
		if s.idle {
			lags = append(lags, ms(s.lag))
		}
		recs += outs[i].records
		bytesOut += outs[i].bytes
	}
	tv, pct := tail(lats)
	res.note("serving: %d requests at %.0f/s (20%% batch), latency p50 %.3f ms, p%.1f %.3f ms, slo_miss_rate %.4f",
		len(sched), serveRate, median(lats), pct, tv, float64(slo)/float64(len(sched)))
	res.layer["loadgen.slo_miss_rate"] = float64(slo) / float64(len(sched))
	res.layer["loadgen.lag_p99_ms"] = percentile(lags, 99)
	if recs > 0 {
		res.layer["server.bytes_per_record"] = float64(bytesOut) / float64(recs)
	}
	if es0.Admission != nil && es1.Admission != nil {
		res.layer["admission.admitted"] = float64(es1.Admission.Admitted - es0.Admission.Admitted)
		res.layer["admission.rejected"] = float64(es1.Admission.Rejected - es0.Admission.Rejected)
		res.layer["admission.cancelled"] = float64(es1.Admission.Cancelled - es0.Admission.Cancelled)
	}
	if hits, miss := sc1.Hits-sc0.Hits, sc1.Misses-sc0.Misses; hits+miss > 0 {
		res.layer["sidecar.hit_ratio"] = float64(hits) / float64(hits+miss)
	}
	return serveLayers(res, tr, h, m, path)
}

// mismatchError marks a response that disagreed with the oracle.
type mismatchError struct{ err error }

func (e *mismatchError) Error() string { return "oracle mismatch: " + e.err.Error() }

// serveLayers measures sidecar pruning and the server's overhead against
// the in-process engine on the same request sequence.
func serveLayers(res *result, tr *tracer, h *httpServer, m *serveMix, path string) error {
	ix, err := sidecar.Load(path)
	if err != nil {
		return err
	}
	keep := make([]bool, ix.N())
	kept := func(wins []geom.Box) float64 {
		total := 0
		for _, w := range wins {
			clear(keep)
			ix.Prune(w, keep)
			for _, k := range keep {
				if k {
					total++
				}
			}
		}
		return float64(total) / float64(len(wins)*ix.N())
	}
	res.layer["sidecar.keep_ratio"] = (1-serveBatchShare)*kept(m.iWins) + serveBatchShare*kept(m.bWins)
	all := append(append([]geom.Box(nil), m.iWins...), m.bWins...)
	res.layer["sidecar.prune_ns_per_feature"] = perCall(tr, "sidecar.Index.Prune", len(all)*ix.N(), func() {
		for _, w := range all {
			ix.Prune(w, keep)
		}
	})

	ctx := context.Background()
	var diffs []float64
	for k := 0; k < 2*interactiveWindows; k++ {
		a := arrival{batch: k%5 == 4}
		if a.batch {
			a.win = (k / 5) % batchWindows
		} else {
			a.win = k % interactiveWindows
		}
		tenant, body := m.request(a)
		t0 := time.Now()
		o := h.post(ctx, "/v1/query", tenant, body, !a.batch)
		httpT := time.Since(t0)
		if o.err != nil {
			return o.err
		}
		win, spec, opt := m.iWins, &query.Spec{Kind: query.Containment}, atgis.Options{PropKeys: []string{"name"}}
		if a.batch {
			win, spec, opt = m.bWins, &query.Spec{Kind: query.Aggregation, WantArea: true}, atgis.Options{}
		}
		spec.Ref, spec.Pred = win[a.win].AsPolygon(), query.PredIntersects
		t1 := time.Now()
		pq, err := h.eng.Prepare(spec, opt)
		if err != nil {
			return err
		}
		tctx := atgis.WithTenant(ctx, tenant)
		if a.batch {
			_, err = pq.Execute(tctx, h.src)
		} else {
			r := pq.Stream(tctx, h.src)
			for r.Next() {
			}
			_, err = r.Summary()
		}
		if err != nil {
			return err
		}
		diffs = append(diffs, ms(httpT-time.Since(t1)))
	}
	res.layer["server.overhead_p50_ms"] = median(diffs)
	return nil
}

// shareSampler estimates the interactive tenant's share of worker grants
// while both tenants have blocks queued, from scheduler snapshots.
type shareSampler struct {
	stop       chan struct{}
	wg         sync.WaitGroup
	inter, all uint64
}

func startShareSampler(eng *atgis.Engine) *shareSampler {
	s := &shareSampler{stop: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		var prev map[string]atgis.SchedulerTenantStats
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
			cur := eng.Stats().Scheduler.Tenants
			pi, ok1 := prev["interactive"]
			pb, ok2 := prev["batch"]
			ci, ok3 := cur["interactive"]
			cb, ok4 := cur["batch"]
			if ok1 && ok2 && ok3 && ok4 && pi.QueuedBlocks > 0 && pb.QueuedBlocks > 0 &&
				ci.GrantedBlocks >= pi.GrantedBlocks && cb.GrantedBlocks >= pb.GrantedBlocks {
				di, db := ci.GrantedBlocks-pi.GrantedBlocks, cb.GrantedBlocks-pb.GrantedBlocks
				s.inter += di
				s.all += di + db
			}
			prev = cur
		}
	}()
	return s
}

// finish stops sampling and returns the interactive share (0 when the
// tenants never contended).
func (s *shareSampler) finish() float64 {
	close(s.stop)
	s.wg.Wait()
	if s.all == 0 {
		return 0
	}
	return float64(s.inter) / float64(s.all)
}
