package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"atgis"
	"atgis/internal/geom"
	"atgis/internal/query"
)

// setupReps is how many times a run sets the program up afresh;
// setup_s is the median, the last set-up serves the timed loop.
const setupReps = 7

// scanWindows is the length of the seeded window cycle of scan-pat; each
// window covers scanWindowFrac of the world extent.
const (
	scanWindows    = 32
	scanWindowFrac = 0.25
)

// scanFiles is how many seeded files a scan run cycles over. The op time
// of one file depends on its bytes (up to ±10% from file to file at equal
// size), so a run that sees several files varies less across seeds than
// one that sees a single file.
const scanFiles = 4

// scanSetup is the program-side state of a scan workload.
type scanSetup struct {
	srcs []*atgis.MappedSource
	eng  *atgis.Engine
	pqs  []*atgis.PreparedQuery
}

func (s *scanSetup) close() {
	s.eng.Close()
	for _, src := range s.srcs {
		src.Close()
	}
}

func containmentSpec(win geom.Box) *query.Spec {
	return &query.Spec{Kind: query.Containment, Ref: win.AsPolygon(), Pred: query.PredIntersects}
}

// openScan maps the files, starts an engine with workers and prepares
// one PAT containment query per window.
func openScan(paths []string, workers int, wins []geom.Box) (*scanSetup, error) {
	s := &scanSetup{eng: atgis.NewEngine(atgis.EngineConfig{Workers: workers})}
	for _, p := range paths {
		src, err := atgis.OpenMapped(p, atgis.GeoJSON)
		if err != nil {
			s.close()
			return nil, err
		}
		s.srcs = append(s.srcs, src)
	}
	for _, w := range wins {
		pq, err := s.eng.Prepare(containmentSpec(w), atgis.Options{Mode: atgis.PAT})
		if err != nil {
			s.close()
			return nil, err
		}
		s.pqs = append(s.pqs, pq)
	}
	return s, nil
}

// scanOut is the outcome of one drained containment stream.
type scanOut struct {
	lat, ttfr time.Duration
	got       expect
	sum       *atgis.Result
	err       error
}

// check compares a streamed outcome with the oracle's expectation.
func (o *scanOut) check(want expect) error {
	if o.got.matched != want.matched || o.got.scanned != want.scanned || o.got.hash != want.hash {
		return fmt.Errorf("got matched=%d scanned=%d hash=%x, oracle matched=%d scanned=%d hash=%x",
			o.got.matched, o.got.scanned, o.got.hash, want.matched, want.scanned, want.hash)
	}
	return nil
}

// scanOp streams pq over src, draining every match.
func scanOp(ctx context.Context, pq *atgis.PreparedQuery, src atgis.Source, tr *tracer, req int64) scanOut {
	var o scanOut
	t0 := time.Now()
	root := tr.begin("scan.op", 0, req)
	sp := tr.begin("atgis.PreparedQuery.Stream", root, req)
	r := pq.Stream(ctx, src)
	var streamed int64
	for r.Next() {
		if streamed == 0 {
			o.ttfr = time.Since(t0)
		}
		f := r.Feature()
		o.got.hash += recHash(f.ID, f.Offset, "")
		streamed++
	}
	tr.end(sp)
	sum, err := r.Summary()
	o.lat = time.Since(t0)
	tr.end(root)
	if streamed == 0 {
		o.ttfr = o.lat
	}
	if err != nil {
		o.err = err
		return o
	}
	if sum.Res.Count != streamed {
		o.err = fmt.Errorf("summary counts %d matches, stream delivered %d", sum.Res.Count, streamed)
		return o
	}
	o.got.matched, o.got.scanned, o.sum = streamed, sum.Res.Scanned, sum
	return o
}

// opStats accumulates the per-op counters a closed loop reports.
type opStats struct {
	lats, ttfrs            []float64 // ms, successful ops
	mib                    float64   // input MiB of the successful ops
	traced, untraced       []float64 // ms, by tracing state (traced runs)
	split, process, merge  []float64 // ms, pipeline phases
	blocks, repaired, repr int
	matched, scanned       int64
}

func (s *opStats) add(lat, ttfr time.Duration, traced bool, inputMiB float64) {
	s.mib += inputMiB
	s.lats = append(s.lats, ms(lat))
	s.ttfrs = append(s.ttfrs, ms(ttfr))
	if traced {
		s.traced = append(s.traced, ms(lat))
	} else {
		s.untraced = append(s.untraced, ms(lat))
	}
}

func (s *opStats) addResult(r *atgis.Result) {
	s.split = append(s.split, ms(r.Stats.SplitTime))
	s.process = append(s.process, ms(r.Stats.ProcessTime))
	s.merge = append(s.merge, ms(r.Stats.MergeTime))
	s.blocks += r.Stats.Blocks
	s.repaired += r.Repaired
	s.repr += r.Reprocessed
	s.matched += r.Res.Count
	s.scanned += r.Res.Scanned
}

// fill writes the end-to-end and loop-derived per-layer metrics.
func (s *opStats) fill(res *result, wall time.Duration, rc runtimeCounters) {
	n := float64(len(s.lats))
	res.e2e["throughput_mb_s"] = s.mib / wall.Seconds()
	res.e2e["ops_per_s"] = n / wall.Seconds()
	res.e2e["latency_p50_ms"] = median(s.lats)
	tv, pct := tail(s.lats)
	res.e2e["latency_tail_ms"] = tv
	res.e2e["ttfr_p50_ms"] = median(s.ttfrs)
	res.note("ops %d in %.2fs; latency p50 %.3f ms, p%.1f %.3f ms (tail = highest percentile with ≥%d samples beyond it)",
		len(s.lats), wall.Seconds(), median(s.lats), pct, tv, tailSamples)
	if len(s.traced) > 0 && len(s.untraced) > 0 {
		u := median(s.untraced)
		res.layer["trace.overhead_pct"] = 100 * (median(s.traced) - u) / u
	}
	if len(s.split) > 0 {
		k := float64(len(s.split))
		res.layer["pipeline.split_ms"] = median(s.split)
		res.layer["pipeline.process_ms"] = median(s.process)
		res.layer["pipeline.merge_ms"] = median(s.merge)
		res.layer["pipeline.blocks_per_op"] = float64(s.blocks) / k
		res.layer["pipeline.repaired_blocks_per_op"] = float64(s.repaired) / k
		res.layer["pipeline.reprocessed_blocks_per_op"] = float64(s.repr) / k
	}
	if s.scanned > 0 {
		res.layer["query.match_ratio"] = float64(s.matched) / float64(s.scanned)
	}
	if n > 0 {
		res.layer["runtime.allocs_per_op"] = float64(rc.allocObjects) / n
		res.layer["runtime.alloc_bytes_per_op"] = float64(rc.allocBytes) / n
		res.layer["runtime.gc_cycles_per_op"] = float64(rc.gcCycles) / n
	}
}

// localityRatio is the scheduler's locality hit ratio between two
// snapshots.
func localityRatio(before, after atgis.EngineStats) float64 {
	if before.Scheduler == nil || after.Scheduler == nil {
		return 0
	}
	h := float64(after.Scheduler.LocalityHits - before.Scheduler.LocalityHits)
	m := float64(after.Scheduler.LocalityMisses - before.Scheduler.LocalityMisses)
	if h+m == 0 {
		return 0
	}
	return h / (h + m)
}

// runScan is scan-pat: a closed-loop client streams a seeded cycle of
// containment windows over mapped GeoJSON files in PAT mode and drains
// every match.
func runScan(a *args) (*result, error) {
	wins := windows(rand.New(rand.NewSource(subSeed(a.seed, streamWindows))), scanWindows, scanWindowFrac)
	var paths []string
	var sizes []float64
	exp := make([][]expect, scanFiles) // file → window → expectation
	for f := range exp {
		path, data, err := writeInput(a.dir, fmt.Sprintf("scan%d.geojson", f), geojsonConfig(a.seed, f, scanFeatures), false)
		if err != nil {
			return nil, err
		}
		feats, err := oracleGeoJSON(data)
		if err != nil {
			return nil, err
		}
		for _, w := range wins {
			exp[f] = append(exp[f], expectWindow(feats, w, false))
		}
		paths, sizes = append(paths, path), append(sizes, mib(len(data)))
	}

	ctx := context.Background()
	workers := runtime.GOMAXPROCS(0)
	res := newResult()
	var sc *scanSetup
	var err error
	setups := make([]float64, setupReps)
	for rep := range setups {
		if sc != nil {
			sc.close()
		}
		t0 := time.Now()
		if sc, err = openScan(paths, workers, wins); err != nil {
			return nil, err
		}
		// The first answer from each raw file belongs to set-up.
		for f, src := range sc.srcs {
			o := scanOp(ctx, sc.pqs[0], src, nil, -1)
			if err := o.err; err == nil {
				err = o.check(exp[f][0])
			}
			if err != nil {
				sc.close()
				return nil, fmt.Errorf("set-up op: %w", err)
			}
		}
		setups[rep] = time.Since(t0).Seconds()
	}
	defer sc.close()
	res.e2e["setup_s"] = median(setups)
	res.note("input %d GeoJSON files of %d features (%.2f MiB each), PAT, %d workers; set-up (open+engine+prepare+first op per file) %v s",
		scanFiles, scanFeatures, sizes[0], workers, setups)

	var tr *tracer
	if a.trace {
		tr = newTracer()
	}
	var st opStats
	runtime.GC()
	hs := startHeapSampler(5 * time.Millisecond)
	rc0, es0 := readRuntime(), sc.eng.Stats()
	start := time.Now()
	for i := 0; time.Since(start) < a.seconds; i++ {
		var t *tracer
		if i%2 == 1 {
			t = tr // traced runs alternate traced and untraced ops
		}
		f, w := i%scanFiles, (i/scanFiles)%len(wins)
		o := scanOp(ctx, sc.pqs[w], sc.srcs[f], t, int64(i))
		res.attempted++
		if o.err != nil {
			res.failed++
			res.note("op %d failed: %v", i, o.err)
			continue
		}
		if err := o.check(exp[f][w]); err != nil {
			res.failed++
			res.mismatches++
			res.note("op %d disagrees with the oracle: %v", i, err)
			continue
		}
		st.add(o.lat, o.ttfr, t != nil, sizes[f])
		st.addResult(o.sum)
	}
	wall := time.Since(start)
	res.e2e["peak_heap_mb"] = hs.finish()
	st.fill(res, wall, readRuntime().sub(rc0))
	res.layer["pipeline.sched_locality_hit_ratio"] = localityRatio(es0, sc.eng.Stats())
	if !a.trace {
		return res, nil
	}
	res.tr = tr
	if err := scanLadder(res, tr, paths[0], wins[0]); err != nil {
		return nil, err
	}
	return res, servePhase(res, tr, a.seed, paths[0])
}
