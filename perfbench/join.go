package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"atgis"
	"atgis/internal/geom"
	"atgis/internal/geom/kernel"
	"atgis/internal/join"
	"atgis/internal/partition"
	"atgis/internal/pipeline"
	"atgis/internal/query"
	"atgis/internal/wkt"
)

// paritySpec is the parity-mask join (even ids against odd ids) the
// server runs for mask "parity".
func paritySpec() atgis.JoinSpec {
	return atgis.JoinSpec{CellSize: joinCell, BoundsSafeMask: true, Mask: func(f *geom.Feature) uint8 {
		if f.ID%2 == 0 {
			return query.SideA
		}
		return query.SideB
	}}
}

// joinOut is the outcome of one drained join stream.
type joinOut struct {
	lat, ttfr time.Duration
	pairs     int64
	hash      uint64
	sum       *atgis.JoinResult
	err       error
}

func joinOp(ctx context.Context, eng *atgis.Engine, src atgis.Source, tr *tracer, req int64) joinOut {
	var o joinOut
	t0 := time.Now()
	root := tr.begin("join.op", 0, req)
	sp := tr.begin("atgis.Engine.JoinStream", root, req)
	jp := eng.JoinStream(ctx, src, paritySpec(), atgis.Options{})
	for jp.Next() {
		if o.pairs == 0 {
			o.ttfr = time.Since(t0)
		}
		p := jp.Pair()
		o.hash += pairHash(p.AID, p.BID)
		o.pairs++
	}
	tr.end(sp)
	o.sum, o.err = jp.Summary()
	o.lat = time.Since(t0)
	tr.end(root)
	if o.pairs == 0 {
		o.ttfr = o.lat
	}
	return o
}

// runJoin is join-dense: a closed-loop client drains an unordered
// parity-mask JoinStream over a dense WKT file.
func runJoin(a *args) (*result, error) {
	path, data, err := writeInput(a.dir, "join.wkt", joinConfig(a.seed), true)
	if err != nil {
		return nil, err
	}
	feats, err := oracleWKT(data)
	if err != nil {
		return nil, err
	}
	wantPairs, wantHash := expectJoin(feats)
	size := mib(len(data))
	feats, data = nil, nil
	check := func(o joinOut) error {
		if o.err != nil {
			return o.err
		}
		if o.pairs != wantPairs || o.hash != wantHash {
			return &mismatchError{fmt.Errorf("join streamed %d pairs hash %x, oracle %d pairs hash %x", o.pairs, o.hash, wantPairs, wantHash)}
		}
		return nil
	}

	ctx := context.Background()
	workers := runtime.GOMAXPROCS(0)
	res := newResult()
	var src *atgis.MappedSource
	var eng *atgis.Engine
	setups := make([]float64, setupReps)
	for rep := range setups {
		if eng != nil {
			eng.Close()
			src.Close()
		}
		t0 := time.Now()
		if src, err = atgis.OpenMapped(path, atgis.WKT); err != nil {
			return nil, err
		}
		eng = atgis.NewEngine(atgis.EngineConfig{Workers: workers})
		o := joinOp(ctx, eng, src, nil, -1)
		setups[rep] = time.Since(t0).Seconds()
		if err := check(o); err != nil {
			eng.Close()
			src.Close()
			return nil, fmt.Errorf("set-up op: %w", err)
		}
	}
	defer src.Close()
	defer eng.Close()
	res.e2e["setup_s"] = median(setups)
	res.note("input %.2f MiB WKT, %d features, cell %g°, %d workers; oracle %d pairs; set-up (open+engine+first op) %v s",
		size, joinFeatures, joinCell, workers, wantPairs, setups)

	var tr *tracer
	if a.trace {
		tr = newTracer()
	}
	var st opStats
	var parts, sweeps []float64
	var cands, refined, dups, reparses, hits, pairs int64
	runtime.GC()
	hs := startHeapSampler(5 * time.Millisecond)
	rc0, es0 := readRuntime(), eng.Stats()
	start := time.Now()
	for i := 0; time.Since(start) < a.seconds; i++ {
		var t *tracer
		if i%2 == 1 {
			t = tr
		}
		o := joinOp(ctx, eng, src, t, int64(i))
		res.attempted++
		if err := check(o); err != nil {
			res.failed++
			if _, ok := err.(*mismatchError); ok {
				res.mismatches++
			}
			res.note("op %d failed: %v", i, err)
			continue
		}
		st.add(o.lat, o.ttfr, t != nil, size)
		ps := o.sum.PartitionStats
		st.split = append(st.split, ms(ps.SplitTime))
		st.process = append(st.process, ms(ps.ProcessTime))
		st.merge = append(st.merge, ms(ps.MergeTime))
		st.blocks += ps.Blocks
		parts = append(parts, ms(ps.WallTime))
		sweeps = append(sweeps, ms(o.lat-ps.WallTime))
		js := o.sum.JoinStats
		cands += js.Candidates
		refined += js.Refined
		dups += js.Duplicates
		reparses += js.Reparses
		hits += js.CacheHits
		pairs += o.pairs
	}
	wall := time.Since(start)
	res.e2e["peak_heap_mb"] = hs.finish()
	st.fill(res, wall, readRuntime().sub(rc0))
	res.layer["pipeline.sched_locality_hit_ratio"] = localityRatio(es0, eng.Stats())
	if k := float64(len(parts)); k > 0 {
		res.layer["join.partition_ms"] = median(parts)
		res.layer["join.sweep_ms"] = median(sweeps)
		res.layer["join.candidates_per_op"] = float64(cands) / k
		res.layer["join.refined_per_candidate"] = float64(refined) / float64(cands)
		res.layer["join.duplicates_per_pair"] = float64(dups) / float64(pairs)
		res.layer["join.cache_hit_ratio"] = float64(hits) / float64(hits+reparses)
		res.note("per op: %.0f candidates, %.0f refined, %.0f duplicates, %.0f reparses, %.0f cache hits",
			float64(cands)/k, float64(refined)/k, float64(dups)/k, float64(reparses)/k, float64(hits)/k)
	}
	if !a.trace {
		return res, nil
	}
	res.tr = tr
	return res, joinLadder(res, tr, path)
}

// wktReparser rebuilds a geometry from its line offset, as the engine's
// WKT join does.
func wktReparser(data []byte) join.Reparser {
	return func(off int64) (geom.Geometry, error) {
		end := off
		for end < int64(len(data)) && data[end] != '\n' {
			end++
		}
		f, err := wkt.ParseLine(data[off:end], off)
		return f.Geom, err
	}
}

// joinLadder is the traced part of join-dense: split → WKT parse →
// partition insert → join sweep → JoinStream → HTTP NDJSON, single
// worker, plus direct timings of the pair kernel.
func joinLadder(res *result, tr *tracer, path string) error {
	src, err := atgis.OpenMapped(path, atgis.WKT)
	if err != nil {
		return err
	}
	defer src.Close()
	eng := atgis.NewEngine(atgis.EngineConfig{Workers: 1})
	defer eng.Close()
	hs, err := startHTTP(atgis.EngineConfig{Workers: 1}, path)
	if err != nil {
		return err
	}
	defer hs.close()
	body, _ := json.Marshal(map[string]any{"source": "data", "cell": joinCell, "mask": "parity"})
	data := src.Bytes()
	n := int64(len(data))
	ctx := context.Background()

	var blocks []pipeline.Block
	var feats []geom.Feature
	var extent geom.Box
	split := func(p int, rep int64) {
		timed(tr, "wkt.SplitLines", p, rep, func() { blocks = pipeline.BlocksFromCuts(n, wkt.SplitLines(data, blockSize)) })
	}
	parse := func(p int, rep int64) error {
		split(p, rep)
		feats, extent = feats[:0], geom.EmptyBox()
		for _, b := range blocks {
			var err error
			timed(tr, "wkt.ParseLine", p, rep, func() {
				err = wkt.EachLine(data, b.Start, b.End, func(line []byte, off int64) error {
					f, err := wkt.ParseLine(line, off)
					if err == nil {
						feats = append(feats, f)
						extent = extent.Union(f.Geom.Bound())
					}
					return err
				})
			})
			if err != nil {
				return err
			}
		}
		return nil
	}
	var sets [2]*partition.Set
	partitionAll := func(p int, rep int64) error {
		if err := parse(p, rep); err != nil {
			return err
		}
		grid := partition.NewGrid(extent, joinCell)
		sets = [2]*partition.Set{partition.NewSet(grid, partition.ArrayStore), partition.NewSet(grid, partition.ArrayStore)}
		timed(tr, "partition.Set.Insert", p, rep, func() {
			for i := range feats {
				f := &feats[i]
				sets[f.ID%2].Insert(partition.Entry{Box: f.Geom.Bound(), Off: f.Offset, ID: f.ID})
			}
		})
		return nil
	}
	rungs := []rung{
		{"boundary", func(p int, rep int64) error { split(p, rep); return nil }},
		{"parse", parse},
		{"partition", partitionAll},
		{"sweep", func(p int, rep int64) error {
			if err := partitionAll(p, rep); err != nil {
				return err
			}
			var err error
			re := wktReparser(data)
			timed(tr, "join.RunStream", p, rep, func() {
				_, err = join.RunStream(sets[0], sets[1], join.Config{
					Predicate: geom.Intersects, ReparseA: re, ReparseB: re, Workers: 1, KernelRefine: true,
				}, func(join.Pair) {})
			})
			return err
		}},
		{"stream", func(p int, rep int64) error {
			var o joinOut
			timed(tr, "atgis.Engine.JoinStream", p, rep, func() { o = joinOp(ctx, eng, src, nil, rep) })
			return o.err
		}},
		{"encode", func(p int, rep int64) error {
			var err error
			timed(tr, "http.POST /v1/join", p, rep, func() { err = hs.drain(ctx, "/v1/join", body) })
			return err
		}},
	}
	l, err := runLadder(tr, "ladder", rungs)
	if err != nil {
		return err
	}
	l.fill(res, l.cum[len(l.cum)-2])
	size := mib(len(data))
	res.layer["wkt.parse_ns_per_mb"] = l.call("parse", "wkt.ParseLine") * 1e6 / size
	if len(feats) > 0 {
		res.layer["partition.insert_ns_per_feature"] = l.call("partition", "partition.Set.Insert") * 1e6 / float64(len(feats))
		res.layer["partition.entries_per_feature"] = float64(sets[0].Len()+sets[1].Len()) / float64(len(feats))
	}

	// Pair kernel: every bbox candidate of the sweep, refined with the
	// batched kernels the join uses.
	of := make([]ofeat, len(feats))
	for i, f := range feats {
		of[i] = ofeat{id: f.ID, off: f.Offset, g: f.Geom, box: f.Geom.Bound()}
	}
	var ca, cb []geom.Geometry
	sweepCandidates(of, func(a, b *ofeat) { ca, cb = append(ca, a.g), append(cb, b.g) })
	sc := kernel.AcquireScratch()
	res.layer["kernel.pair_ns_per_candidate"] = perCall(tr, "kernel.Intersects", len(ca), func() {
		for i := range ca {
			kernel.Intersects(ca[i], cb[i], sc)
		}
	})
	kernel.ReleaseScratch(sc)
	numparseLayer(res, tr, data, false)
	return nil
}
