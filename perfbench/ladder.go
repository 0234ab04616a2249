package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"atgis"
	"atgis/internal/geojson"
	"atgis/internal/geom"
	"atgis/internal/geom/kernel"
	"atgis/internal/lexer"
	"atgis/internal/numparse"
	"atgis/internal/pipeline"
	"atgis/internal/query"
)

// A layer ladder runs single-threaded over the workload's own bytes. Each
// rung runs the layers of the rung below it plus one more, so rung k
// minus rung k−1 is layer k's self time. Rungs run interleaved, once per
// repetition, and each rung's time is its fastest repetition: host noise
// only ever adds time, so the minimum is the least disturbed reading.

// ladderReps is how many times every rung runs.
const ladderReps = 7

// rung is one ladder step. run records its layer calls as children of
// the rung span parent.
type rung struct {
	name string
	run  func(parent int, rep int64) error
}

// ladder holds the per-rung minima of one ladder run.
type ladder struct {
	names []string
	cum   []float64                     // ms, minimum per rung
	calls map[string]map[string]float64 // rung → layer call → ms, minimum per rung
}

// runLadder runs every rung ladderReps times under tr, on one processor:
// the engine rungs' splitter, merger and HTTP goroutines would otherwise
// overlap on a second core and read faster than the serial rungs below.
// Rung spans are named prefix.<rung>.
func runLadder(tr *tracer, prefix string, rungs []rung) (*ladder, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ids := make([][]int, len(rungs))
	for rep := int64(0); rep < ladderReps; rep++ {
		for i, r := range rungs {
			runtime.GC() // start every rung from the same heap state
			id := tr.begin(prefix+"."+r.name, 0, rep)
			err := r.run(id, rep)
			tr.end(id)
			if err != nil {
				return nil, fmt.Errorf("ladder rung %s: %w", r.name, err)
			}
			ids[i] = append(ids[i], id)
		}
	}
	spans := tr.snapshot()
	kids := childTotals(spans)
	l := &ladder{calls: map[string]map[string]float64{}}
	for i, r := range rungs {
		var tot []float64
		per := map[string][]float64{}
		for _, id := range ids[i] {
			s := spans[id-1]
			tot = append(tot, float64(s.End-s.Start)/1e6)
			for name, ns := range kids[id] {
				per[name] = append(per[name], float64(ns)/1e6)
			}
		}
		l.names = append(l.names, r.name)
		l.cum = append(l.cum, minOf(tot))
		l.calls[r.name] = map[string]float64{}
		for name, v := range per {
			l.calls[r.name][name] = minOf(v)
		}
	}
	return l, nil
}

// call returns the fastest time of a layer call inside a rung (ms).
func (l *ladder) call(rungName, callName string) float64 { return l.calls[rungName][callName] }

// fill reports each rung's self time and share of the top rung.
func (l *ladder) fill(res *result, singleWorkerOp float64) {
	self := selfTimes(l.cum)
	top := l.cum[len(l.cum)-1]
	attributed := 0.0
	var parts []string
	for i, n := range l.names {
		res.layer["ladder."+n+"_ms"] = self[i]
		res.layer["ladder."+n+"_pct"] = 100 * self[i] / top
		attributed += self[i]
		parts = append(parts, fmt.Sprintf("%s %.2f ms (%.1f%%, rung %.2f ms)", n, self[i], 100*self[i]/top, l.cum[i]))
	}
	res.layer["ladder.top_ms"] = top
	res.layer["ladder.attributed_ms"] = attributed
	res.layer["ladder.single_worker_op_ms"] = singleWorkerOp
	res.note("ladder self times: %s", strings.Join(parts, "; "))
	res.note("ladder attributed total %.2f ms, top rung %.2f ms, single-worker end-to-end op %.2f ms",
		attributed, top, singleWorkerOp)
}

// summary lists each rung's time.
func (l *ladder) summary() string {
	parts := make([]string, len(l.names))
	for i, n := range l.names {
		parts[i] = fmt.Sprintf("%s %.2f", n, l.cum[i])
	}
	return strings.Join(parts, ", ")
}

// timed runs fn as a child span of parent.
func timed(tr *tracer, name string, parent int, rep int64, fn func()) {
	id := tr.begin(name, parent, rep)
	fn()
	tr.end(id)
}

// evalConfig is the extraction config the engine builds for a prepared
// query: every parsed feature is evaluated against the normalized spec.
func evalConfig(spec *query.Spec) *geojson.Config {
	return &geojson.Config{Eval: func(f *geom.Feature) any { return query.Apply(spec, f) }}
}

// absorbSink folds evaluated features into r, as the engine's merge does.
func absorbSink(spec *query.Spec, r *query.Result) func(geojson.FeatureOut) {
	return func(f geojson.FeatureOut) {
		v, _ := f.Val.(query.FeatureVal)
		r.Absorb(spec, &f.Feature, v)
	}
}

// geojsonRungs are the single-threaded rungs from boundary finding up to
// the ordered fold, for PAT or FAT execution of a containment window.
func geojsonRungs(tr *tracer, data []byte, fat bool, win geom.Box) []rung {
	n := int64(len(data))
	spec := containmentSpec(win)
	spec.Normalize()
	noEval, withEval := &geojson.Config{}, evalConfig(spec)
	var blocks []pipeline.Block
	boundary := func(parent int, rep int64) {
		if fat {
			timed(tr, "pipeline.FixedSplitter.Split", parent, rep, func() {
				blocks = pipeline.BlocksFromCuts(n, pipeline.FixedSplitter{BlockSize: blockSize}.Split(data))
			})
			return
		}
		timed(tr, "geojson.FindFeatureBoundaries", parent, rep, func() {
			blocks = pipeline.BlocksFromCuts(n, geojson.FindFeatureBoundaries(data, blockSize))
		})
	}
	// parse runs the per-block parser of the mode with cfg; PAT skips
	// block 0, the document header the fold consumes.
	parse := func(parent int, rep int64, cfg *geojson.Config, each func(any)) {
		for _, b := range blocks {
			if fat {
				var br geojson.BlockResult
				timed(tr, "geojson.ProcessBlockFAT", parent, rep, func() { br = geojson.ProcessBlockFAT(data, b.Start, b.End, cfg) })
				if each != nil {
					each(br)
				} else {
					br.Release()
				}
				continue
			}
			if b.Index == 0 {
				continue
			}
			var br geojson.PATBlockResult
			timed(tr, "geojson.ProcessBlockPAT", parent, rep, func() { br = geojson.ProcessBlockPAT(data, b.Start, b.End, cfg) })
			if each != nil {
				each(br)
			}
		}
	}
	rungs := []rung{
		{"boundary", func(p int, rep int64) error { boundary(p, rep); return nil }},
		{"lex", func(p int, rep int64) error {
			boundary(p, rep)
			for _, b := range blocks {
				if fat {
					sp := lexer.AcquireSpeculator()
					timed(tr, "lexer.Speculator.Lex", p, rep, func() { sp.Lex(data[b.Start:b.End], b.Start) })
					lexer.ReleaseSpeculator(sp)
					continue
				}
				timed(tr, "lexer.ScanJSON", p, rep, func() {
					lexer.ScanJSON(lexer.JSONDefault, data[b.Start:b.End], b.Start, func(lexer.Token) {})
				})
			}
			return nil
		}},
		{"machine", func(p int, rep int64) error { boundary(p, rep); parse(p, rep, noEval, nil); return nil }},
		{"refine", func(p int, rep int64) error { boundary(p, rep); parse(p, rep, withEval, nil); return nil }},
		{"fold", func(p int, rep int64) error {
			boundary(p, rep)
			r := query.NewResult()
			sink := absorbSink(spec, r)
			if fat {
				fd := geojson.NewFold(data, withEval, sink)
				parse(p, rep, withEval, func(br any) {
					timed(tr, "geojson.Fold.Add", p, rep, func() { fd.Add(br.(geojson.BlockResult)) })
				})
				return fd.Finish()
			}
			fd := geojson.NewPATFold(data, withEval, sink)
			fd.Header(blocks[0].End)
			parse(p, rep, withEval, func(br any) {
				timed(tr, "geojson.PATFold.Add", p, rep, func() { fd.Add(br.(geojson.PATBlockResult)) })
			})
			return fd.Finish(n)
		}},
	}
	return rungs
}

// geojsonLayers measures the GeoJSON-path layer metrics over data: the
// PAT ladder's call minima, the FAT layer ladder's (fat, when not nil),
// and direct timings of numparse and the refinement kernel.
func geojsonLayers(res *result, tr *tracer, pat, fat *ladder, data []byte, win geom.Box) error {
	size := mib(len(data))
	perMiB := func(msv float64) float64 { return msv * 1e6 / size }
	var tokens int
	lexer.ScanJSON(lexer.JSONDefault, data, 0, func(lexer.Token) { tokens++ })
	res.layer["lexer.tokens_per_mb"] = float64(tokens) / size
	lexMs := pat.call("lex", "lexer.ScanJSON")
	res.layer["lexer.scan_ns_per_mb"] = perMiB(lexMs)
	res.layer["geojson.boundary_ns_per_mb"] = perMiB(pat.call("boundary", "geojson.FindFeatureBoundaries"))
	res.layer["geojson.machine_ns_per_mb"] = perMiB(pat.call("machine", "geojson.ProcessBlockPAT") - lexMs)
	if fat != nil {
		specMs := fat.call("lex", "lexer.Speculator.Lex")
		res.layer["lexer.speculate_ns_per_mb"] = perMiB(specMs)
		res.layer["geojson.fat_block_ns_per_mb"] = perMiB(fat.call("machine", "geojson.ProcessBlockFAT"))
		sp := lexer.AcquireSpeculator()
		variants, blocks := 0, 0
		for _, b := range pipeline.BlocksFromCuts(int64(len(data)), pipeline.FixedSplitter{BlockSize: blockSize}.Split(data)) {
			variants += len(sp.Lex(data[b.Start:b.End], b.Start))
			blocks++
		}
		lexer.ReleaseSpeculator(sp)
		res.layer["lexer.variants_per_block"] = float64(variants) / float64(blocks)
	}

	var feats []geom.Feature
	if err := geojson.ParseSequential(data, &geojson.Config{}, func(f geojson.FeatureOut) {
		feats = append(feats, f.Feature)
	}); err != nil {
		return err
	}
	res.layer["geojson.features_per_mb"] = float64(len(feats)) / size
	var cands []geom.Geometry
	for i := range feats {
		if feats[i].Geom != nil && feats[i].Geom.Bound().Intersects(win) {
			cands = append(cands, feats[i].Geom)
		}
	}
	ref := kernel.CompileRef(win.AsPolygon())
	sc := kernel.AcquireScratch()
	res.layer["kernel.refine_ns_per_feature"] = perCall(tr, "kernel.RefPoly.Intersects", len(cands), func() {
		for _, g := range cands {
			ref.Intersects(g, sc)
		}
	})
	kernel.ReleaseScratch(sc)
	numparseLayer(res, tr, data, true)
	return nil
}

// perCall repeats fn (which makes n calls) until at least 50 ms have
// passed, recording each pass as a span, and returns ns per call.
func perCall(tr *tracer, name string, n int, fn func()) float64 {
	if n == 0 {
		return 0
	}
	var total time.Duration
	calls := 0
	for total < 50*time.Millisecond {
		id := tr.begin(name, 0, -1)
		t0 := time.Now()
		fn()
		total += time.Since(t0)
		tr.end(id)
		calls += n
	}
	return float64(total.Nanoseconds()) / float64(calls)
}

// numparseLayer times numparse.Prefix over every number literal in data
// (outside JSON strings when json is set).
func numparseLayer(res *result, tr *tracer, data []byte, json bool) {
	var nums [][]byte
	inStr := false
	for i := 0; i < len(data); i++ {
		c := data[i]
		if json && inStr {
			switch c {
			case '\\':
				i++
			case '"':
				inStr = false
			}
			continue
		}
		if json && c == '"' {
			inStr = true
			continue
		}
		if (c >= '0' && c <= '9') || c == '-' {
			j := i + 1
			for j < len(data) && strings.IndexByte("0123456789.eE+-", data[j]) >= 0 {
				j++
			}
			nums = append(nums, data[i:j])
			i = j - 1
		}
	}
	res.layer["numparse.numbers_per_mb"] = float64(len(nums)) / mib(len(data))
	res.layer["numparse.prefix_ns_per_number"] = perCall(tr, "numparse.Prefix", len(nums), func() {
		for _, b := range nums {
			numparse.Prefix(b)
		}
	})
}

// scanLadder is the traced part of scan-pat: the full PAT ladder from
// boundary finding to HTTP NDJSON over the workload's first file and
// window on a single-worker engine, then the FAT layers (speculative
// lexing and ProcessBlockFAT, up to the FAT fold) over the same bytes: no
// workload runs FAT end to end, as its op time follows the host's speed
// too loosely to hold a bound.
func scanLadder(res *result, tr *tracer, path string, win geom.Box) error {
	one, err := openScan([]string{path}, 1, []geom.Box{win})
	if err != nil {
		return err
	}
	defer one.close()
	hs, err := startHTTP(atgis.EngineConfig{Workers: 1}, path)
	if err != nil {
		return err
	}
	defer hs.close()
	body := queryBody(win, "containment", "pat", nil, nil)
	data := one.srcs[0].Bytes()
	ctx := context.Background()
	rungs := append(geojsonRungs(tr, data, false, win),
		rung{"execute", func(p int, rep int64) error {
			var err error
			timed(tr, "atgis.PreparedQuery.Execute", p, rep, func() { _, err = one.pqs[0].Execute(ctx, one.srcs[0]) })
			return err
		}},
		rung{"stream", func(p int, rep int64) error {
			var o scanOut
			timed(tr, "atgis.PreparedQuery.Stream", p, rep, func() { o = scanOp(ctx, one.pqs[0], one.srcs[0], nil, rep) })
			return o.err
		}},
		rung{"encode", func(p int, rep int64) error {
			var err error
			timed(tr, "http.POST /v1/query", p, rep, func() { err = hs.drain(ctx, "/v1/query", body) })
			return err
		}},
	)
	l, err := runLadder(tr, "ladder", rungs)
	if err != nil {
		return err
	}
	l.fill(res, l.cum[len(l.cum)-2])
	fat, err := runLadder(tr, "fat", geojsonRungs(tr, data, true, win))
	if err != nil {
		return err
	}
	res.note("FAT layers over the same bytes (rung, ms): %s", fat.summary())
	return geojsonLayers(res, tr, l, fat, data, win)
}
