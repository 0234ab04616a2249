package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"testing"
	"time"

	"atgis"
	"atgis/internal/geom"
	"atgis/internal/synth"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{100, 90}, {1000, 99}, {50, 80}, {11, 100.0 / 11}, {10, 0}, {0, 0}} {
		if got := tailPercentile(c.n); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	// 1..100: exactly ten samples (91..100) lie beyond the p90 value.
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted input
	}
	v, pct := tail(xs)
	if v != 90 || pct != 90 {
		t.Errorf("tail(1..100) = %v at p%v, want 90 at p90", v, pct)
	}
	if v, pct := tail([]float64{3, 1, 2}); v != 3 || pct != 100 {
		t.Errorf("tail with too few samples = %v at p%v, want the maximum at p100", v, pct)
	}
}

func TestLadderSelfTimes(t *testing.T) {
	// Rungs are cumulative: boundary 2, +lex 10, +machine 25, then a
	// noisy rung that reads 1 ms below its predecessor, then the top.
	got := selfTimes([]float64{2, 12, 37, 36, 40})
	want := []float64{2, 10, 25, 0, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("selfTimes = %v, want %v", got, want)
		}
	}
	// Without a negative delta the self times sum to the top rung.
	sum := 0.0
	for _, s := range selfTimes([]float64{1, 4, 9}) {
		sum += s
	}
	if sum != 9 {
		t.Errorf("self times sum to %v, want the top rung 9", sum)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "op", ID: 1, Start: 0, End: 100},
		{Name: "a", ID: 2, Parent: 1, Start: 10, End: 30},
		{Name: "b", ID: 3, Parent: 1, Start: 20, End: 50},  // overlaps a
		{Name: "c", ID: 4, Parent: 1, Start: 90, End: 120}, // runs past the parent
		{Name: "d", ID: 5, Parent: 2, Start: 12, End: 18},
	}
	self := spanSelf(spans)
	if self[1] != 100-40-10 {
		t.Errorf("op self = %d, want 50", self[1])
	}
	if self[2] != 20-6 {
		t.Errorf("a self = %d, want 14", self[2])
	}
	if got := childTotals(spans)[1]["b"]; got != 30 {
		t.Errorf("child total of b = %d, want 30", got)
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	// One sender, a request due every 10 ms; the first stalls 60 ms.
	var sched []arrival
	for i := 0; i < 5; i++ {
		sched = append(sched, arrival{due: time.Duration(i) * 10 * time.Millisecond})
	}
	start := time.Now().Add(5 * time.Millisecond)
	out := openLoop(start, sched, 1, func(i int, due time.Time) (time.Time, time.Time, error) {
		d := time.Millisecond
		if i == 0 {
			d = 60 * time.Millisecond
		}
		time.Sleep(d)
		now := time.Now()
		return now, now, nil
	})
	if !out[0].idle {
		t.Error("the first request found the sender idle")
	}
	// Request 1 fell due at 10 ms but could only go out after the stall
	// (~60 ms): its latency counts the wait from its due time.
	if lat := out[1].end.Sub(out[1].due); lat < 45*time.Millisecond {
		t.Errorf("request 1 latency %v does not include the stall it waited behind", lat)
	}
	if out[1].idle || out[1].lag != 0 {
		t.Errorf("request 1 was queued behind the stall, not sent by an idle sender: %+v", out[1])
	}
	for i, s := range out {
		if s.due != start.Add(sched[i].due) || s.send.Before(s.due) {
			t.Errorf("request %d sent at %v before its due time %v", i, s.send, s.due)
		}
	}
}

func TestPoissonScheduleIsSeeded(t *testing.T) {
	a := poissonSchedule(rand.New(rand.NewSource(7)), 100, 2*time.Second, 0.2)
	b := poissonSchedule(rand.New(rand.NewSource(7)), 100, 2*time.Second, 0.2)
	if len(a) != 200 || len(b) != 200 {
		t.Fatalf("schedule sizes %d and %d, want rate·d = 200", len(a), len(b))
	}
	batches := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs across equal seeds", i)
		}
		if i > 0 && a[i].due < a[i-1].due || a[i].due >= 2*time.Second {
			t.Fatalf("arrival %d at %v is out of order or past the schedule", i, a[i].due)
		}
		if a[i].batch {
			batches++
		}
	}
	if batches != 40 {
		t.Errorf("%d batch arrivals, want 20%% of 200", batches)
	}
}

// oracleInput generates a small GeoJSON and WKT rendering of one seed.
func oracleInput(t *testing.T) (gj, wk []byte) {
	t.Helper()
	cfg := synth.Config{Seed: 3, N: 400, MultiPolyFrac: 0.15, LineFrac: 0.15, MetadataBytes: 60}
	var a, b bytes.Buffer
	if err := synth.New(cfg).WriteGeoJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := synth.New(cfg).WriteWKT(&b); err != nil {
		t.Fatal(err)
	}
	return a.Bytes(), b.Bytes()
}

func TestOracleFormatsAgree(t *testing.T) {
	gj, wk := oracleInput(t)
	fg, err := oracleGeoJSON(gj)
	if err != nil {
		t.Fatal(err)
	}
	fw, err := oracleWKT(wk)
	if err != nil {
		t.Fatal(err)
	}
	if len(fg) != 400 || len(fw) != 400 {
		t.Fatalf("parsed %d GeoJSON and %d WKT features, want 400", len(fg), len(fw))
	}
	win := geom.Box{MinX: -90, MinY: -45, MaxX: 90, MaxY: 45}
	eg, ew := expectWindow(fg, win, false), expectWindow(fw, win, false)
	if eg.matched == 0 || eg.matched != ew.matched || eg.sumArea != ew.sumArea {
		t.Errorf("GeoJSON and WKT renderings disagree: %+v vs %+v", eg, ew)
	}
	if string(gj[fg[0].off:fg[0].off+1]) != "{" {
		t.Errorf("feature offset %d does not point at its opening brace", fg[0].off)
	}
	pg, hg := expectJoin(fg)
	pw, hw := expectJoin(fw)
	if pg != pw || hg != hw {
		t.Errorf("join oracle differs across formats: %d/%x vs %d/%x", pg, hg, pw, hw)
	}
}

func TestOracleRejectsCorruptedResult(t *testing.T) {
	gj, _ := oracleInput(t)
	feats, err := oracleGeoJSON(gj)
	if err != nil {
		t.Fatal(err)
	}
	win := geom.Box{MinX: -180, MinY: -85, MaxX: 180, MaxY: 85}
	want := expectWindow(feats, win, true)
	good := httpOut{records: want.matched, hash: want.hash,
		summary: ndRecord{Matched: want.matched, Scanned: want.scanned}}
	if err := checkContainment(good, want); err != nil {
		t.Fatalf("a faithful result was rejected: %v", err)
	}
	// Drop one record and substitute another feature's fingerprint: the
	// count still matches, the hash does not.
	bad := good
	f := feats[0]
	bad.hash += recHash(f.id+1, f.off, f.name) - recHash(f.id, f.off, f.name)
	if checkContainment(bad, want) == nil {
		t.Error("a result with one altered record was accepted")
	}
	// A wrong property value is caught too.
	bad = good
	bad.hash += recHash(f.id, f.off, f.name+"x") - recHash(f.id, f.off, f.name)
	if checkContainment(bad, want) == nil {
		t.Error("a result with one altered property was accepted")
	}
	agg := httpOut{summary: ndRecord{Matched: want.matched, Scanned: want.scanned, SumArea: want.sumArea}}
	if err := checkAggregation(agg, want); err != nil {
		t.Fatalf("a faithful aggregation was rejected: %v", err)
	}
	agg.summary.SumArea = math.Nextafter(want.sumArea, math.Inf(1))
	if checkAggregation(agg, want) == nil {
		t.Error("an aggregation one ulp off was accepted")
	}
}

func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var cfg struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &cfg); err != nil {
		t.Fatal(err)
	}
	for _, w := range cfg.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no runner", w.Name)
		}
	}
	if len(cfg.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(cfg.Workloads), len(workloads))
	}
	same := func(kind string, defs []metricDef, got []struct{ Name, Unit string }) {
		if len(defs) != len(got) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s metric %d: BENCHMARK.json %s [%s], benchmark %s [%s]", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", e2eMetrics, cfg.EndToEnd)
	same("per_layer", layerMetrics, cfg.PerLayer)
}

func TestEngineAgreesWithOracle(t *testing.T) {
	gj, wk := oracleInput(t)
	dir := t.TempDir()
	gpath, wpath := dir+"/d.geojson", dir+"/d.wkt"
	if err := os.WriteFile(gpath, gj, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(wpath, wk, 0o644); err != nil {
		t.Fatal(err)
	}
	feats, err := oracleGeoJSON(gj)
	if err != nil {
		t.Fatal(err)
	}
	win := geom.Box{MinX: -120, MinY: -60, MaxX: 60, MaxY: 30}
	want := expectWindow(feats, win, false)
	sc, err := openScan([]string{gpath}, 2, []geom.Box{win})
	if err != nil {
		t.Fatal(err)
	}
	o := scanOp(context.Background(), sc.pqs[0], sc.srcs[0], nil, 0)
	sc.close()
	if o.err != nil {
		t.Fatal(o.err)
	}
	if err := o.check(want); err != nil {
		t.Error(err)
	}
	o.got.hash ^= 1 // a corrupted stream
	if o.check(want) == nil {
		t.Error("a corrupted stream passed the oracle")
	}

	wfeats, err := oracleWKT(wk)
	if err != nil {
		t.Fatal(err)
	}
	pairs, hash := expectJoin(wfeats)
	src, err := atgis.OpenMapped(wpath, atgis.WKT)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	eng := atgis.NewEngine(atgis.EngineConfig{Workers: 2})
	defer eng.Close()
	jo := joinOp(context.Background(), eng, src, nil, 0)
	if jo.err != nil || jo.pairs != pairs || jo.hash != hash {
		t.Errorf("join streamed %d pairs hash %x (err %v), oracle %d pairs hash %x", jo.pairs, jo.hash, jo.err, pairs, hash)
	}
}
