package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/bits"
	"sort"
	"strconv"

	"atgis/internal/geom"
)

// The oracle computes expected outputs with code that shares nothing
// with the engine's transducer path: encoding/json and a small WKT reader
// of its own for parsing, a plain bounding-box sort-and-sweep for joins,
// and the scalar internal/geom predicates for refinement.

// ofeat is one feature as the oracle parsed it.
type ofeat struct {
	id, off int64
	g       geom.Geometry
	box     geom.Box
	name    string // the "name" property (GeoJSON only)
}

// expect is the expected outcome of one query.
type expect struct {
	matched, scanned int64
	hash             uint64 // recHash summed over the matched features
	sumArea          float64
}

// mix64 is the splitmix64 finaliser.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// recHash fingerprints one streamed record. Summing fingerprints gives
// an order-independent hash of the record multiset, so a lost,
// duplicated or altered record changes it.
func recHash(id, off int64, name string) uint64 {
	h := mix64(uint64(id)*0x9e3779b97f4a7c15 ^ bits.RotateLeft64(uint64(off), 32))
	for i := 0; i < len(name); i++ {
		h = mix64(h ^ uint64(name[i]))
	}
	return h
}

// pairHash fingerprints one join pair.
func pairHash(a, b int64) uint64 { return mix64(uint64(a)*0x9e3779b97f4a7c15 ^ mix64(uint64(b))) }

// expectWindow evaluates an intersects-window query over the features in
// input order. withName folds the "name" property into the record hash;
// the area sum accumulates in input order, as the engine's ordered merge
// does, so equal inputs give equal float bits.
func expectWindow(feats []ofeat, win geom.Box, withName bool) expect {
	ref := win.AsPolygon()
	e := expect{scanned: int64(len(feats))}
	for i := range feats {
		f := &feats[i]
		if f.g == nil || !f.box.Intersects(win) || !geom.Intersects(f.g, ref) {
			continue
		}
		e.matched++
		name := ""
		if withName {
			name = f.name
		}
		e.hash += recHash(f.id, f.off, name)
		e.sumArea += geom.SphericalArea(f.g)
	}
	return e
}

// sweepCandidates calls fn for every pair of an even-id (side A) and an
// odd-id (side B) feature whose bounding boxes intersect, found by
// sorting on MinX and sweeping an active list.
func sweepCandidates(feats []ofeat, fn func(a, b *ofeat)) {
	idx := make([]int, len(feats))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return feats[idx[i]].box.MinX < feats[idx[j]].box.MinX })
	var active []int
	for _, i := range idx {
		cur := &feats[i]
		if cur.g == nil {
			continue
		}
		keep := active[:0]
		for _, j := range active {
			if feats[j].box.MaxX >= cur.box.MinX {
				keep = append(keep, j)
			}
		}
		active = keep
		for _, j := range active {
			o := &feats[j]
			if (o.id%2 == 0) == (cur.id%2 == 0) || !o.box.Intersects(cur.box) {
				continue
			}
			if cur.id%2 == 0 {
				fn(cur, o)
			} else {
				fn(o, cur)
			}
		}
		active = append(active, i)
	}
}

// expectJoin returns the pair count and pair-set hash of the parity
// join: even ids against odd ids, refined with scalar geom.Intersects.
func expectJoin(feats []ofeat) (pairs int64, hash uint64) {
	sweepCandidates(feats, func(a, b *ofeat) {
		if geom.Intersects(a.g, b.g) {
			pairs++
			hash += pairHash(a.id, b.id)
		}
	})
	return pairs, hash
}

// oracleGeoJSON parses a FeatureCollection with encoding/json, recording
// each feature's id, the offset of its opening brace, its geometry and
// its "name" property.
func oracleGeoJSON(data []byte) ([]ofeat, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	if t, err := dec.Token(); err != nil || t != json.Delim('{') {
		return nil, fmt.Errorf("oracle: document is not an object")
	}
	var out []ofeat
	for dec.More() {
		t, err := dec.Token()
		if err != nil {
			return nil, err
		}
		if t != "features" {
			var skip json.RawMessage
			if err := dec.Decode(&skip); err != nil {
				return nil, err
			}
			continue
		}
		if t, err := dec.Token(); err != nil || t != json.Delim('[') {
			return nil, fmt.Errorf("oracle: features is not an array")
		}
		for dec.More() {
			off := dec.InputOffset()
			for off < int64(len(data)) && data[off] != '{' {
				off++
			}
			var rf struct {
				ID       int64 `json:"id"`
				Geometry *struct {
					Type        string          `json:"type"`
					Coordinates json.RawMessage `json:"coordinates"`
				} `json:"geometry"`
				Properties map[string]string `json:"properties"`
			}
			if err := dec.Decode(&rf); err != nil {
				return nil, fmt.Errorf("oracle: feature at %d: %w", off, err)
			}
			f := ofeat{id: rf.ID, off: off, name: rf.Properties["name"]}
			if rf.Geometry != nil {
				if f.g, err = jsonGeometry(rf.Geometry.Type, rf.Geometry.Coordinates); err != nil {
					return nil, fmt.Errorf("oracle: feature %d: %w", rf.ID, err)
				}
				f.box = f.g.Bound()
			}
			out = append(out, f)
		}
		if _, err := dec.Token(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func jsonGeometry(typ string, raw json.RawMessage) (geom.Geometry, error) {
	pts := func(c [][2]float64) []geom.Point {
		out := make([]geom.Point, len(c))
		for i, p := range c {
			out[i] = geom.Point{X: p[0], Y: p[1]}
		}
		return out
	}
	poly := func(c [][][2]float64) geom.Polygon {
		out := make(geom.Polygon, len(c))
		for i, r := range c {
			out[i] = geom.Ring(pts(r))
		}
		return out
	}
	switch typ {
	case "Point":
		var c [2]float64
		err := json.Unmarshal(raw, &c)
		return geom.PointGeom{P: geom.Point{X: c[0], Y: c[1]}}, err
	case "LineString":
		var c [][2]float64
		err := json.Unmarshal(raw, &c)
		return geom.LineString(pts(c)), err
	case "Polygon":
		var c [][][2]float64
		err := json.Unmarshal(raw, &c)
		return poly(c), err
	case "MultiPolygon":
		var c [][][][2]float64
		err := json.Unmarshal(raw, &c)
		mp := make(geom.MultiPolygon, len(c))
		for i, p := range c {
			mp[i] = poly(p)
		}
		return mp, err
	}
	return nil, fmt.Errorf("unsupported geometry type %q", typ)
}

// oracleWKT parses "id<TAB>WKT" lines with its own reader.
func oracleWKT(data []byte) ([]ofeat, error) {
	var out []ofeat
	for off := 0; off < len(data); {
		end := bytes.IndexByte(data[off:], '\n')
		if end < 0 {
			end = len(data) - off
		}
		line := data[off : off+end]
		if len(bytes.TrimSpace(line)) > 0 {
			tab := bytes.IndexAny(line, "\t ")
			if tab < 0 {
				return nil, fmt.Errorf("oracle: no id at offset %d", off)
			}
			id, err := strconv.ParseInt(string(line[:tab]), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("oracle: id at offset %d: %w", off, err)
			}
			r := &wktReader{b: line[tab:]}
			g, err := r.geometry()
			if err != nil {
				return nil, fmt.Errorf("oracle: feature %d: %w", id, err)
			}
			out = append(out, ofeat{id: id, off: int64(off), g: g, box: g.Bound()})
		}
		off += end + 1
	}
	return out, nil
}

// wktReader reads the LINESTRING, POLYGON and MULTIPOLYGON forms.
type wktReader struct {
	b []byte
	i int
}

func (r *wktReader) skip() {
	for r.i < len(r.b) && (r.b[r.i] == ' ' || r.b[r.i] == '\t') {
		r.i++
	}
}

func (r *wktReader) expect(c byte) error {
	r.skip()
	if r.i >= len(r.b) || r.b[r.i] != c {
		return fmt.Errorf("wkt: expected %q at %d", c, r.i)
	}
	r.i++
	return nil
}

// list reads "(" item {"," item} ")".
func (r *wktReader) list(item func() error) error {
	if err := r.expect('('); err != nil {
		return err
	}
	for {
		if err := item(); err != nil {
			return err
		}
		r.skip()
		if r.i < len(r.b) && r.b[r.i] == ',' {
			r.i++
			continue
		}
		return r.expect(')')
	}
}

func (r *wktReader) number() (float64, error) {
	r.skip()
	j := r.i
	for j < len(r.b) && r.b[j] != ' ' && r.b[j] != ',' && r.b[j] != ')' && r.b[j] != '\t' {
		j++
	}
	v, err := strconv.ParseFloat(string(r.b[r.i:j]), 64)
	r.i = j
	return v, err
}

func (r *wktReader) points() ([]geom.Point, error) {
	var pts []geom.Point
	err := r.list(func() error {
		x, err := r.number()
		if err != nil {
			return err
		}
		y, err := r.number()
		pts = append(pts, geom.Point{X: x, Y: y})
		return err
	})
	return pts, err
}

func (r *wktReader) polygon() (geom.Polygon, error) {
	var p geom.Polygon
	err := r.list(func() error {
		ring, err := r.points()
		p = append(p, geom.Ring(ring))
		return err
	})
	return p, err
}

func (r *wktReader) geometry() (geom.Geometry, error) {
	r.skip()
	j := r.i
	for j < len(r.b) && r.b[j] >= 'A' && r.b[j] <= 'Z' {
		j++
	}
	kw := string(r.b[r.i:j])
	r.i = j
	switch kw {
	case "LINESTRING":
		pts, err := r.points()
		return geom.LineString(pts), err
	case "POLYGON":
		return r.polygon()
	case "MULTIPOLYGON":
		var mp geom.MultiPolygon
		err := r.list(func() error {
			p, err := r.polygon()
			mp = append(mp, p)
			return err
		})
		return mp, err
	}
	return nil, fmt.Errorf("wkt: unsupported geometry %q", kw)
}
