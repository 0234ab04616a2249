package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"

	"atgis/internal/geom"
	"atgis/internal/synth"
)

// Input sizes. They keep one closed-loop op near 50–150 ms on a 2-core
// host, so a 40 s run collects over 300 samples.
const (
	// scanFeatures GeoJSON features per scan file (~9.4 MiB, 10 engine
	// blocks): 15% multipolygons, 15% lines, 60 B of free-form properties
	// each, the paper's OSM-like mix.
	scanFeatures = 12000
	// joinFeatures WKT polygons (~7 MiB) with MeanEdges 32, packed into
	// joinExtentScale of the world so candidate sets are dense.
	joinFeatures    = 4000
	joinExtentScale = 0.09
	joinMeanEdges   = 32
	joinCell        = 1.0
	// blockSize is the engine's default block size, used by the ladders
	// to cut the same blocks the engine cuts.
	blockSize = 1 << 20
)

// Seed streams: each input derives its generator seed from the run seed
// and a fixed stream number, so inputs differ across seeds and never
// across runs of one seed.
const (
	streamData    = 1
	streamWindows = 2
	streamTraffic = 3
	streamServe   = 4
)

func subSeed(seed int64, stream int64) int64 { return int64(mix64(uint64(seed)*31 + uint64(stream))) }

// geojsonConfig is the generator of the file-th GeoJSON input of a seed.
func geojsonConfig(seed int64, file, n int) synth.Config {
	return synth.Config{Seed: subSeed(seed, streamData) + int64(file), N: n,
		MultiPolyFrac: 0.15, LineFrac: 0.15, MetadataBytes: 60}
}

func joinConfig(seed int64) synth.Config {
	return synth.Config{Seed: subSeed(seed, streamData), N: joinFeatures,
		ExtentScale: joinExtentScale, MeanEdges: joinMeanEdges}
}

// writeInput generates cfg as GeoJSON or WKT into dir and returns the
// file path and its bytes.
func writeInput(dir, name string, cfg synth.Config, wkt bool) (string, []byte, error) {
	var buf bytes.Buffer
	g := synth.New(cfg)
	var err error
	if wkt {
		err = g.WriteWKT(&buf)
	} else {
		err = g.WriteGeoJSON(&buf)
	}
	if err != nil {
		return "", nil, fmt.Errorf("generate %s: %w", name, err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return "", nil, err
	}
	return path, buf.Bytes(), nil
}

// windows returns n query windows, each covering frac of the world
// extent, placed uniformly at random inside it.
func windows(rng *rand.Rand, n int, frac float64) []geom.Box {
	ext := synth.Extent
	w := (ext.MaxX - ext.MinX) * math.Sqrt(frac)
	h := (ext.MaxY - ext.MinY) * math.Sqrt(frac)
	out := make([]geom.Box, n)
	for i := range out {
		x := ext.MinX + rng.Float64()*(ext.MaxX-ext.MinX-w)
		y := ext.MinY + rng.Float64()*(ext.MaxY-ext.MinY-h)
		out[i] = geom.Box{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h}
	}
	return out
}

func mib(n int) float64 { return float64(n) / (1 << 20) }
