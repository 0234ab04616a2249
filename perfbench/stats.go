package main

import (
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// tailSamples is how many samples must lie beyond a reported tail
// percentile: a percentile with fewer behind it is one outlier's value.
const tailSamples = 10

// tailPercentile returns the highest percentile that still has at least
// tailSamples samples beyond it, for n samples: the (n-10)-th order
// statistic, i.e. 100·(1 − 10/n). It is 0 when n ≤ tailSamples.
func tailPercentile(n int) float64 {
	if n <= tailSamples {
		return 0
	}
	return 100 * float64(n-tailSamples) / float64(n)
}

// tail returns the value at tailPercentile(len(xs)) — the sample with
// exactly tailSamples larger samples — and that percentile. With too few
// samples it falls back to the maximum and percentile 100.
func tail(xs []float64) (v, pct float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := sorted(xs)
	if len(s) <= tailSamples {
		return s[len(s)-1], 100
	}
	return s[len(s)-1-tailSamples], tailPercentile(len(s))
}

// median returns the middle value (mean of the two middle values for an
// even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(s) {
		k = len(s) - 1
	}
	return s[k]
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// selfTimes turns the cumulative rung times of a layer ladder (rung k
// runs layers 1..k over the same bytes) into each layer's self time:
// rung k minus rung k−1. A negative delta is measurement noise — a layer
// cannot take negative time — and is clamped to zero, so the attributed
// total can exceed the top rung by the clamped amount.
func selfTimes(cum []float64) []float64 {
	out := make([]float64, len(cum))
	prev := 0.0
	for i, c := range cum {
		out[i] = math.Max(0, c-prev)
		prev = c
	}
	return out
}

// runtimeCounters are the process-wide allocation and GC counters
// reported per op.
type runtimeCounters struct {
	allocBytes, allocObjects, gcCycles uint64
}

var runtimeSampleNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
}

func readRuntime() runtimeCounters {
	s := make([]metrics.Sample, len(runtimeSampleNames))
	for i, n := range runtimeSampleNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeCounters{s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64()}
}

func (c runtimeCounters) sub(o runtimeCounters) runtimeCounters {
	return runtimeCounters{c.allocBytes - o.allocBytes, c.allocObjects - o.allocObjects, c.gcCycles - o.gcCycles}
}

// heapSampler records the highest heap-in-use (bytes of live and
// not-yet-swept heap objects) seen while it runs.
type heapSampler struct {
	peak atomic.Uint64
	stop chan struct{}
	wg   sync.WaitGroup
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak.Load() {
				h.peak.Store(v)
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// finish stops sampling and returns the peak in MiB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	h.wg.Wait()
	return float64(h.peak.Load()) / (1 << 20)
}

// minOf returns the smallest value (0 for none).
func minOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		m = math.Min(m, x)
	}
	return m
}

// hostSteal reads the CPU time the hypervisor gave to other guests
// ("steal" in /proc/stat) and the total, in clock ticks. ok is false where
// the file or the field is missing.
func hostSteal() (steal, total uint64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i, s := range f[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}
