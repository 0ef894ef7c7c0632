package main

import (
	"fmt"
	"sort"
	"time"
)

// opKind names what a latency sample timed.
type opKind uint8

const (
	opCheckout opKind = iota
	opSelect
	opCommit
	opCheckpoint
	opRecover // OpenDurable with a WAL tail to replay
	opRestore // OpenDurable right after a checkpoint: empty WAL tail
)

func (k opKind) String() string {
	return [...]string{"checkout", "select", "commit", "checkpoint", "recover", "restore"}[k]
}

// sample is one timed operation. at is when it ended, measured from the start
// of its phase, so a phase can be cut into windows afterwards.
type sample struct {
	kind    opKind
	at      time.Duration
	dur     time.Duration
	stalled bool // a checkpoint was in flight while the operation ran
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the nearest-rank quantile of an ascending slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// dist is how a timing is reported: the median, and the highest percentile
// that still has at least ten samples beyond it.
type dist struct {
	n     int
	p50   float64
	tailQ float64 // 0 when fewer than 40 samples: no percentile qualifies
	tail  float64
}

func summarize(v []float64) dist {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	d := dist{n: len(s), p50: quantile(s, 0.5)}
	for _, q := range []float64{0.9999, 0.999, 0.99, 0.95, 0.9, 0.75} {
		if float64(len(s))*(1-q) >= 10 {
			d.tailQ, d.tail = q, quantile(s, q)
			break
		}
	}
	return d
}

func (d dist) String() string {
	if d.tailQ == 0 {
		return fmt.Sprintf("p50 %.4f ms (n=%d)", d.p50, d.n)
	}
	return fmt.Sprintf("p50 %.4f ms, p%g %.4f ms (n=%d)", d.p50, d.tailQ*100, d.tail, d.n)
}

// quietP50 is the median of the quietest stretch of a phase: the samples of
// one kind, in the order they ended, are cut into up to ten consecutive chunks
// of at least 25, and the lowest chunk median is returned. With fewer than 50
// samples that is the plain median.
//
// The sandbox this runs in slows down for seconds to minutes at a time for
// reasons outside the process (README, "Sandbox caveats"). Such interference
// only ever adds time, so the quietest stretch is the best estimate of what
// the system itself costs, while a slower system is slower in every stretch.
func quietP50(samples []sample, kind opKind) float64 {
	var picked []sample
	for _, s := range samples {
		if s.kind == kind {
			picked = append(picked, s)
		}
	}
	sort.Slice(picked, func(a, b int) bool { return picked[a].at < picked[b].at })
	chunks := min(10, max(1, len(picked)/25))
	best := 0.0
	for k := 0; k < chunks; k++ {
		chunk := picked[k*len(picked)/chunks : (k+1)*len(picked)/chunks]
		v := make([]float64, len(chunk))
		for i, s := range chunk {
			v[i] = ms(s.dur)
		}
		if m := median(v); k == 0 || m < best {
			best = m
		}
	}
	return best
}

// durations picks the samples of one kind, in milliseconds.
func durations(samples []sample, kind opKind) []float64 {
	var out []float64
	for _, s := range samples {
		if s.kind == kind {
			out = append(out, ms(s.dur))
		}
	}
	return out
}

// windowSpread cuts a phase into three equal windows and returns
// (max − min) / median of the windows' medians: drift within a run.
func windowSpread(samples []sample, kind opKind, phase time.Duration) float64 {
	var win [3][]float64
	for _, s := range samples {
		if s.kind != kind {
			continue
		}
		w := int(3 * s.at / (phase + 1))
		if w > 2 {
			w = 2
		}
		win[w] = append(win[w], ms(s.dur))
	}
	var meds []float64
	for _, w := range win {
		if len(w) == 0 {
			return 0
		}
		meds = append(meds, median(w))
	}
	sort.Float64s(meds)
	if meds[1] == 0 {
		return 0
	}
	return (meds[2] - meds[0]) / meds[1]
}
