package main

import (
	"sort"
	"strconv"
	"time"
)

// The host-speed probe. The benchmark runs on a vCPU whose physical core
// other machines' work shares: while they run, the same op stream runs up
// to 1.7× slower, in phases from under a second to minutes long. A run
// cannot average such a phase away, so every bounded timing is scaled to
// a reference host speed: a fixed probe, written here and independent of
// the program, is timed every probeEvery ops and between set-up steps,
// and each time the program took is multiplied by probeRef ÷ the probe
// time measured next to it. NOTES.md shows the figures.

// probeEvery is how many ops of a stream share one probe.
const probeEvery = 16

// probeRef is the probe time the scaled figures refer to: a round figure
// near its median on the 2-vCPU Xeon VM the benchmark was tuned on.
const probeRef = 500 * time.Microsecond

// probeFloats is how many numbers the probe formats: two 2000-user rank
// responses' scores.
const probeFloats = 4000

var (
	probeText = make([]byte, 0, 32*probeFloats)
	probeSink int
)

// hostProbe times formatting probeFloats numbers as text, the kind of work
// that decoding and encoding requests and responses is made of. Of the
// probes tried, it followed the host's speed best: an L1-resident
// arithmetic loop barely slowed down in a slow phase, and a sparse gather
// over a 1.5 MiB table, the access pattern of a CSR product, misjudged
// set-ups, which are mostly JSON decoding.
func hostProbe() time.Duration {
	start := time.Now()
	b := probeText[:0]
	for i := 0; i < probeFloats; i++ {
		b = strconv.AppendFloat(b, 0.123456789*float64(i+1)+1e-3/float64(i+1), 'g', -1, 64)
		b = append(b, ',')
	}
	d := time.Since(start)
	probeSink += len(b)
	return d
}

// probeSample is one probe taken during a stream.
type probeSample struct {
	at   time.Time // when the probe finished
	took time.Duration
	rss  float64 // peak RSS since the previous probe, MB; 0 when unknown
}

// scale converts a time measured next to a probe that took took into the
// time at the reference host speed.
func scale(took time.Duration) float64 {
	if took <= 0 {
		return 1
	}
	return float64(probeRef) / float64(took)
}

// scaleAt is the scale of the last probe finished by t (the first probe
// for an earlier t); probes are in time order. With no probe it is 1.
func scaleAt(probes []probeSample, t time.Time) float64 {
	if len(probes) == 0 {
		return 1
	}
	k := sort.Search(len(probes), func(i int) bool { return probes[i].at.After(t) })
	return scale(probes[max(0, k-1)].took)
}
