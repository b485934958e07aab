package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between order statistics; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// kindQuantile is the geometric mean, over the query kinds, of each kind's
// q-quantile latency in ms among the acked samples; 0 when a kind has none.
// Every kind weighs the same, whatever its share of the samples.
func kindQuantile(ss []sample, q float64) float64 {
	byKind := map[string][]float64{}
	for i := range ss {
		if s := &ss[i]; s.ok() && s.op.Kind != kindEdit {
			byKind[s.op.Kind] = append(byKind[s.op.Kind], ms(s.Latency))
		}
	}
	logSum := 0.0
	for _, k := range queryKinds {
		if len(byKind[k]) == 0 {
			return 0
		}
		logSum += math.Log(quantile(byKind[k], q))
	}
	return math.Exp(logSum / float64(len(queryKinds)))
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
