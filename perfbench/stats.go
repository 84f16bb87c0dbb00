package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// tailLadder is the percentile ladder the tail metrics climb: the
// reported tail is the highest rung with at least minBeyond samples
// above it, so a tail figure always rests on more than a handful of
// observations.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

const minBeyond = 10

// sample is a set of observations in milliseconds (or any unit).
type sample []float64

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func (s sample) sorted() []float64 {
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	return c
}

// p50 is the sample median (nearest rank); NaN when empty.
func (s sample) p50() float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	return s.sorted()[(len(s)+1)/2-1]
}

// max is the sample maximum; NaN when empty.
func (s sample) max() float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	m := s[0]
	for _, v := range s[1:] {
		m = math.Max(m, v)
	}
	return m
}

func (s sample) sum() float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}

// tail applies the ladder rule. It returns the value, the percentile
// used and the sample count; with too few samples for any rung it falls
// back to the maximum (percentile 100).
func (s sample) tail() (float64, float64, int) {
	n := len(s)
	if n == 0 {
		return math.NaN(), 0, 0
	}
	sorted := s.sorted()
	for _, p := range tailLadder {
		// Nearest rank: the value at index ceil(p·n)-1, with the samples
		// after it beyond.
		idx := max(int(math.Ceil(p/100*float64(n)))-1, 0)
		if n-1-idx >= minBeyond {
			return sorted[idx], p, n
		}
	}
	return sorted[n-1], 100, n
}

// tailNote describes which percentile a tail metric used and over how
// many samples.
func tailNote(name string, s sample) string {
	_, p, n := s.tail()
	return fmt.Sprintf("%s = p%g of n=%d", name, p, n)
}

func tailValue(s sample) float64 {
	v, _, _ := s.tail()
	return v
}

// median of a small float set (setup repetitions); averages the middle
// pair for even counts.
func median(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}
