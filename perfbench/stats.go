package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile: a
// p90 from 50 samples rests on 5 points and is refused.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of xs (0 < p < 100),
// refusing when fewer than minBeyond samples lie beyond it.
func percentile(xs []float64, p float64) (float64, error) {
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %v outside (0,100)", p)
	}
	n := len(xs)
	rank := int(math.Ceil(p * float64(n) / 100)) // 1-based
	if rank < 1 || n-rank < minBeyond {
		return 0, fmt.Errorf("p%v of %d samples has %d beyond it, need %d", p, n, n-rank, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median returns the middle of xs (mean of the two middles for even n), or
// 0 for no samples. Used for small repeated measurements such as set-up
// and recovery times, where no percentile rule applies.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
