package main

import (
	"encoding/binary"
	"math"
	"sort"
	"strconv"

	"repro/internal/sqltypes"
)

// nearestRank returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted: the smallest value with at least p% of the samples at or below it.
func nearestRank(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankIndex(len(sorted), p)]
}

// rankIndex is the 0-based index of the nearest-rank p-th percentile among
// n samples.
func rankIndex(n int, p float64) int {
	// The epsilon keeps 99.9% of 10000 at rank 9990 despite float error.
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r - 1
}

// percentileLadder is the set of percentiles a latency report may quote,
// highest first.
var percentileLadder = []float64{99.99, 99.9, 99, 95, 90, 75, 50}

// highestSupported returns the highest percentile of the ladder that has at
// least minBeyond samples strictly above its nearest rank among n samples,
// and false when even the median lacks them.
func highestSupported(n, minBeyond int) (float64, bool) {
	for _, p := range percentileLadder {
		if n-1-rankIndex(n, p) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// geoMean is the geometric mean of positive values (0 for an empty list).
func geoMean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var s float64
	for _, v := range vals {
		s += math.Log(v)
	}
	return math.Exp(s / float64(len(vals)))
}

// medianInt64 returns the median of durations or counts (sorted copy).
func medianInt64(vals []int64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]int64(nil), vals...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if len(s)%2 == 1 {
		return float64(s[len(s)/2])
	}
	return float64(s[len(s)/2-1]+s[len(s)/2]) / 2
}

// FNV-1a 64-bit parameters, inlined so hashing a row allocates nothing.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// rowHash hashes one result row. Floats are rounded to 9 significant digits
// first: an aggregate summed in a different order under a different plan
// may differ in its last bits, which is not a wrong answer.
func rowHash(row sqltypes.Tuple, scratch []byte) (uint64, []byte) {
	h := uint64(fnvOffset)
	for _, v := range row {
		scratch = scratch[:0]
		scratch = append(scratch, byte(v.Kind))
		switch v.Kind {
		case sqltypes.KindInt:
			scratch = binary.LittleEndian.AppendUint64(scratch, uint64(v.Int))
		case sqltypes.KindFloat:
			scratch = strconv.AppendFloat(scratch, v.Float, 'g', 9, 64)
		case sqltypes.KindString:
			scratch = append(scratch, v.Str...)
		}
		scratch = append(scratch, 0xff)
		for _, b := range scratch {
			h = (h ^ uint64(b)) * fnvPrime
		}
	}
	return h, scratch
}

// resultHash is an order-insensitive digest of one statement's outcome: the
// sum of its row hashes, mixed with the rows-affected count.
func resultHash(rows []sqltypes.Tuple, affected int64, scratch []byte) (uint64, []byte) {
	var sum uint64
	for _, r := range rows {
		var h uint64
		h, scratch = rowHash(r, scratch)
		sum += h
	}
	return mix64(sum ^ mix64(uint64(affected)+0x9e3779b97f4a7c15)), scratch
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
