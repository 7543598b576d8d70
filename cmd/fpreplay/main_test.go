package main

import (
	"math"
	"testing"
)

func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		speedup float64
		report  int
		ok      bool
	}{
		{5_000_000, 1000, true},
		{1, 1, true},
		{0.5, 1, true},
		{math.Inf(1), 1, true},
		{0, 1000, false},
		{-2, 1000, false},
		{math.Inf(-1), 1000, false},
		{math.NaN(), 1000, false},
		{1, 0, false},
		{1, -5, false},
	} {
		if err := checkFlags(tc.speedup, tc.report); (err == nil) != tc.ok {
			t.Errorf("checkFlags(%v, %d) = %v, want ok=%v", tc.speedup, tc.report, err, tc.ok)
		}
	}
}
