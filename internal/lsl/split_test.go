package lsl

import (
	"testing"

	"github.com/netlogistics/lsl/internal/wire"
)

// checkCover asserts ranges cut [0, size) into contiguous, non-empty
// pieces whose lengths differ by at most one byte.
func checkCover(t *testing.T, ranges []wire.ByteRange, size int64) {
	t.Helper()
	var off int64
	for i, r := range ranges {
		if r.Off != off || r.Len <= 0 {
			t.Fatalf("range %d = %+v, want non-empty and contiguous from %d", i, r, off)
		}
		if d := ranges[0].Len - r.Len; d < 0 || d > 1 {
			t.Fatalf("range %d is %d bytes, range 0 is %d: uneven split", i, r.Len, ranges[0].Len)
		}
		off = r.End()
	}
	if off != size {
		t.Fatalf("ranges cover %d of %d bytes", off, size)
	}
}

// TestSplitRangesPartition: without rebalancing every worker (stripe)
// gets exactly one range, and never more ranges than bytes.
func TestSplitRangesPartition(t *testing.T) {
	cases := []struct {
		size int64
		n    int
		want int
	}{
		{size: 10, n: 1, want: 1},
		{size: 10, n: 3, want: 3},
		{size: 1 << 20, n: 4, want: 4},
		{size: 7, n: 7, want: 7},
		{size: 3, n: 8, want: 3},
	}
	for _, tc := range cases {
		ranges := SplitRanges(tc.size, tc.n, false)
		if len(ranges) != tc.want {
			t.Fatalf("SplitRanges(%d, %d, false): %d ranges, want %d", tc.size, tc.n, len(ranges), tc.want)
		}
		checkCover(t, ranges, tc.size)
	}
}

// TestSplitRangesSizing: with rebalancing each worker (route) gets
// several ranges, shrunk so none falls below 64 KiB, but never fewer
// ranges than workers, and never more ranges than bytes.
func TestSplitRangesSizing(t *testing.T) {
	cases := []struct {
		size int64
		k    int
		want int
	}{
		{size: 8 << 20, k: 2, want: 8},
		{size: 8 << 20, k: 3, want: 12},
		{size: 256 << 10, k: 2, want: 4},
		{size: 100 << 10, k: 3, want: 3},
		{size: 2, k: 3, want: 2},
	}
	for _, tc := range cases {
		ranges := SplitRanges(tc.size, tc.k, true)
		if len(ranges) != tc.want {
			t.Fatalf("SplitRanges(%d, %d, true): %d ranges, want %d", tc.size, tc.k, len(ranges), tc.want)
		}
		checkCover(t, ranges, tc.size)
	}
}
