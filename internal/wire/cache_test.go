package wire

import (
	"bytes"
	"errors"
	"testing"
)

func testDigest(size int64) ContentDigest {
	d := ContentDigest{Size: size}
	for i := range d.Sum {
		d.Sum[i] = byte(i * 7)
	}
	return d
}

func TestCacheLookupRoundTrip(t *testing.T) {
	want := testDigest(1 << 30)
	got, err := ParseCacheLookup(CacheLookupOption(want))
	if err != nil {
		t.Fatalf("ParseCacheLookup: %v", err)
	}
	if got != want {
		t.Fatalf("round trip: got %+v want %+v", got, want)
	}
	h := &Header{Options: []Option{CacheLookupOption(want)}}
	if d, ok := h.CacheLookup(); !ok || d != want {
		t.Fatalf("CacheLookup() = %+v, %v", d, ok)
	}
	if ds := h.CacheLookups(); len(ds) != 1 || ds[0] != want {
		t.Fatalf("CacheLookups() = %+v", ds)
	}
}

func TestCacheAdvertRoundTrip(t *testing.T) {
	for _, tc := range [][]ByteRange{
		nil,
		{{Off: 0, Len: 1}},
		{{Off: 0, Len: 4096}, {Off: 4096, Len: 1}}, // adjacency is legal
		{{Off: 100, Len: 50}, {Off: 1 << 40, Len: 1 << 20}},
	} {
		o := CacheAdvertOption(tc)
		got, err := ParseCacheAdvert(o)
		if err != nil {
			t.Fatalf("ParseCacheAdvert(%+v): %v", tc, err)
		}
		if len(got) != len(tc) {
			t.Fatalf("round trip %+v: got %+v", tc, got)
		}
		for i := range tc {
			if got[i] != tc[i] {
				t.Fatalf("round trip %+v: got %+v", tc, got)
			}
		}
		h := &Header{Options: []Option{o}}
		if rs, ok := h.CacheAdvert(); !ok || len(rs) != len(tc) {
			t.Fatalf("CacheAdvert() = %+v, %v for %+v", rs, ok, tc)
		}
	}
}

func TestCacheAdvertMalformed(t *testing.T) {
	pair := CacheAdvertOption([]ByteRange{{Off: 0, Len: 4096}, {Off: 8192, Len: 64}}).Data
	cases := map[string][]byte{
		"truncated":      pair[:len(pair)-5],
		"zero length":    CacheAdvertOption([]ByteRange{{Off: 0, Len: 0}}).Data,
		"overlapping":    append(append([]byte{}, CacheAdvertOption([]ByteRange{{Off: 0, Len: 4096}}).Data...), CacheAdvertOption([]ByteRange{{Off: 100, Len: 10}}).Data...),
		"unsorted":       append(append([]byte{}, CacheAdvertOption([]ByteRange{{Off: 8192, Len: 10}}).Data...), CacheAdvertOption([]ByteRange{{Off: 0, Len: 10}}).Data...),
		"offset too big": {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 1},
	}
	for name, data := range cases {
		if _, err := ParseCacheAdvert(Option{Kind: OptCacheAdvert, Data: data}); !errors.Is(err, ErrBadOption) {
			t.Errorf("%s: ParseCacheAdvert err = %v, want ErrBadOption", name, err)
		}
		h := &Header{Options: []Option{{Kind: OptCacheAdvert, Data: data}}}
		if rs, ok := h.CacheAdvert(); ok {
			t.Errorf("%s: malformed advert did not degrade to absent: %+v", name, rs)
		}
	}
	if _, err := ParseCacheAdvert(Option{Kind: OptCacheLookup}); !errors.Is(err, ErrBadOption) {
		t.Errorf("wrong kind accepted: %v", err)
	}
}

func TestCacheServeRoundTrip(t *testing.T) {
	d := testDigest(1 << 20)
	r := ByteRange{Off: 4096, Len: 1<<20 - 4096}
	gd, gr, err := ParseCacheServe(CacheServeOption(d, r))
	if err != nil || gd != d || gr != r {
		t.Fatalf("round trip: %+v %+v %v", gd, gr, err)
	}
	h := &Header{Options: []Option{CacheServeOption(d, r)}}
	if hd, hr, ok := h.CacheServe(); !ok || hd != d || hr != r {
		t.Fatalf("CacheServe() = %+v %+v %v", hd, hr, ok)
	}
}

func TestCacheServeMalformed(t *testing.T) {
	d := testDigest(1 << 20)
	good := CacheServeOption(d, ByteRange{Off: 0, Len: 1 << 20})
	cases := map[string]Option{
		"truncated":  {Kind: OptCacheServe, Data: good.Data[:40]},
		"overruns":   CacheServeOption(ContentDigest{Size: 100, Sum: d.Sum}, ByteRange{Off: 50, Len: 100}),
		"zero len":   CacheServeOption(d, ByteRange{Off: 0, Len: 0}),
		"wrong kind": {Kind: OptCacheAdvert, Data: good.Data},
	}
	for name, o := range cases {
		if _, _, err := ParseCacheServe(o); !errors.Is(err, ErrBadOption) {
			t.Errorf("%s: err = %v, want ErrBadOption", name, err)
		}
		h := &Header{Options: []Option{o}}
		if _, _, ok := h.CacheServe(); ok {
			t.Errorf("%s: malformed serve did not degrade to absent", name)
		}
	}
}

// TestDuplicateOptionsLastWins locks the duplicate-occurrence contract:
// when a header carries two options of the same singleton kind, the
// later one governs, for the generic accessor and for every typed
// accessor built on it — and the rule survives a marshal round trip,
// so every hop on the path reads the same winner.
func TestDuplicateOptionsLastWins(t *testing.T) {
	d1, d2 := testDigest(100), testDigest(200)
	cases := []struct {
		name  string
		opts  []Option
		check func(t *testing.T, h *Header)
	}{
		{
			name: "resume offset",
			opts: []Option{ResumeOffsetOption(100), ResumeOffsetOption(4096)},
			check: func(t *testing.T, h *Header) {
				if got := h.ResumeOffset(); got != 4096 {
					t.Errorf("ResumeOffset() = %d, want 4096", got)
				}
			},
		},
		{
			name: "hop index",
			opts: []Option{HopIndexOption(1), HopIndexOption(5)},
			check: func(t *testing.T, h *Header) {
				if got := h.HopIndex(); got != 5 {
					t.Errorf("HopIndex() = %d, want 5", got)
				}
			},
		},
		{
			name: "session weight",
			opts: []Option{SessionWeightOption(2), SessionWeightOption(7)},
			check: func(t *testing.T, h *Header) {
				if got := h.SessionWeight(); got != 7 {
					t.Errorf("SessionWeight() = %d, want 7", got)
				}
			},
		},
		{
			name: "table epoch",
			opts: []Option{TableEpochOption(3), TableEpochOption(9)},
			check: func(t *testing.T, h *Header) {
				if got := h.TableEpoch(); got != 9 {
					t.Errorf("TableEpoch() = %d, want 9", got)
				}
			},
		},
		{
			name: "content digest",
			opts: []Option{ContentDigestOption(d1), ContentDigestOption(d2)},
			check: func(t *testing.T, h *Header) {
				if got, ok := h.ContentDigest(); !ok || got != d2 {
					t.Errorf("ContentDigest() = %+v, %v, want later digest", got, ok)
				}
			},
		},
		{
			name: "cache lookup",
			opts: []Option{CacheLookupOption(d1), CacheLookupOption(d2)},
			check: func(t *testing.T, h *Header) {
				if got, ok := h.CacheLookup(); !ok || got != d2 {
					t.Errorf("CacheLookup() = %+v, %v, want later digest", got, ok)
				}
			},
		},
		{
			name: "cache advert",
			opts: []Option{
				CacheAdvertOption([]ByteRange{{Off: 0, Len: 1}}),
				CacheAdvertOption([]ByteRange{{Off: 0, Len: 2}}),
			},
			check: func(t *testing.T, h *Header) {
				rs, ok := h.CacheAdvert()
				if !ok || len(rs) != 1 || rs[0].Len != 2 {
					t.Errorf("CacheAdvert() = %+v, %v, want the later advert", rs, ok)
				}
			},
		},
		{
			name: "later copy malformed degrades whole lookup",
			opts: []Option{ResumeOffsetOption(100), {Kind: OptResumeOffset, Data: []byte{1}}},
			check: func(t *testing.T, h *Header) {
				// Last-wins selects the later copy even when it is
				// malformed; the typed accessor then degrades to its
				// default rather than falling back to the earlier copy —
				// degrade, never guess.
				if got := h.ResumeOffset(); got != 0 {
					t.Errorf("ResumeOffset() = %d, want 0 (degraded)", got)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := &Header{
				Version: Version1,
				Type:    TypeData,
				Src:     MustEndpoint("10.0.0.1:7411"),
				Dst:     MustEndpoint("10.0.0.9:7411"),
				Options: tc.opts,
			}
			if o, ok := h.Option(tc.opts[0].Kind); !ok || !bytes.Equal(o.Data, tc.opts[len(tc.opts)-1].Data) {
				t.Errorf("Option(%d) did not return the last occurrence", tc.opts[0].Kind)
			}
			tc.check(t, h)

			// The winner must survive the wire: marshal preserves option
			// order, so a forwarding depot sees the same last copy.
			buf, err := h.MarshalBinary()
			if err != nil {
				t.Fatalf("MarshalBinary: %v", err)
			}
			var back Header
			if err := back.UnmarshalBinary(buf); err != nil {
				t.Fatalf("UnmarshalBinary: %v", err)
			}
			tc.check(t, &back)
		})
	}
}

func TestSuffixStart(t *testing.T) {
	cases := []struct {
		name   string
		ranges []ByteRange
		size   int64
		want   int64
	}{
		{"empty", nil, 100, 100},
		{"full", []ByteRange{{Off: 0, Len: 100}}, 100, 0},
		{"suffix", []ByteRange{{Off: 40, Len: 60}}, 100, 40},
		{"prefix only", []ByteRange{{Off: 0, Len: 60}}, 100, 100},
		{"hole before suffix", []ByteRange{{Off: 0, Len: 10}, {Off: 50, Len: 50}}, 100, 50},
		{"interior", []ByteRange{{Off: 10, Len: 50}}, 100, 100},
	}
	for _, tc := range cases {
		if got := SuffixStart(tc.ranges, tc.size); got != tc.want {
			t.Errorf("%s: SuffixStart = %d, want %d", tc.name, got, tc.want)
		}
	}
}
