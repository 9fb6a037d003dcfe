package cache

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/netlogistics/lsl/internal/obs"
	"github.com/netlogistics/lsl/internal/wire"
)

// object builds a deterministic test object and its digest.
func object(t *testing.T, seed int64, size int) ([]byte, wire.ContentDigest) {
	t.Helper()
	data := make([]byte, size)
	rand.New(rand.NewSource(seed)).Read(data)
	return data, wire.ContentDigest{Size: int64(size), Sum: sha256.Sum256(data)}
}

func readRange(t *testing.T, c *Cache, key wire.ContentDigest, r wire.ByteRange) []byte {
	t.Helper()
	rc, err := c.Open(key, r)
	if err != nil {
		t.Fatalf("Open(%+v): %v", r, err)
	}
	defer rc.Close()
	got, err := io.ReadAll(rc)
	if err != nil {
		t.Fatalf("read %+v: %v", r, err)
	}
	return got
}

func TestPutOpenRoundTrip(t *testing.T) {
	c, err := New(Config{MemoryBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	data, key := object(t, 1, 200_000)
	if err := c.Put(key, 0, data); err != nil {
		t.Fatal(err)
	}
	if got := readRange(t, c, key, wire.ByteRange{Off: 0, Len: key.Size}); !bytes.Equal(got, data) {
		t.Fatal("full read mismatch")
	}
	mid := wire.ByteRange{Off: 70_000, Len: 80_000}
	if got := readRange(t, c, key, mid); !bytes.Equal(got, data[70_000:150_000]) {
		t.Fatal("mid-range read mismatch")
	}
	if ks := c.Keys(); len(ks) != 1 || ks[0] != key {
		t.Fatalf("Keys() = %+v, want the completed object", ks)
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 0 || st.Complete != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRangesAccreteAndCoalesce(t *testing.T) {
	c, err := New(Config{MemoryBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	data, key := object(t, 2, 100_000)
	// Out-of-order, overlapping population: [40k,70k), [0,50k), [70k,100k).
	for _, r := range []wire.ByteRange{{Off: 40_000, Len: 30_000}, {Off: 0, Len: 50_000}, {Off: 70_000, Len: 30_000}} {
		if err := c.Put(key, r.Off, data[r.Off:r.End()]); err != nil {
			t.Fatal(err)
		}
	}
	rs := c.Ranges(key)
	if len(rs) != 1 || rs[0] != (wire.ByteRange{Off: 0, Len: 100_000}) {
		t.Fatalf("Ranges() = %+v, want one full range", rs)
	}
	if !c.Holds(key, wire.ByteRange{Off: 10, Len: 99_000}) {
		t.Fatal("Holds() = false for covered range")
	}
	if got := readRange(t, c, key, wire.ByteRange{Off: 0, Len: key.Size}); !bytes.Equal(got, data) {
		t.Fatal("stitched read mismatch")
	}
}

func TestMissesAndPartialCoverage(t *testing.T) {
	c, err := New(Config{MemoryBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	data, key := object(t, 3, 100_000)
	if err := c.Put(key, 0, data[:40_000]); err != nil {
		t.Fatal(err)
	}
	if c.Holds(key, wire.ByteRange{Off: 0, Len: 50_000}) {
		t.Fatal("Holds() = true across a gap")
	}
	if _, err := c.Open(key, wire.ByteRange{Off: 30_000, Len: 20_000}); !errors.Is(err, ErrMiss) {
		t.Fatalf("Open across gap: %v, want ErrMiss", err)
	}
	if ks := c.Keys(); len(ks) != 0 {
		t.Fatalf("partial object advertised in inventory: %+v", ks)
	}
	if st := c.Stats(); st.Misses != 2 || st.Hits != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCompletionVerifiesWholeObject(t *testing.T) {
	c, err := New(Config{MemoryBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	data, key := object(t, 4, 50_000)
	// Lie about the bytes: same digest key, wrong content.
	bogus := append([]byte(nil), data...)
	bogus[123] ^= 0xFF
	if err := c.Put(key, 0, bogus); err != nil {
		t.Fatal(err)
	}
	if ks := c.Keys(); len(ks) != 0 {
		t.Fatal("object whose bytes do not hash to its key survived completion")
	}
	if rs := c.Ranges(key); rs != nil {
		t.Fatalf("mismatched entry still advertises %+v", rs)
	}
}

func TestTamperSurfacesAsChecksumMidRead(t *testing.T) {
	c, err := New(Config{MemoryBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	data, key := object(t, 5, 300_000)
	if err := c.Put(key, 0, data); err != nil {
		t.Fatal(err)
	}
	// Damage a frame past the first: the read must yield a verified
	// prefix, then fail with wire.ErrChecksum.
	if !c.Tamper(key, 200_000) {
		t.Fatal("Tamper found no span")
	}
	rc, err := c.Open(key, wire.ByteRange{Off: 0, Len: key.Size})
	if err != nil {
		t.Fatalf("Open after tamper: %v", err)
	}
	defer rc.Close()
	got, rerr := io.ReadAll(rc)
	if !errors.Is(rerr, wire.ErrChecksum) {
		t.Fatalf("read err = %v, want ErrChecksum", rerr)
	}
	if len(got) == 0 || len(got) >= 300_000 {
		t.Fatalf("verified prefix = %d bytes, want partial", len(got))
	}
	if !bytes.Equal(got, data[:len(got)]) {
		t.Fatal("verified prefix does not match the original bytes")
	}
	// The damaged span is gone: probes tell the truth now.
	if c.Holds(key, wire.ByteRange{Off: 0, Len: key.Size}) {
		t.Fatal("cache still claims the damaged range")
	}
}

func TestLRUSpillAndEvict(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	// Memory fits 2 of the 64 KiB objects, disk (4x memory) 9.
	c, err := New(Config{MemoryBytes: 150 << 10, Dir: dir, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	type obj struct {
		data []byte
		key  wire.ContentDigest
	}
	var objs []obj
	for i := int64(0); i < 12; i++ {
		data, key := object(t, 100+i, 64<<10)
		objs = append(objs, obj{data, key})
		if err := c.Put(key, 0, data); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.MemBytes > 150<<10 || st.DiskBytes > 600<<10 {
		t.Fatalf("budgets exceeded: %+v", st)
	}
	if reg.Counter(MetricEvictions).Value() == 0 {
		t.Fatal("no evictions counted despite overflow")
	}
	if g := reg.Gauge(MetricOccupancy).Value(); g != st.MemBytes+st.DiskBytes {
		t.Fatalf("occupancy gauge %d != %d", g, st.MemBytes+st.DiskBytes)
	}
	// The hottest objects must still be readable — the most recent Put
	// always is — and reads must verify, wherever the span lives.
	last := objs[len(objs)-1]
	if got := readRange(t, c, last.key, wire.ByteRange{Off: 0, Len: last.key.Size}); !bytes.Equal(got, last.data) {
		t.Fatal("hottest object unreadable or wrong after rebalancing")
	}
	// Some spans must have spilled to disk and remain readable there.
	spilled := 0
	for _, o := range objs {
		if c.Holds(o.key, wire.ByteRange{Off: 0, Len: o.key.Size}) {
			got := readRange(t, c, o.key, wire.ByteRange{Off: 0, Len: o.key.Size})
			if !bytes.Equal(got, o.data) {
				t.Fatalf("held object %x reads wrong bytes", o.key.Sum[:4])
			}
			spilled++
		}
	}
	if spilled == 0 {
		t.Fatal("everything evicted; disk tier never used")
	}
}

func TestMemoryOnlyEvictsWithoutDir(t *testing.T) {
	c, err := New(Config{MemoryBytes: 100 << 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 5; i++ {
		data, key := object(t, 200+i, 48<<10)
		if err := c.Put(key, 0, data); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.MemBytes > 100<<10 {
		t.Fatalf("memory budget exceeded: %+v", st)
	}
	if st.DiskBytes != 0 {
		t.Fatal("disk bytes without a disk tier")
	}
	if st.Evictions == 0 {
		t.Fatal("no evictions in memory-only overflow")
	}
}

func TestRecoverFromDisk(t *testing.T) {
	dir := t.TempDir()
	var keys []wire.ContentDigest
	var datas [][]byte
	{
		c, err := New(Config{MemoryBytes: 64 << 10, Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		// Small memory tier forces spills; everything should survive on
		// disk within budget.
		for i := int64(0); i < 4; i++ {
			data, key := object(t, 300+i, 56<<10)
			keys = append(keys, key)
			datas = append(datas, data)
			if err := c.Put(key, 0, data); err != nil {
				t.Fatal(err)
			}
		}
	}
	// A fresh cache over the same directory re-indexes the spilled spans.
	c, err := New(Config{MemoryBytes: 64 << 10, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Recovered == 0 {
		t.Fatalf("nothing recovered: %+v", st)
	}
	found := 0
	for i, key := range keys {
		if c.Holds(key, wire.ByteRange{Off: 0, Len: key.Size}) {
			if got := readRange(t, c, key, wire.ByteRange{Off: 0, Len: key.Size}); !bytes.Equal(got, datas[i]) {
				t.Fatalf("recovered object %d reads wrong bytes", i)
			}
			found++
		}
	}
	if found == 0 {
		t.Fatal("no object survived restart")
	}
	// Recovered full objects are re-proven and advertised.
	if len(c.Keys()) != found {
		t.Fatalf("inventory %d != readable objects %d", len(c.Keys()), found)
	}
}

// TestRecoverEvictsOldestSpill restarts over a directory that holds
// more than the new, smaller disk budget: the re-index must rebuild
// recency from the files' modification times and evict the span that
// spilled first, not whichever file sorts last by name.
func TestRecoverEvictsOldestSpill(t *testing.T) {
	dir := t.TempDir()
	var keys []wire.ContentDigest
	{
		// 64 KiB of memory holds one 40 KiB object: each Put spills the
		// one before, leaving three on disk.
		c, err := New(Config{MemoryBytes: 64 << 10, Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < 4; i++ {
			data, key := object(t, 450+i, 40<<10)
			keys = append(keys, key)
			if err := c.Put(key, 0, data); err != nil {
				t.Fatal(err)
			}
		}
		if st := c.Stats(); st.DiskBytes != 3*40<<10 {
			t.Fatalf("setup: disk bytes = %d, want three spilled objects", st.DiskBytes)
		}
	}
	// Age the spills so the first file by name is the oldest: an
	// index rebuilt in name order would keep it and evict the newest.
	names := mustReadDir(t, dir)
	sort.Strings(names)
	for i, name := range names {
		at := time.Now().Add(time.Duration(i-len(names)) * time.Hour)
		if err := os.Chtimes(filepath.Join(dir, name), at, at); err != nil {
			t.Fatal(err)
		}
	}
	holder := func(name string) wire.ContentDigest {
		for _, k := range keys {
			if strings.HasPrefix(name, fmt.Sprintf("%064x", k.Sum)) {
				return k
			}
		}
		t.Fatalf("no object owns %s", name)
		return wire.ContentDigest{}
	}

	// 20 KiB of memory gives an 80 KiB disk tier: two of the three fit.
	c, err := New(Config{MemoryBytes: 20 << 10, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Recovered != 3 || st.Evictions != 1 || st.DiskBytes != 2*40<<10 {
		t.Fatalf("after restart: %+v, want 3 recovered, 1 evicted, 2 held", st)
	}
	oldest := holder(names[0])
	if c.Holds(oldest, wire.ByteRange{Len: oldest.Size}) {
		t.Fatal("re-index over budget kept the oldest spill")
	}
	for _, name := range names[1:] {
		if k := holder(name); !c.Holds(k, wire.ByteRange{Len: k.Size}) {
			t.Fatalf("re-index over budget evicted the newer spill %s", name)
		}
	}
	if left := mustReadDir(t, dir); len(left) != 2 {
		t.Fatalf("files after re-index = %v, want the 2 kept spills", left)
	}
}

// TestRecoverDropsDamagedAndForeignFiles restarts over a directory
// holding one spilled span damaged in place, a .tmp leftover, a .b file
// whose name is no span, and a file of a foreign name: re-index must
// delete and count the first three, leave the foreign file alone, and
// never claim the damaged span's range.
func TestRecoverDropsDamagedAndForeignFiles(t *testing.T) {
	dir := t.TempDir()
	data, key := object(t, 400, 40<<10)
	{
		// 64 KiB of memory holds one 40 KiB object: the second Put
		// spills the first.
		c, err := New(Config{MemoryBytes: 64 << 10, Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Put(key, 0, data); err != nil {
			t.Fatal(err)
		}
		other, okey := object(t, 401, 40<<10)
		if err := c.Put(okey, 0, other); err != nil {
			t.Fatal(err)
		}
	}
	names := mustReadDir(t, dir)
	if len(names) != 1 {
		t.Fatalf("spilled files = %v, want one", names)
	}
	// Damage the spilled span in place, and drop garbage alongside.
	victim := filepath.Join(dir, names[0])
	raw, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(victim, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string][]byte{
		"not-a-span.c":        []byte("junk"), // foreign: left alone
		"not-a-span.cb":       raw,            // misnamed span: dropped
		names[0] + ".123.tmp": raw,            // spill torn before its rename: dropped
	} {
		if err := os.WriteFile(filepath.Join(dir, name), body, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	c, err := New(Config{MemoryBytes: 64 << 10, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Dropped != 3 || st.Recovered != 0 {
		t.Fatalf("after restart: %+v, want 3 dropped (damaged, misnamed, tmp) and nothing recovered", st)
	}
	if c.Holds(key, wire.ByteRange{Off: 0, Len: key.Size}) {
		t.Fatal("cache claims a range whose backing file was damaged")
	}
	if left := mustReadDir(t, dir); len(left) != 1 || left[0] != "not-a-span.c" {
		t.Fatalf("files after re-index = %v, want only the foreign file", left)
	}
}

func mustReadDir(t *testing.T, dir string) []string {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, de := range des {
		names = append(names, de.Name())
	}
	return names
}

func TestSpanNameRoundTrip(t *testing.T) {
	_, digest := object(t, 500, 12345)
	key := spanKey{digest, 100, 999}
	name := key.String()
	if got, ok := parseSpanKey(name); !ok || got != key {
		t.Fatalf("parseSpanKey(%q) = %+v, %v", name, got, ok)
	}
	for _, bad := range []string{
		"", "x", name + "x", strings.Replace(name, "-", "_", 1),
		spanKey{digest, 12345, 1}.String(), // off+len > size
		spanKey{digest, 0, 0}.String(),     // empty span
	} {
		if _, ok := parseSpanKey(bad); ok {
			t.Errorf("parseSpanKey(%q) accepted", bad)
		}
	}
}

func TestPutRejectsOutOfBounds(t *testing.T) {
	c, err := New(Config{MemoryBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	_, key := object(t, 600, 1000)
	if err := c.Put(key, 900, make([]byte, 200)); err == nil {
		t.Fatal("out-of-bounds put accepted")
	}
	if err := c.Put(key, -1, make([]byte, 1)); err == nil {
		t.Fatal("negative offset accepted")
	}
	if err := c.Put(key, 0, nil); err != nil {
		t.Fatalf("empty put: %v", err)
	}
	_, huge := object(t, 601, 2<<20)
	if err := c.Put(huge, 0, make([]byte, 2<<20)); err == nil || c.Fits(2<<20) {
		t.Fatal("put beyond the memory budget accepted")
	}
	if st := c.Stats(); st.Objects != 0 || st.MemBytes != 0 {
		t.Fatalf("rejected puts left state behind: %+v", st)
	}
}

func TestConcurrentPutOpen(t *testing.T) {
	c, err := New(Config{MemoryBytes: 4 << 20, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 8)
	for g := int64(0); g < 8; g++ {
		go func(g int64) {
			data, key := object(t, 700+g%3, 128<<10) // 3 distinct objects, contended
			for i := 0; i < 20; i++ {
				if err := c.Put(key, 0, data); err != nil {
					done <- err
					return
				}
				rc, err := c.Open(key, wire.ByteRange{Off: 0, Len: key.Size})
				if err != nil {
					continue
				}
				got, rerr := io.ReadAll(rc)
				rc.Close()
				if rerr == nil && !bytes.Equal(got, data) {
					done <- errors.New("concurrent read returned wrong bytes")
					return
				}
			}
			done <- nil
		}(g)
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
