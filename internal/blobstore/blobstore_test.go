package blobstore

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/netlogistics/lsl/internal/wire"
)

// testExt suffixes the test store's blob files.
const testExt = ".b"

// name is the test key: lowercase letters only.
type name string

func (n name) String() string { return string(n) }

func parseTestKey(s string) (name, bool) {
	if s == "" || strings.Trim(s, "abcdefghijklmnopqrstuvwxyz") != "" {
		return "", false
	}
	return name(s), true
}

// framed frames payload as chunks of at most chunk bytes, the way a
// sender writing chunk-sized buffers through a FrameWriter would.
func framed(payload []byte, chunk int) []byte {
	var out []byte
	for len(payload) > 0 {
		n := min(chunk, len(payload))
		out = wire.AppendFrames(out, payload[:n])
		payload = payload[n:]
	}
	return out
}

func payloadOf(seed byte, n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = seed + byte(i*7)
	}
	return p
}

func newStore(t *testing.T, dir string, mem, disk int64) (*Store[name], Recovery[name]) {
	t.Helper()
	s, rec, err := New(dir, testExt, mem, disk, parseTestKey)
	if err != nil {
		t.Fatal(err)
	}
	return s, rec
}

func put(t *testing.T, s *Store[name], k name, frames []byte) []name {
	t.Helper()
	evicted, err := s.Put(k, frames)
	if err != nil {
		t.Fatalf("Put(%s): %v", k, err)
	}
	return append([]name(nil), evicted...)
}

// read opens and drains one blob.
func read(s *Store[name], k name) ([]byte, error) {
	r, err := s.Open(k)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return io.ReadAll(r)
}

// verifiedRead verifies the blob under k whole before reading it, the
// way a caller that cannot signal damage mid-answer does.
func verifiedRead(s *Store[name], k name) ([]byte, error) {
	r, err := s.Open(k)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	if err := r.Verify(); err != nil {
		return nil, err
	}
	return io.ReadAll(r)
}

func TestPutOpenEvictMemoryOnly(t *testing.T) {
	s, _ := newStore(t, "", 10, 0)
	if ev := put(t, s, "a", framed([]byte("aaaa"), 2)); len(ev) != 0 {
		t.Fatalf("evicted %v under budget", ev)
	}
	put(t, s, "b", framed([]byte("bbbb"), 4))
	s.Touch("a") // a is now warmer than b
	if ev := put(t, s, "c", framed([]byte("cccc"), 4)); len(ev) != 1 || ev[0] != "b" {
		t.Fatalf("evicted %v, want the coldest, b", ev)
	}
	if got, err := read(s, "a"); err != nil || string(got) != "aaaa" {
		t.Fatalf("read a = %q, %v", got, err)
	}
	if _, err := s.Open("b"); !errors.Is(err, ErrNotHeld) {
		t.Fatalf("Open(evicted) = %v, want ErrNotHeld", err)
	}
	// Replacing is not an eviction, and the budget counts payload bytes.
	if ev := put(t, s, "a", framed([]byte("AA"), 2)); len(ev) != 0 {
		t.Fatalf("replace evicted %v", ev)
	}
	if n, ok := s.Len("a"); !ok || n != 2 {
		t.Fatalf("Len(a) = %d, %v", n, ok)
	}
	if st := s.Stats(); st.MemBytes != 6 || st.DiskBytes != 0 || st.Blobs != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if !s.Remove("a") || s.Remove("a") {
		t.Fatal("Remove did not report presence")
	}
	if _, err := s.Put("x", framed(make([]byte, 11), 11)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized Put = %v, want ErrTooLarge", err)
	}
	if s.MaxPayload() != 10 {
		t.Fatalf("MaxPayload = %d", s.MaxPayload())
	}
	for _, bad := range [][]byte{{0, 0, 0}, {0, 0, 0, 0, 0, 0, 0, 0}, {0, 0, 0, 9, 0, 0, 0, 0, 1}} {
		if _, err := s.Put("bad", bad); !errors.Is(err, wire.ErrChecksum) {
			t.Fatalf("Put(malformed %v) = %v, want ErrChecksum", bad, err)
		}
	}
	if ev := put(t, s, "e", nil); len(ev) != 0 {
		t.Fatal("empty blob evicted something")
	}
	if got, err := read(s, "e"); err != nil || len(got) != 0 {
		t.Fatalf("empty blob read = %q, %v", got, err)
	}
}

func TestSpillEvictAndCapturedReads(t *testing.T) {
	dir := t.TempDir()
	s, _ := newStore(t, dir, 4, 8)
	a := payloadOf(1, 4)
	put(t, s, "a", framed(a, 3))
	// Open a while it is in memory: the read must survive its spill.
	ra, err := s.Open("a")
	if err != nil {
		t.Fatal(err)
	}
	defer ra.Close()
	put(t, s, "b", framed(payloadOf(2, 4), 4)) // spills a
	put(t, s, "c", framed(payloadOf(3, 4), 4)) // spills b: disk full
	// Open b from disk: the read must survive its eviction.
	rb, err := s.Open("b")
	if err != nil {
		t.Fatal(err)
	}
	defer rb.Close()
	s.Touch("a")
	if ev := put(t, s, "d", framed(payloadOf(4, 4), 4)); len(ev) != 1 || ev[0] != "b" {
		t.Fatalf("disk overflow evicted %v, want the coldest disk blob, b", ev)
	}
	if got, err := io.ReadAll(ra); err != nil || !bytes.Equal(got, a) {
		t.Fatalf("read captured before spill = %v, %v", got, err)
	}
	if got, err := io.ReadAll(rb); err != nil || !bytes.Equal(got, payloadOf(2, 4)) {
		t.Fatalf("read captured before eviction = %v, %v", got, err)
	}
	if got, err := read(s, "a"); err != nil || !bytes.Equal(got, a) {
		t.Fatalf("spilled a reads %v, %v", got, err)
	}
	if st := s.Stats(); st.MemBytes != 4 || st.DiskBytes != 8 || st.Spilled != 3 || st.DiskOpens != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if s.MaxPayload() != 8 {
		t.Fatalf("MaxPayload = %d, want the disk budget", s.MaxPayload())
	}
	// A blob bigger than memory but within the disk budget goes
	// straight to disk.
	put(t, s, "big", framed(payloadOf(5, 6), 4))
	if st := s.Stats(); st.MemBytes != 0 || st.DiskBytes != 6 {
		t.Fatalf("after an oversized put: %+v", st)
	}
	// A spilled file gone from under the index fails at Open.
	os.Remove(filepath.Join(dir, "big-6.b"))
	if _, err := s.Open("big"); err == nil {
		t.Fatal("Open of a vanished file succeeded")
	}
}

func TestSpillFailureEvicts(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "gone")
	s, _ := newStore(t, dir, 4, 100)
	put(t, s, "a", framed([]byte("aaaa"), 4))
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if ev := put(t, s, "b", framed([]byte("bbbb"), 4)); len(ev) != 1 || ev[0] != "a" {
		t.Fatalf("failed spill evicted %v, want a", ev)
	}
	if st := s.Stats(); st.Spilled != 0 || st.DiskBytes != 0 {
		t.Fatalf("failed spill counted: %+v", st)
	}
}

func TestTamper(t *testing.T) {
	dir := t.TempDir()
	s, _ := newStore(t, dir, 10, 100)
	p := payloadOf(7, 10)
	put(t, s, "mem", framed(p, 4))
	put(t, s, "disk", framed(p, 4))
	put(t, s, "hot", framed(p, 4)) // spills mem, then disk
	put(t, s, "mem", framed(p, 4)) // back in memory
	for _, k := range []name{"mem", "disk"} {
		if !s.Tamper(k, 5) {
			t.Fatalf("Tamper(%s) found no byte", k)
		}
		got, err := read(s, k)
		if !errors.Is(err, wire.ErrChecksum) {
			t.Fatalf("%s: read after tamper = %v, want ErrChecksum", k, err)
		}
		if !bytes.Equal(got, p[:4]) {
			t.Fatalf("%s: verified prefix = %v, want the first frame", k, got)
		}
	}
	if s.Tamper("hot", 10) || s.Tamper("none", 0) {
		t.Fatal("Tamper past the payload or of a missing key succeeded")
	}
}

// spilledBlob builds a store over dir whose blob "a" (three frames)
// has spilled to disk, and returns the store, a's payload and file.
func spilledBlob(t *testing.T, dir string) (*Store[name], []byte, string) {
	t.Helper()
	s, _ := newStore(t, dir, 300, 1<<20)
	p := payloadOf(9, 300)
	put(t, s, "a", framed(p, 100))
	put(t, s, "b", framed(payloadOf(3, 300), 100)) // spills a
	path := filepath.Join(dir, "a-12c.b")
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("spilled file: %v", err)
	}
	return s, p, path
}

func flip(t *testing.T, path string, pos int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[pos] ^= 0x10
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func write(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryMatrix is the crash and at-rest damage matrix of the disk
// tier. Each row damages the directory holding a spilled three-frame
// blob "a" (frames of 108 bytes on disk), then checks a live read of
// a — served intact, or cut short with wire.ErrChecksum, never wrong
// bytes — a live Verify, which refuses damage before a byte is read,
// and a restart re-index over the same directory: what is re-indexed,
// what is deleted and counted, and what is left alone.
func TestRecoveryMatrix(t *testing.T) {
	const frame = wire.FrameHeaderLen + 100
	rows := []struct {
		name    string
		damage  func(t *testing.T, dir, path string)
		aBroken bool     // a's bytes were damaged: live read and re-index refuse it
		dropped int      // files re-index deletes and counts
		held    []name   // blobs re-index brings back
		left    []string // files that must remain afterwards
		gone    []string // files that must be deleted
	}{
		{
			name: "tmp written, crash before rename",
			damage: func(t *testing.T, dir, _ string) {
				write(t, filepath.Join(dir, "c-64.b.123.tmp"), framed(payloadOf(4, 100), 100))
			},
			dropped: 1, held: []name{"a"}, gone: []string{"c-64.b.123.tmp"},
		},
		{
			name: "renamed, crash before indexing",
			damage: func(t *testing.T, dir, _ string) {
				write(t, filepath.Join(dir, "c-64.b"), framed(payloadOf(4, 100), 100))
			},
			held: []name{"a", "c"}, left: []string{"a-12c.b", "c-64.b"},
		},
		{
			name:    "truncated at a frame boundary",
			damage:  func(t *testing.T, _, path string) { os.Truncate(path, 2*frame) },
			aBroken: true, dropped: 1, gone: []string{"a-12c.b"},
		},
		{
			name:    "truncated mid-frame",
			damage:  func(t *testing.T, _, path string) { os.Truncate(path, frame+50) },
			aBroken: true, dropped: 1, gone: []string{"a-12c.b"},
		},
		{
			name: "appended frame",
			damage: func(t *testing.T, _, path string) {
				data, _ := os.ReadFile(path)
				write(t, path, wire.AppendFrames(data, []byte("more")))
			},
			aBroken: true, dropped: 1, gone: []string{"a-12c.b"},
		},
		{
			name:    "flipped payload bit",
			damage:  func(t *testing.T, _, path string) { flip(t, path, frame+wire.FrameHeaderLen+40) },
			aBroken: true, dropped: 1, gone: []string{"a-12c.b"},
		},
		{
			name:    "flipped header bit",
			damage:  func(t *testing.T, _, path string) { flip(t, path, frame+5) },
			aBroken: true, dropped: 1, gone: []string{"a-12c.b"},
		},
		{
			name: "unparseable .b name",
			damage: func(t *testing.T, dir, _ string) {
				for _, n := range []string{"junk.b", "Upper-64.b", "c-064.b", "c-zz.b"} {
					write(t, filepath.Join(dir, n), framed(payloadOf(4, 100), 100))
				}
			},
			dropped: 4, held: []name{"a"}, gone: []string{"junk.b", "Upper-64.b", "c-064.b", "c-zz.b"},
		},
		{
			name: "foreign file",
			damage: func(t *testing.T, dir, _ string) {
				write(t, filepath.Join(dir, "notes.txt"), []byte("operator notes"))
				write(t, filepath.Join(dir, strings.Repeat("0", 64)+"."+strings.Repeat("0", 32)+".p"), []byte("old spool"))
				os.Mkdir(filepath.Join(dir, "sub.b"), 0o755)
				// Another store's blob and spill, sharing the directory.
				write(t, filepath.Join(dir, "c-64.x"), []byte("other store"))
				write(t, filepath.Join(dir, "c-64.x.123.tmp"), []byte("other spill"))
			},
			held: []name{"a"}, left: []string{"notes.txt", strings.Repeat("0", 64) + "." + strings.Repeat("0", 32) + ".p", "sub.b", "c-64.x", "c-64.x.123.tmp"},
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			dir := t.TempDir()
			s, p, path := spilledBlob(t, dir)
			row.damage(t, dir, path)

			got, err := read(s, "a")
			switch {
			case row.aBroken && !errors.Is(err, wire.ErrChecksum):
				t.Fatalf("live read of damaged a: err = %v, want ErrChecksum", err)
			case !row.aBroken && (err != nil || !bytes.Equal(got, p)):
				t.Fatalf("live read of intact a = %d bytes, %v", len(got), err)
			case !bytes.Equal(got, p[:len(got)]):
				t.Fatal("live read served bytes that differ from what was stored")
			}
			got, err = verifiedRead(s, "a")
			if row.aBroken && (!errors.Is(err, wire.ErrChecksum) || got != nil) {
				t.Fatalf("verified read of damaged a = %d bytes, %v; want ErrChecksum before any byte", len(got), err)
			}
			if !row.aBroken && (err != nil || !bytes.Equal(got, p)) {
				t.Fatalf("verified read of intact a = %d bytes, %v", len(got), err)
			}
			if _, err := s.Open("c"); !errors.Is(err, ErrNotHeld) {
				t.Fatalf("live store serves a blob it never indexed: %v", err)
			}

			s2, rec := newStore(t, dir, 300, 1<<20)
			if rec.Dropped != row.dropped || rec.Evicted != 0 || len(rec.Keys) != len(row.held) {
				t.Fatalf("re-index = %+v, want %d dropped and %v held", rec, row.dropped, row.held)
			}
			for _, k := range row.held {
				if _, err := read(s2, k); err != nil {
					t.Fatalf("re-indexed %s unreadable: %v", k, err)
				}
			}
			if _, ok := s2.Len("a"); ok == row.aBroken {
				t.Fatalf("damaged=%v a re-indexed=%v", row.aBroken, ok)
			}
			for _, f := range row.left {
				if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
					t.Fatalf("%s not left alone: %v", f, err)
				}
			}
			for _, f := range row.gone {
				if _, err := os.Stat(filepath.Join(dir, f)); !os.IsNotExist(err) {
					t.Fatalf("%s not deleted (%v)", f, err)
				}
			}
		})
	}
}

// TestReindexRecencyAndBudget: re-index rebuilds recency from file
// modification times, keeps the first of two files claiming one key,
// and evicts the oldest files a smaller disk budget cannot hold.
func TestReindexRecencyAndBudget(t *testing.T) {
	dir := t.TempDir()
	now := time.Now()
	for i, k := range []string{"d", "c", "b", "a"} { // a newest
		path := filepath.Join(dir, fmt.Sprintf("%s-%x.b", k, 10))
		write(t, path, framed(payloadOf(byte(i), 10), 4))
		at := now.Add(time.Duration(i-4) * time.Hour)
		if err := os.Chtimes(path, at, at); err != nil {
			t.Fatal(err)
		}
	}
	// A second, newer file for key "a".
	write(t, filepath.Join(dir, "a-4.b"), framed([]byte("dupe"), 4))

	s, rec := newStore(t, dir, 5, 25)
	if len(rec.Keys) != 2 || rec.Dropped != 1 || rec.Evicted != 2 {
		t.Fatalf("re-index = %+v, want 2 kept, 1 duplicate dropped, 2 evicted", rec)
	}
	if fmt.Sprint(rec.Keys) != "[b a]" {
		t.Fatalf("kept %v coldest first, want [b a]", rec.Keys)
	}
	if n, _ := s.Len("a"); n != 10 {
		t.Fatalf("duplicate key kept the newer file (len %d)", n)
	}
	for _, f := range []string{"d-a.b", "c-a.b", "a-4.b"} {
		if _, err := os.Stat(filepath.Join(dir, f)); !os.IsNotExist(err) {
			t.Fatalf("%s survived re-index (%v)", f, err)
		}
	}
	if _, _, err := New(filepath.Join(dir, "b-a.b"), testExt, 5, 25, parseTestKey); err == nil {
		t.Fatal("New over a file instead of a directory succeeded")
	}
}

// TestStoresShareDirectory: two stores with their own extensions over
// one directory each re-index only their own blobs after a restart and
// leave the other's, spills included, alone.
func TestStoresShareDirectory(t *testing.T) {
	dir := t.TempDir()
	open := func(ext string) (*Store[name], Recovery[name]) {
		s, rec, err := New(dir, ext, 4, 1<<10, parseTestKey)
		if err != nil {
			t.Fatal(err)
		}
		return s, rec
	}
	x, _ := open(".x")
	y, _ := open(".y")
	for _, s := range []*Store[name]{x, y} {
		put(t, s, "a", framed([]byte("aaaa"), 4))
		put(t, s, "b", framed([]byte("bbbb"), 4)) // spills a
	}
	write(t, filepath.Join(dir, "c-4.y.123.tmp"), []byte("torn"))

	x, recX := open(".x")
	if recX.Dropped != 0 || fmt.Sprint(recX.Keys) != "[a]" {
		t.Fatalf("x re-index = %+v, want a only, nothing dropped", recX)
	}
	if _, err := os.Stat(filepath.Join(dir, "c-4.y.123.tmp")); err != nil {
		t.Fatalf("x swept y's spill: %v", err)
	}
	y, recY := open(".y")
	if recY.Dropped != 1 || fmt.Sprint(recY.Keys) != "[a]" {
		t.Fatalf("y re-index = %+v, want a and its own torn spill dropped", recY)
	}
	for _, s := range []*Store[name]{x, y} {
		if got, err := read(s, "a"); err != nil || string(got) != "aaaa" {
			t.Fatalf("re-indexed a = %q, %v", got, err)
		}
	}
}
