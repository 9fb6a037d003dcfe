package depot

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"

	"github.com/netlogistics/lsl/internal/blobstore"
	"github.com/netlogistics/lsl/internal/cache"
	"github.com/netlogistics/lsl/internal/wire"
)

// errTooLarge is what the store answers a payload beyond its budgets.
var errTooLarge = blobstore.ErrTooLarge

// put frames a plain payload and stores it, as handleStore does for a
// plain stream.
func (s *sessionStore) put(id wire.SessionID, payload []byte) error {
	_, err := s.putFrames(id, wire.AppendFrames(nil, payload))
	return err
}

// get opens a stored payload as handleFetch does — verified whole, a
// damaged one dropped and reported missing — and reads it back.
func (s *sessionStore) get(id wire.SessionID) ([]byte, bool) {
	r, err := s.open(id)
	if err != nil {
		return nil, false
	}
	defer r.Close()
	data, err := io.ReadAll(r)
	return data, err == nil
}

// memStore builds a memory-only session store for unit tests.
func memStore(t *testing.T, capacity int64) *sessionStore {
	t.Helper()
	s, err := newSessionStore(capacity, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// spoolStore builds a store with a disk tier in a test directory.
func spoolStore(t *testing.T, capacity, spoolBytes int64, dir string) *sessionStore {
	t.Helper()
	s, err := newSessionStore(capacity, dir, spoolBytes)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSessionStoreReplaceThenEvict is the regression for the old
// insertion-ordered eviction: replacing an entry must not leave a
// stale order slot behind, and the next eviction must pick the true
// least-recently-used payload.
func TestSessionStoreReplaceThenEvict(t *testing.T) {
	s := memStore(t, 10)
	a, b, c := wire.SessionID{1}, wire.SessionID{2}, wire.SessionID{3}
	s.put(a, []byte("aaaa"))
	s.put(b, []byte("bbbb"))
	// Replacing a makes it the most recently used entry.
	s.put(a, []byte("AAAA"))
	// c overflows the 10-byte budget: b, now coldest, must go — not a.
	s.put(c, []byte("ccc"))
	if _, ok := s.get(b); ok {
		t.Fatal("replace-then-evict: stale LRU order kept b alive")
	}
	data, ok := s.get(a)
	if !ok || string(data) != "AAAA" {
		t.Fatalf("replaced entry lost: %q, %v", data, ok)
	}
	if _, _, evicted := s.usage(); evicted != 1 {
		t.Fatalf("evicted = %d, want 1", evicted)
	}
}

// TestSessionStoreRecencyEviction verifies eviction order follows use,
// not insertion: touching the oldest entry saves it.
func TestSessionStoreRecencyEviction(t *testing.T) {
	s := memStore(t, 10)
	a, b, c := wire.SessionID{1}, wire.SessionID{2}, wire.SessionID{3}
	s.put(a, []byte("aaaa"))
	s.put(b, []byte("bbbb"))
	s.get(a) // a is now more recently used than b
	s.put(c, []byte("cccc"))
	if _, ok := s.get(a); !ok {
		t.Fatal("recently-read entry evicted")
	}
	if _, ok := s.get(b); ok {
		t.Fatal("least-recently-used entry survived")
	}
}

// TestSessionStoreSpillAndRestore overflows the memory budget and
// expects the coldest payload to move to the spool — and to come back,
// intact, on its next read.
func TestSessionStoreSpillAndRestore(t *testing.T) {
	dir := t.TempDir()
	s := spoolStore(t, 10, 1<<20, dir)
	a, b, c := wire.SessionID{1}, wire.SessionID{2}, wire.SessionID{3}
	s.put(a, []byte("aaaa"))
	s.put(b, []byte("bbbb"))
	s.put(c, []byte("cccc")) // spills a instead of evicting it

	if diskBytes, spilled, _, _ := s.spoolUsage(); diskBytes != 4 || spilled != 1 {
		t.Fatalf("spool usage = %d bytes, %d spilled", diskBytes, spilled)
	}
	if _, _, evicted := s.usage(); evicted != 0 {
		t.Fatalf("spill counted as eviction (%d)", evicted)
	}
	data, ok := s.get(a)
	if !ok || string(data) != "aaaa" {
		t.Fatalf("spilled payload read back as %q, %v", data, ok)
	}
	if _, _, _, restored := s.spoolUsage(); restored != 1 {
		t.Fatal("restore not counted")
	}
}

// TestSessionStoreSpoolEviction fills the disk tier past its budget
// and expects the coldest spooled payload to be deleted for good.
func TestSessionStoreSpoolEviction(t *testing.T) {
	dir := t.TempDir()
	s := spoolStore(t, 4, 8, dir)
	a, b, c := wire.SessionID{1}, wire.SessionID{2}, wire.SessionID{3}
	s.put(a, []byte("aaaa")) // fills memory
	s.put(b, []byte("bbbb")) // spills a
	s.put(c, []byte("cccc")) // spills b; disk now 8 bytes — at budget
	s.put(wire.SessionID{4}, []byte("dddd"))
	// c spilled; disk would hold 12 > 8, so a (coldest) is evicted.
	if _, ok := s.get(a); ok {
		t.Fatal("spool over budget kept its coldest entry")
	}
	if _, ok := s.get(b); !ok {
		t.Fatal("warmer spooled entry evicted")
	}
	if _, _, evicted := s.usage(); evicted != 1 {
		t.Fatalf("evicted = %d, want 1", evicted)
	}
}

// TestSpoolCrashRecovery simulates a depot restart: a fresh store over
// the same directory must re-index every intact payload and serve it.
func TestSpoolCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	s := spoolStore(t, 4, 1<<20, dir)
	a, b := wire.SessionID{1}, wire.SessionID{2}
	s.put(a, []byte("aaaa"))
	s.put(b, []byte("bbbb")) // spills a to disk
	// "Crash": drop the store, keep the directory. Only a's payload is
	// durable — b was still memory-resident.
	s2 := spoolStore(t, 4, 1<<20, dir)
	if _, spilled, recovered, _ := s2.spoolUsage(); recovered != 1 || spilled != 0 {
		t.Fatalf("recovery: recovered = %d, spilled = %d", recovered, spilled)
	}
	data, ok := s2.get(a)
	if !ok || string(data) != "aaaa" {
		t.Fatalf("recovered payload = %q, %v", data, ok)
	}
	if _, ok := s2.get(b); ok {
		t.Fatal("memory-resident payload survived a crash")
	}
}

// TestSpoolRecoveryDropsTornWrites plants a half-written .tmp file and
// a finished file whose frames no longer verify; recovery must delete
// both, count them, and index neither.
func TestSpoolRecoveryDropsTornWrites(t *testing.T) {
	dir := t.TempDir()
	// A torn in-flight write: the spill crashed before its rename.
	torn := wire.SessionID{8}
	tmpName := torn.String() + "-4.sb.123.tmp"
	if err := os.WriteFile(filepath.Join(dir, tmpName), []byte("half"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A completed file damaged at rest: valid name, a flipped payload
	// bit under an intact frame header.
	id := wire.SessionID{7}
	frames := wire.AppendFrames(nil, []byte("original"))
	frames[wire.FrameHeaderLen+3] ^= 0x10
	badName := id.String() + "-8.sb"
	if err := os.WriteFile(filepath.Join(dir, badName), frames, 0o644); err != nil {
		t.Fatal(err)
	}

	s := spoolStore(t, 100, 1<<20, dir)
	if _, _, recovered, _ := s.spoolUsage(); recovered != 0 {
		t.Fatalf("recovered %d torn entries", recovered)
	}
	if dropped := s.reindexDropped; dropped != 2 {
		t.Fatalf("re-index dropped %d files, want 2 (tmp + damaged)", dropped)
	}
	if _, ok := s.get(id); ok {
		t.Fatal("damaged payload served after recovery")
	}
	if _, ok := s.get(torn); ok {
		t.Fatal("torn write served after recovery")
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(des) != 0 {
		t.Fatalf("torn files left behind: %v", des)
	}
}

// TestSpoolDamagedAtRestIsMiss corrupts a spooled payload in place; a
// read must report a miss, never wrong bytes, and drop the entry.
func TestSpoolDamagedAtRestIsMiss(t *testing.T) {
	dir := t.TempDir()
	s := spoolStore(t, 4, 1<<20, dir)
	a := wire.SessionID{1}
	s.put(a, []byte("aaaa"))
	s.put(wire.SessionID{2}, []byte("bbbb")) // spills a

	des, err := os.ReadDir(dir)
	if err != nil || len(des) != 1 {
		t.Fatalf("spool dir entries = %v (%v)", des, err)
	}
	path := filepath.Join(dir, des[0].Name())
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[wire.FrameHeaderLen] = 'X' // "aaaa" becomes "Xaaa" under the old CRC
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if data, ok := s.get(a); ok {
		t.Fatalf("damaged payload served: %q", data)
	}
	if _, entries, _ := s.usage(); entries != 1 {
		t.Fatalf("damaged entry not dropped (entries = %d)", entries)
	}
}

// TestSpoolRoundTripLargePayload pushes a payload bigger than one
// write through spill and restore unchanged.
func TestSpoolRoundTripLargePayload(t *testing.T) {
	dir := t.TempDir()
	s := spoolStore(t, 1<<16, 1<<24, dir)
	a := wire.SessionID{9}
	payload := bytes.Repeat([]byte("grid data, durably staged "), 2000)
	s.put(a, payload)
	s.put(wire.SessionID{10}, make([]byte, 1<<16)) // forces a out to disk
	got, ok := s.get(a)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("spill round-trip lost data (ok=%v, %d bytes)", ok, len(got))
	}
}

// TestSpoolAndCacheShareDirectory: the spool and the content cache may
// spill into one directory. After a restart each re-indexes its own
// files, deletes none of the other's, and serves what it spilled.
func TestSpoolAndCacheShareDirectory(t *testing.T) {
	dir := t.TempDir()
	newCache := func() *cache.Cache {
		c, err := cache.New(cache.Config{MemoryBytes: 4, Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	obj := []byte("cached")
	key := digestOf(obj)
	c := newCache()
	c.Put(key, 0, obj[:3])
	c.Put(key, 3, obj[3:]) // spills the first span
	s := spoolStore(t, 4, 1<<20, dir)
	a := wire.SessionID{1}
	s.put(a, []byte("aaaa"))
	s.put(wire.SessionID{2}, []byte("bbbb")) // spills a

	s = spoolStore(t, 4, 1<<20, dir)
	c = newCache()
	if dropped := s.reindexDropped; dropped != 0 {
		t.Fatalf("spool re-index dropped %d files", dropped)
	}
	if st := c.Stats(); st.Dropped != 0 || st.Recovered != 1 {
		t.Fatalf("cache re-index = %+v, want 1 span recovered, none dropped", st)
	}
	if data, ok := s.get(a); !ok || string(data) != "aaaa" {
		t.Fatalf("spooled payload after restart = %q, %v", data, ok)
	}
	r, err := c.Open(key, wire.ByteRange{Off: 0, Len: 3})
	if err != nil {
		t.Fatalf("cached span after restart: %v", err)
	}
	got, err := io.ReadAll(r)
	r.Close()
	if err != nil || string(got) != "cac" {
		t.Fatalf("cached span after restart = %q, %v", got, err)
	}
}
