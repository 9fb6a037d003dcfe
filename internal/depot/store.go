package depot

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"io"
	"sync"

	"github.com/netlogistics/lsl/internal/blobstore"
	"github.com/netlogistics/lsl/internal/lsl"
	"github.com/netlogistics/lsl/internal/wire"
)

// DefaultStoreBytes bounds a depot's asynchronous-session storage.
const DefaultStoreBytes = 256 << 20

// DefaultSpoolBytes bounds the disk spool when Config.SpoolBytes is
// zero.
const DefaultSpoolBytes = 1 << 30

// spoolExt suffixes spooled payload files: <session id>-<length hex>.sb.
// It differs from the cache's, so both may share one directory.
const spoolExt = ".sb"

// sessionStore holds stored payloads keyed by session id — the
// short-term, cooperative storage of user data the paper's
// introduction proposes. Each payload is one CRC-framed blob in a
// blobstore: memory up to the store budget, then the optional spool
// directory up to its own budget, one recency order across both.
type sessionStore struct {
	mu       sync.Mutex
	blobs    *blobstore.Store[wire.SessionID]
	capacity int64 // memory budget, and the largest payload a store session may send
	evicted  int64
	// Crash recovery's report, set before the store is shared: entries
	// re-indexed, and spool files deleted instead (.tmp leftovers,
	// damaged .sb files).
	recovered, reindexDropped int64
}

// newSessionStore builds the store; with a spool directory it also
// runs crash recovery, re-indexing every verifiable spooled payload.
func newSessionStore(capacity int64, spoolDir string, spoolBytes int64) (*sessionStore, error) {
	if capacity <= 0 {
		capacity = DefaultStoreBytes
	}
	if spoolBytes <= 0 {
		spoolBytes = DefaultSpoolBytes
	}
	blobs, rec, err := blobstore.New(spoolDir, spoolExt, capacity, spoolBytes, parseSessionID)
	if err != nil {
		return nil, fmt.Errorf("depot: spool: %w", err)
	}
	return &sessionStore{blobs: blobs, capacity: capacity, evicted: int64(rec.Evicted),
		recovered: int64(len(rec.Keys) + rec.Evicted), reindexDropped: int64(rec.Dropped)}, nil
}

// parseSessionID inverts wire.SessionID.String for the spool's file
// names.
func parseSessionID(s string) (id wire.SessionID, ok bool) {
	if len(s) != hex.EncodedLen(len(id)) {
		return id, false
	}
	_, err := hex.Decode(id[:], []byte(s))
	return id, err == nil
}

// putFrames stores a CRC-framed payload under id, replacing any
// earlier one, and returns its payload length.
func (s *sessionStore) putFrames(id wire.SessionID, frames []byte) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	evicted, err := s.blobs.Put(id, frames)
	s.evicted += int64(len(evicted))
	n, _ := s.blobs.Len(id)
	return n, err
}

// open returns a reader over id's payload, verified whole, and makes it
// the most recently used. A payload that fails verification (the error
// wraps wire.ErrChecksum), or a spilled file gone from under the
// index, is dropped. Verification runs outside the lock.
func (s *sessionStore) open(id wire.SessionID) (*blobstore.Reader, error) {
	s.mu.Lock()
	s.blobs.Touch(id)
	r, err := s.blobs.Open(id)
	s.mu.Unlock()
	if err == nil {
		if err = r.Verify(); err == nil {
			return r, nil
		}
		r.Close()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.blobs.Remove(id)
	return nil, err
}

// usage reports (bytes held across both tiers, entry count, evictions).
func (s *sessionStore) usage() (int64, int, int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.blobs.Stats()
	return st.MemBytes + st.DiskBytes, st.Blobs, s.evicted
}

// spoolUsage reports the disk tier: bytes on disk, entries spilled so
// far, entries re-indexed by crash recovery, and payloads read back.
func (s *sessionStore) spoolUsage() (bytes int64, spilled, recovered, restored int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.blobs.Stats()
	return st.DiskBytes, st.Spilled, s.recovered, st.DiskOpens
}

// handleStore implements the storing half of asynchronous sessions: a
// TypeStore session addressed to this depot is absorbed into the store;
// one addressed elsewhere is forwarded like data with its type intact.
func (s *Server) handleStore(sess *lsl.Session, f *flow) error {
	defer sess.Close()
	l, err := s.onward(sess, f, legSpec{kind: "store", typ: wire.TypeStore,
		here: func() error { return s.keep(sess, f) }})
	if l == nil {
		return err
	}
	return s.relay(sess, f, l, l, s.checkedSource(sess), nil)
}

// keep absorbs a store session addressed to this depot into the store.
func (s *Server) keep(sess *lsl.Session, f *flow) error {
	// The storing depot is the payload's terminus. A checksummed stream
	// is kept as the frames it arrived in, each verified on the way in;
	// a plain one is framed here, once. The stream is buffered whole, so
	// the memory budget bounds it (framed, for a checksummed one).
	limit := s.store.capacity
	var buf bytes.Buffer
	var n int64
	var err error
	if sess.Header.Checksummed() {
		n, err = io.Copy(&buf, io.LimitReader(wire.NewVerifyingReader(sess), limit+1))
	} else {
		n, err = io.Copy(wire.NewFrameWriter(&buf), io.LimitReader(sess, limit+1))
	}
	f.addBytes(n)
	if err != nil {
		return s.flagCorrupt(sess, f, fmt.Errorf("store read: %w", err))
	}
	if n > limit {
		return blobstore.ErrTooLarge
	}
	payload, err := s.store.putFrames(sess.ID(), buf.Bytes())
	if err != nil {
		return err
	}
	s.met.stored.inc()
	s.met.bytesStored.add(payload)
	return nil
}

// handleFetch implements the reading half: the receiver names a stored
// session id and the depot streams the payload back as a TypeData
// response on the same connection.
func (s *Server) handleFetch(sess *lsl.Session, f *flow) error {
	defer sess.Close()
	opt, found := sess.Header.Option(wire.OptFetchID)
	if !found {
		return fmt.Errorf("fetch session %s: %w", sess.Header.Session, wire.ErrOptionMissing)
	}
	id, err := wire.ParseFetchID(opt)
	if err != nil {
		return err
	}
	// A fetch response carries no length, so a payload cut short at
	// damage would read as a shorter one: open verifies it whole first.
	payload, err := s.store.open(id)
	if err != nil {
		// Unknown or damaged id: answer with a refusal so the receiver
		// can distinguish "not here" from a transport failure.
		s.refuse(sess, f, fmt.Errorf("stored session %s: %w", id, err), &s.met.fetchMisses)
		return nil
	}
	defer payload.Close()
	resp := &wire.Header{
		Version: wire.Version1,
		Type:    wire.TypeData,
		Session: id,
		Src:     s.cfg.Self,
		Dst:     sess.Header.Src,
	}
	if err := wire.WriteHeader(sess.Conn, resp); err != nil {
		return err
	}
	n, err := io.Copy(sess.Conn, payload)
	// Bytes that made it onto the wire are counted even when the copy
	// fails partway — partial transfers must not vanish from the stats.
	s.met.bytesFetched.add(n)
	if err != nil {
		return fmt.Errorf("fetch: %w", err)
	}
	s.met.fetched.inc()
	return nil
}

// StoreUsage reports the async store's occupancy: bytes held, entries,
// and evictions so far.
func (s *Server) StoreUsage() (bytes int64, entries int, evicted int64) {
	return s.store.usage()
}

// SpoolUsage reports the durable disk tier: bytes spooled, entries
// spilled from memory, entries re-indexed by crash recovery, and
// spooled payloads read back since start.
func (s *Server) SpoolUsage() (bytes int64, spilled, recovered, restored int64) {
	return s.store.spoolUsage()
}

// StoredSession reports whether the store holds the given session and
// how many bytes it has.
func (s *Server) StoredSession(id wire.SessionID) (int64, bool) {
	s.store.mu.Lock()
	defer s.store.mu.Unlock()
	return s.store.blobs.Len(id)
}
