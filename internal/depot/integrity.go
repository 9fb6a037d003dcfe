package depot

import (
	"crypto/sha256"
	"errors"
	"io"

	"github.com/netlogistics/lsl/internal/lsl"
	"github.com/netlogistics/lsl/internal/obs"
	"github.com/netlogistics/lsl/internal/wire"
)

// checkedSource returns the reader a pump should move payload from:
// for a checksummed session the stream passes through a per-chunk
// CRC-32C verifier that re-stamps each frame before it is forwarded,
// so a corrupting hop is caught by its immediate successor. Unchecked
// sessions read straight through.
func (s *Server) checkedSource(sess *lsl.Session) io.Reader {
	if sess.Header.Checksummed() {
		return wire.NewVerifyingReader(sess)
	}
	return sess
}

// flagCorrupt inspects a session error for detected data corruption
// (chunk-checksum or content-digest mismatch). When it finds one it
// counts the event, emits a "corrupt" trace event pinned to this hop,
// and answers the initiator with a typed refusal so its retry policy
// classifies the failure as transient and re-sends the damaged range.
// The error is returned unchanged either way.
func (s *Server) flagCorrupt(sess *lsl.Session, f *flow, err error) error {
	if err == nil || (!errors.Is(err, wire.ErrChecksum) && !errors.Is(err, wire.ErrDigest)) {
		return err
	}
	s.st.checksumErrors.Add(1)
	s.met.checksumErrs.Inc()
	f.emit(obs.KindCorrupt, obs.Event{Peer: sess.Header.Src.String(), Detail: err.Error()})
	s.logf("depot %s: session %s: corrupt payload: %v", s.cfg.Self, sess.Header.Session, err)
	_ = lsl.Refuse(sess.Conn, sess.Header)
	return err
}

// framedWriter wraps dst in a chunk-checksum framer when the session
// announced framing — the depot-as-sender side (generated payloads)
// of what checkedSource verifies.
func framedWriter(dst io.Writer, h *wire.Header) io.Writer {
	if h.Checksummed() {
		return wire.NewFrameWriter(dst)
	}
	return dst
}

// PatternDigest computes the content digest of the deterministic
// session pattern — what a sender stamps into OptContentDigest for a
// pattern-filled transfer of the given size.
func PatternDigest(id wire.SessionID, size int64) wire.ContentDigest {
	h := sha256.New()
	WritePattern(h, id, 0, size) //nolint:errcheck // hash writes never fail
	d := wire.ContentDigest{Size: size}
	h.Sum(d.Sum[:0])
	return d
}
