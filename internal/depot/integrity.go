package depot

import (
	"crypto/sha256"
	"errors"
	"io"

	"github.com/netlogistics/lsl/internal/lsl"
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
// and, when it finds one, refuses the session so the initiator's retry
// policy re-sends the damaged range (see refuse). The error is returned
// unchanged either way.
func (s *Server) flagCorrupt(sess *lsl.Session, f *flow, err error) error {
	if corrupt(err) {
		s.refuse(sess, f, err, nil)
	}
	return err
}

// corrupt reports whether err is detected data corruption: a
// chunk-checksum or content-digest mismatch.
func corrupt(err error) bool {
	return errors.Is(err, wire.ErrChecksum) || errors.Is(err, wire.ErrDigest)
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
