package depot

import (
	"bytes"
	"io"
	"net"
	"testing"

	"github.com/netlogistics/lsl/internal/fairshare"
	"github.com/netlogistics/lsl/internal/lsl"
	"github.com/netlogistics/lsl/internal/wire"
)

// benchServer builds a minimal depot for exercising the pump without a
// network.
func benchServer(b *testing.B) *Server {
	b.Helper()
	srv, err := New(Config{
		Self: wire.MustEndpoint("10.0.0.1:7411"),
		Dial: lsl.DialerFunc(func(string) (net.Conn, error) { return nil, io.EOF }),
	})
	if err != nil {
		b.Fatal(err)
	}
	return srv
}

// BenchmarkPump measures the forwarding pump moving 8 MB from an
// in-memory reader to a discarding writer: the per-chunk cost of the
// depot's hot path. allocs/op is the headline — the chunk-buffer pool
// exists to drive it down.
func BenchmarkPump(b *testing.B) {
	srv := benchServer(b)
	payload := make([]byte, 8<<20)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := bytes.NewReader(payload)
		if _, err := srv.pump(io.Discard, src, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFairShare measures the same 8 MB pump with a fair-share
// flow attached to a work-conserving scheduler: the per-chunk cost of
// the credit gate on the write path. The delta against BenchmarkPump
// is the scheduling tax an unloaded depot pays for multi-tenancy.
func BenchmarkFairShare(b *testing.B) {
	srv := benchServer(b)
	sched := fairshare.New(fairshare.Config{})
	f := &flow{srv: srv, fs: sched.Join(1)}
	defer f.fs.Leave()
	payload := make([]byte, 8<<20)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := bytes.NewReader(payload)
		if _, err := srv.pump(io.Discard, src, f); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPumpChecksum measures the same 8 MB pump reading through
// the per-chunk CRC-32C verifier — the integrity tax every depot hop
// of a checksummed session pays. The delta against BenchmarkPump is
// the guarded figure: hardware CRC should keep it a small fraction of
// the plain pump cost.
func BenchmarkPumpChecksum(b *testing.B) {
	srv := benchServer(b)
	var framed bytes.Buffer
	fw := wire.NewFrameWriter(&framed)
	if _, err := fw.Write(make([]byte, 8<<20)); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(8 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := wire.NewVerifyingReader(bytes.NewReader(framed.Bytes()))
		if _, err := srv.pump(io.Discard, src, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWritePattern measures the generate-path pattern writer, the
// other per-transfer buffer consumer on the depot.
func BenchmarkWritePattern(b *testing.B) {
	var id wire.SessionID
	b.SetBytes(8 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := WritePattern(io.Discard, id, 0, 8<<20); err != nil {
			b.Fatal(err)
		}
	}
}
