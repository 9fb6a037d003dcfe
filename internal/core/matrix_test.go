package core

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/netlogistics/lsl/internal/obs"
	"github.com/netlogistics/lsl/internal/retry"
	"github.com/netlogistics/lsl/internal/wire"
)

// TestRecoveryMatrix runs every engine mode under every fault on the
// chain topology with Integrity on. Each case must end one of two
// ways: the object delivered whole with no digest mismatch at the sink,
// or an error the recovery layer classified (retries exhausted, or
// fatal). Either way the transfer must leave nothing behind: no
// session id still watched, and no goroutine beyond the baseline once
// the depots have wound down.
func TestRecoveryMatrix(t *testing.T) {
	const size = 256 << 10
	pol := RecoveryPolicy{Retry: fastPolicy(6), Failover: true, FailoverAfter: 1, AttemptTimeout: time.Second}
	modes := []struct {
		name string
		run  func(*System, wire.SessionID) (TransferResult, error)
	}{
		{"reliable", func(s *System, _ wire.SessionID) (TransferResult, error) {
			return s.TransferReliable("src", "dst", size, pol)
		}},
		{"striped", func(s *System, _ wire.SessionID) (TransferResult, error) {
			return s.TransferStriped("src", "dst", size, 4, pol)
		}},
		{"multipath", func(s *System, _ wire.SessionID) (TransferResult, error) {
			res, err := s.TransferMultipath("src", "dst", size, 2, pol)
			return res.TransferResult, err
		}},
		{"cached-warm", func(s *System, id wire.SessionID) (TransferResult, error) {
			res, err := s.TransferCached("src", "dst", id, size, pol)
			return res.TransferResult, err
		}},
	}
	faults := []string{"clean", "drop", "kill"}

	for _, m := range modes {
		for _, fault := range faults {
			t.Run(m.name+"/"+fault, func(t *testing.T) {
				reg := obs.NewRegistry()
				var (
					sys  *System
					once sync.Once
					arm  sync.Mutex // guards armed
					// armed gates the kill trigger until the measured
					// transfer starts (the warm-up must stay clean).
					armed bool
				)
				trigger := sinkFunc(func(e obs.Event) {
					arm.Lock()
					live := armed
					arm.Unlock()
					// The first hop-0 connect proves the transfer is under
					// way; killing relay-b there is mid-transfer for every
					// mode (for cached-warm it is the serving holder).
					if live && fault == "kill" && e.Hop == 0 && e.Kind == obs.KindConnect {
						once.Do(func() { _ = sys.KillDepot("relay-b") })
					}
				})
				sys, err := NewSystem(chainTopology(t), Config{
					TimeScale:  0.0005,
					Seed:       1,
					Metrics:    reg,
					Trace:      trigger,
					Integrity:  true,
					CacheBytes: 64 << 20,
				})
				if err != nil {
					t.Fatal(err)
				}
				defer sys.Close()

				id, err := wire.NewSessionID()
				if err != nil {
					t.Fatal(err)
				}
				if m.name == "cached-warm" {
					if _, err := sys.TransferCached("src", "dst", id, size, pol); err != nil {
						t.Fatalf("warm-up: %v", err)
					}
				}
				if fault == "drop" {
					f, err := sys.Fault("relay-b")
					if err != nil {
						t.Fatal(err)
					}
					f.DropAfter(96 << 10)
				}
				settle(t, -1)
				baseline := runtime.NumGoroutine()
				mismatches := reg.Counter(MetricDigestMismatches).Value()
				arm.Lock()
				armed = true
				arm.Unlock()

				res, err := m.run(sys, id)
				switch {
				case err == nil:
					if res.Bytes != size {
						t.Fatalf("delivered %d of %d bytes", res.Bytes, size)
					}
					if d := reg.Counter(MetricDigestMismatches).Value() - mismatches; d != 0 {
						t.Fatalf("%d digest mismatches at the sink", d)
					}
				case retry.IsFatal(err), errors.Is(err, retry.ErrExhausted):
					t.Logf("typed failure: %v", err)
				default:
					t.Fatalf("untyped failure: %v", err)
				}

				sys.mu.Lock()
				watched := len(sys.waiters)
				sys.mu.Unlock()
				if watched != 0 {
					t.Fatalf("%d session ids still watched after the transfer", watched)
				}
				settle(t, baseline)
			})
		}
	}
}

// settle waits for the goroutine count to stop changing, or — with a
// non-negative baseline — to fall back to it, failing the test if it
// does not within a few seconds.
func settle(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	last := -1
	for {
		n := runtime.NumGoroutine()
		if baseline < 0 && n == last || baseline >= 0 && n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			if baseline >= 0 {
				t.Fatalf("goroutines = %d after the transfer, baseline %d", n, baseline)
			}
			return
		}
		last = n
		time.Sleep(20 * time.Millisecond)
	}
}
