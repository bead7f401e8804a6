// Package testutil is the shared fault-injection harness for crash and
// I/O-error testing across the storage stack (kv, durable, hbase). It
// generalizes the labeled crash-hook pattern the META catalog tests
// introduced: production code exposes a `func(point string)` hook fired
// at named points inside mutating operations; tests arm an Injector at
// one point and assert that a "process kill" there leaves recoverable
// on-disk state.
//
// Two fault classes are supported:
//
//   - Crashes: Arm(point) makes the injector's Hook panic with a
//     Crash sentinel the next time the point is hit — simulating a hard
//     kill between two specific writes. CrashAt drives an operation to
//     the point and requires that it died there.
//   - I/O errors: FailOp(point, err) makes Err(point) return err
//     (once, or until cleared with n<0), for code paths — like the
//     FlakyBackend storage wrapper — that consult the injector instead
//     of panicking, so error propagation (not just crash recovery) is
//     testable.
//
// The injector is safe for concurrent use; hit counts are recorded for
// every labeled point whether or not a fault is armed, so tests can
// also assert that an operation actually passed through a point.
package testutil

import (
	"fmt"
	"sync"
	"testing"

	"met/internal/kv"
)

// Crash is the sentinel an armed Hook panics with; CrashAt recovers
// exactly this type and re-panics anything else.
type Crash struct{ Point string }

func (c Crash) String() string { return fmt.Sprintf("injected crash at %q", c.Point) }

// Injector is a labeled fault registry.
type Injector struct {
	mu      sync.Mutex
	crashes map[string]bool
	errs    map[string]errArm
	hits    map[string]int
}

type errArm struct {
	err error
	n   int // remaining firings; <0 = unlimited
}

// NewInjector returns an empty injector.
func NewInjector() *Injector {
	return &Injector{
		crashes: make(map[string]bool),
		errs:    make(map[string]errArm),
		hits:    make(map[string]int),
	}
}

// Hook returns the function to install as a production crash hook
// (e.g. hbase.Master's crashHook). Hitting an armed point panics with
// Crash{point}; unarmed points only record the hit.
func (in *Injector) Hook() func(point string) {
	return func(point string) {
		in.mu.Lock()
		in.hits[point]++
		armed := in.crashes[point]
		delete(in.crashes, point)
		in.mu.Unlock()
		if armed {
			panic(Crash{Point: point})
		}
	}
}

// Arm makes the next Hook hit at point crash.
func (in *Injector) Arm(point string) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.crashes[point] = true
}

// FailOp makes Err(point) return err for the next n calls (n < 0 means
// until disarmed with FailOp(point, nil, 0)).
func (in *Injector) FailOp(point string, err error, n int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if err == nil {
		delete(in.errs, point)
		return
	}
	in.errs[point] = errArm{err: err, n: n}
}

// Err reports the injected error for point (nil when unarmed) and
// records the hit.
func (in *Injector) Err(point string) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.hits[point]++
	arm, ok := in.errs[point]
	if !ok {
		return nil
	}
	if arm.n > 0 {
		arm.n--
		if arm.n == 0 {
			delete(in.errs, point)
		} else {
			in.errs[point] = arm
		}
	}
	return arm.err
}

// Hits returns how many times point was reached (Hook or Err).
func (in *Injector) Hits(point string) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.hits[point]
}

// CrashAt arms inj at point, runs op, and fails the test unless op
// actually died at that point. The simulated kill is a panic recovered
// here, so the caller's in-memory state after CrashAt is as garbage as
// a real kill would leave it — recover through the durable path
// (reopen, OpenCluster), not by reusing the crashed objects.
func CrashAt(t testing.TB, inj *Injector, point string, op func()) {
	t.Helper()
	inj.Arm(point)
	crashed := false
	func() {
		defer func() {
			if r := recover(); r != nil {
				if c, ok := r.(Crash); ok && c.Point == point {
					crashed = true
					return
				}
				panic(r)
			}
		}()
		op()
	}()
	if !crashed {
		t.Fatalf("operation never reached crash point %q", point)
	}
}

// FlakyBackend wraps a kv.StorageBackend, consulting an Injector before
// every operation so storage-layer I/O errors can be injected from
// tests at labeled points:
//
//	<prefix>.create  — flush/compaction SSTable builds
//	<prefix>.remove  — retired-file unlinks
//	<prefix>.load    — open-time enumeration
//	<prefix>.close   — backend shutdown
//
// It passes kv.FileExporter through when the inner backend supports it,
// so replication keeps working over a flaky store.
type FlakyBackend struct {
	Inner  kv.StorageBackend
	Inj    *Injector
	Prefix string
}

// Wrap returns a kv.Config.OpenBackend factory that wraps every backend
// the inner factory produces.
func Wrap(inner func() (kv.StorageBackend, error), inj *Injector, prefix string) func() (kv.StorageBackend, error) {
	return func() (kv.StorageBackend, error) {
		b, err := inner()
		if err != nil {
			return nil, err
		}
		return &FlakyBackend{Inner: b, Inj: inj, Prefix: prefix}, nil
	}
}

func (f *FlakyBackend) point(op string) string { return f.Prefix + "." + op }

// WAL implements kv.StorageBackend.
func (f *FlakyBackend) WAL() kv.WAL { return f.Inner.WAL() }

// Create implements kv.StorageBackend with create-point injection.
func (f *FlakyBackend) Create(id uint64, it kv.Iterator, blockBytes int, maxTS uint64) (*kv.StoreFile, error) {
	if err := f.Inj.Err(f.point("create")); err != nil {
		return nil, err
	}
	return f.Inner.Create(id, it, blockBytes, maxTS)
}

// Remove implements kv.StorageBackend with remove-point injection.
func (f *FlakyBackend) Remove(id uint64) error {
	if err := f.Inj.Err(f.point("remove")); err != nil {
		return err
	}
	return f.Inner.Remove(id)
}

// Load implements kv.StorageBackend with load-point injection.
func (f *FlakyBackend) Load(blockBytes int) ([]*kv.StoreFile, error) {
	if err := f.Inj.Err(f.point("load")); err != nil {
		return nil, err
	}
	return f.Inner.Load(blockBytes)
}

// Close implements kv.StorageBackend with close-point injection.
func (f *FlakyBackend) Close() error {
	if err := f.Inj.Err(f.point("close")); err != nil {
		return err
	}
	return f.Inner.Close()
}

// FilePath implements kv.FileExporter when the inner backend does.
func (f *FlakyBackend) FilePath(id uint64) string {
	if exp, ok := f.Inner.(kv.FileExporter); ok {
		return exp.FilePath(id)
	}
	return ""
}

var _ kv.StorageBackend = (*FlakyBackend)(nil)
var _ kv.FileExporter = (*FlakyBackend)(nil)
