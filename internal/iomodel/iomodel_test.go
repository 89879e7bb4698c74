package iomodel

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestScaleZeroFactorDoesNotSleep(t *testing.T) {
	s := NewScale(0)
	//lint:ignore noclock this test measures that Sleep returns without real elapsed time
	start := time.Now()
	s.Sleep(10 * time.Hour)
	//lint:ignore noclock real wall-clock elapsed time is the property under test
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("Sleep with zero factor blocked for %v", elapsed)
	}
	if got := s.Charged(); got != 10*time.Hour {
		t.Fatalf("Charged = %v, want 10h", got)
	}
}

func TestScaleChargesAccumulate(t *testing.T) {
	s := NewScale(0)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				s.Sleep(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if got, want := s.Charged(), 1600*time.Millisecond; got != want {
		t.Fatalf("Charged = %v, want %v", got, want)
	}
	s.ResetCharged()
	if got := s.Charged(); got != 0 {
		t.Fatalf("Charged after reset = %v, want 0", got)
	}
}

func TestScaleSleepActuallySleeps(t *testing.T) {
	s := NewScale(1)
	//lint:ignore noclock this test verifies Sleep blocks for real wall-clock time
	start := time.Now()
	s.Sleep(20 * time.Millisecond)
	//lint:ignore noclock real wall-clock elapsed time is the property under test
	if elapsed := time.Since(start); elapsed < 15*time.Millisecond {
		t.Fatalf("Sleep(20ms) at factor 1 returned after %v", elapsed)
	}
}

func TestScaleSetFactor(t *testing.T) {
	s := NewScale(0.5)
	if got := s.Factor(); got != 0.5 {
		t.Fatalf("Factor = %v, want 0.5", got)
	}
	s.Set(0)
	if got := s.Factor(); got != 0 {
		t.Fatalf("Factor after Set(0) = %v, want 0", got)
	}
}

func TestLatencyDuration(t *testing.T) {
	l := Latency{Base: time.Millisecond, BytesPerSec: 1e6} // 1 µs per byte
	if got, want := l.Duration(0, nil), time.Millisecond; got != want {
		t.Fatalf("Duration(0) = %v, want %v", got, want)
	}
	if got, want := l.Duration(1000, nil), 2*time.Millisecond; got != want {
		t.Fatalf("Duration(1000) = %v, want %v", got, want)
	}
}

func TestLatencyJitterBounded(t *testing.T) {
	l := Latency{Base: time.Millisecond, Jitter: 0.1}
	rnd := NewRand(42)
	for i := 0; i < 1000; i++ {
		d := l.Duration(0, rnd)
		if d < 900*time.Microsecond || d > 1100*time.Microsecond {
			t.Fatalf("jittered duration %v outside ±10%% of 1ms", d)
		}
	}
}

func TestLatencyNeverNegative(t *testing.T) {
	f := func(base int32, n uint16) bool {
		l := Latency{Base: time.Duration(base), BytesPerSec: 1e9, Jitter: 2}
		return l.Duration(int(n), NewRand(int64(base))) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTransferTime(t *testing.T) {
	// Moving 1 GiB at 1 GiB/s takes one second; sub-nanosecond per-byte
	// rates must not truncate to zero for multi-byte transfers.
	if got := TransferTime(1<<30, 1<<30); got != time.Second {
		t.Fatalf("TransferTime(1GiB, 1GiB/s) = %v, want 1s", got)
	}
	if got := TransferTime(4096, 1.125e9); got <= 0 { // 9 Gbit/s link
		t.Fatalf("TransferTime(4096, 9Gbit/s) = %v, want > 0", got)
	}
	if got := TransferTime(100, 0); got != 0 {
		t.Fatalf("TransferTime with zero rate = %v, want 0", got)
	}
	if got := TransferTime(-5, 1e6); got != 0 {
		t.Fatalf("TransferTime with negative size = %v, want 0", got)
	}
}

func TestResourceSerializesCapacity(t *testing.T) {
	scale := NewScale(0)
	r := NewResource(scale, time.Millisecond, 0)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				r.Acquire(100)
			}
		}()
	}
	wg.Wait()
	ops, bytes := r.Stats()
	if ops != 400 {
		t.Fatalf("ops = %d, want 400", ops)
	}
	if bytes != 400*100 {
		t.Fatalf("bytes = %d, want %d", bytes, 400*100)
	}
	// Each op charges 1ms of simulated time.
	if got, want := scale.Charged(), 400*time.Millisecond; got != want {
		t.Fatalf("Charged = %v, want %v", got, want)
	}
}

func TestResourceNilIsNoop(t *testing.T) {
	var r *Resource
	r.Acquire(10) // must not panic
}

func TestResourceChargesTransferTime(t *testing.T) {
	scale := NewScale(0)
	NewResource(scale, 0, 1e9).Acquire(1000) // 1 ns per byte
	if got := scale.Charged(); got != 1000*time.Nanosecond {
		t.Fatalf("Charged = %v, want 1µs", got)
	}
	NewResource(scale, 0, 0.5e9).Acquire(1000) // 2 ns per byte
	if got := scale.Charged(); got != 3000*time.Nanosecond {
		t.Fatalf("Charged = %v, want 3µs", got)
	}
}

func TestRandDeterministic(t *testing.T) {
	a, b := NewRand(7), NewRand(7)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same-seed Rands diverged")
		}
	}
	if a.Int63n(10) < 0 {
		t.Fatal("Int63n returned negative")
	}
}
