package qos

import (
	"testing"
	"time"
)

func TestBackoffDelayGrowsAndCaps(t *testing.T) {
	b := Backoff{Base: 10 * time.Millisecond, Max: 80 * time.Millisecond, Factor: 2, Jitter: 0}
	want := []time.Duration{10, 20, 40, 80, 80, 80}
	for i, w := range want {
		if got := b.Delay(i); got != w*time.Millisecond {
			t.Fatalf("Delay(%d) = %v, want %v", i, got, w*time.Millisecond)
		}
	}
}

func TestBackoffJitterBounds(t *testing.T) {
	b := Backoff{Base: 100 * time.Millisecond, Max: time.Second, Factor: 2, Jitter: 0.5}
	for attempt := 0; attempt < 4; attempt++ {
		nominal := 100 * time.Millisecond << attempt
		lo, hi := nominal/2, nominal+nominal/2
		if hi > time.Second {
			hi = time.Second
		}
		for i := 0; i < 200; i++ {
			d := b.Delay(attempt)
			if d < lo || d > hi {
				t.Fatalf("Delay(%d) = %v outside [%v, %v]", attempt, d, lo, hi)
			}
		}
	}
}

func TestBackoffZeroValueDefaults(t *testing.T) {
	var b Backoff
	for i := 0; i < 20; i++ {
		d := b.Delay(i)
		if d < 25*time.Millisecond || d > 2*time.Second {
			t.Fatalf("zero-value Delay(%d) = %v outside default envelope", i, d)
		}
	}
}

func TestRetryAfterSeconds(t *testing.T) {
	seen := map[int]bool{}
	for i := 0; i < 300; i++ {
		s := RetryAfterSeconds()
		if s < 1 || s > 3 {
			t.Fatalf("RetryAfterSeconds() = %d, want 1..3", s)
		}
		seen[s] = true
	}
	if len(seen) != 3 {
		t.Fatalf("300 draws hit only %v — jitter broken", seen)
	}
}
