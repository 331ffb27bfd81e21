package tenant

import (
	"testing"
	"time"
)

func TestBucketRefillIsContinuous(t *testing.T) {
	var b Bucket // starts full: one token at burst 1
	now := time.Unix(0, 0)
	if ok, _ := b.Take(2, 1, now); !ok {
		t.Fatal("first token refused")
	}
	// 2 tokens/s: after 250ms only half a token has refilled.
	now = now.Add(250 * time.Millisecond)
	ok, retry := b.Take(2, 1, now)
	if ok {
		t.Fatal("half a token admitted a request")
	}
	if want := 250 * time.Millisecond; retry != want {
		t.Fatalf("retryAfter = %v, want %v", retry, want)
	}
	now = now.Add(250 * time.Millisecond)
	if ok, _ := b.Take(2, 1, now); !ok {
		t.Fatal("full token refused")
	}
}

func TestBucketClockSkewBackwards(t *testing.T) {
	var b Bucket // starts full: one token at burst 1
	now := time.Unix(100, 0)
	if ok, _ := b.Take(1, 1, now); !ok {
		t.Fatal("first token refused")
	}
	// A clock step backwards must not mint tokens or panic.
	if ok, _ := b.Take(1, 1, now.Add(-time.Minute)); ok {
		t.Fatal("backwards clock minted a token")
	}
	// ...and must not poison future refill: from the (earlier) last stamp,
	// a full second forward refills one token.
	if ok, _ := b.Take(1, 1, now.Add(time.Second)); !ok {
		t.Fatal("refill after skew refused")
	}
}

func TestBucketConcurrentTakes(t *testing.T) {
	// A frozen clock refills nothing, so the 100-token burst is all there is.
	var b Bucket
	now := time.Unix(0, 0)
	done := make(chan int)
	for g := 0; g < 8; g++ {
		go func() {
			granted := 0
			for i := 0; i < 50; i++ {
				if ok, _ := b.Take(1, 100, now); ok {
					granted++
				}
			}
			done <- granted
		}()
	}
	total := 0
	for g := 0; g < 8; g++ {
		total += <-done
	}
	if total != 100 {
		t.Fatalf("granted %d tokens from a 100-token bucket", total)
	}
}
