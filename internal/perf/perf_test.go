package perf

import "testing"

func TestNowNSMonotone(t *testing.T) {
	a := NowNS()
	b := NowNS()
	if b < a || a < 0 {
		t.Fatalf("NowNS went backwards: %d then %d", a, b)
	}
}
