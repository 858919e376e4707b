package memfn

import (
	"math"
	"testing"
)

// checkWindow compares a staircase that forgot everything before cut with
// a twin that never forgot: every query at or after cut, and every
// EarliestFit clamped to cut, must answer the same.
func checkWindow(t *testing.T, win, whole *Staircase, cut float64) {
	t.Helper()
	if win.FinalValue() != whole.FinalValue() {
		t.Fatalf("FinalValue %d, whole %d\nwindow %v\nwhole  %v", win.FinalValue(), whole.FinalValue(), win, whole)
	}
	times, values := whole.Breakpoints()
	queries := []float64{cut, math.Nextafter(cut, Inf)}
	for _, x := range times {
		if x >= cut {
			queries = append(queries, x, math.Nextafter(x, 0), x+0.5)
		}
	}
	needs := []int64{0, 1, whole.FinalValue(), whole.FinalValue() + 1}
	for i := range times {
		if i+1 == len(times) || times[i+1] > cut {
			needs = append(needs, values[i], values[i]+1)
		}
	}
	for _, q := range queries {
		if q < cut {
			continue
		}
		v, slack := whole.Value(q), whole.SlackAt(q)
		if w := win.Value(q); w != v {
			t.Fatalf("Value(%g) = %d, whole %d (cut %g)\nwindow %v\nwhole  %v", q, w, v, cut, win, whole)
		}
		if w := win.SlackAt(q); w != slack {
			t.Fatalf("SlackAt(%g) = %d, whole %d (cut %g)\nwindow %v\nwhole  %v", q, w, slack, cut, win, whole)
		}
		for _, need := range []int64{0, 1, v, v + 1, slack, slack + 1} {
			if w, h := win.FitsFrom(q, need), whole.FitsFrom(q, need); w != h {
				t.Fatalf("FitsFrom(%g, %d) = %v, whole %v (cut %g)\nwindow %v\nwhole  %v", q, need, w, h, cut, win, whole)
			}
		}
	}
	for _, need := range needs {
		w, h := max(win.EarliestFit(0, need), cut), max(whole.EarliestFit(0, need), cut)
		if w != h {
			t.Fatalf("max(EarliestFit(0, %d), cut) = %g, whole %g (cut %g)\nwindow %v\nwhole  %v", need, w, h, cut, win, whole)
		}
	}
}

// FuzzStaircaseForget drives a staircase and a never-forgetting twin with
// the same Reserve, Release and ReserveBatch calls, interleaved with Forget
// at non-decreasing times on the first only, and checks after every call
// that the two agree on the live window. Releases and reservations may land
// below the cut, as the engine's releases on a cross input's source pool do.
//
// Each call is decoded from 4 bytes: an opcode and three operands. Times
// are quarter units on a short range, so breakpoints tie often; a train
// opcode lays down many short reservations at once, so the staircase
// quickly grows past Forget's threshold. The opcode's high bit skips the
// check after the call, so a Forget can also meet a suffix-minimum array
// that mutations left stale, as it does after every engine commit.
func FuzzStaircaseForget(f *testing.F) {
	// A 64-reservation train over [0, 16), a cut at 12 that drops 96
	// pieces, releases and reservations on both sides of it, a second
	// train and a second cut.
	f.Add(uint8(40), []byte{
		4, 0, 63, 0, 3, 48, 0, 0, 1, 4, 9, 0, 0, 20, 60, 3,
		2, 30, 50, 0x27, 4, 80, 63, 1, 3, 112, 0, 0, 1, 2, 12, 0,
		0, 100, 0, 0x85, 1, 60, 3, 0,
	})
	// The same with every check but the last skipped: the cuts meet
	// stale suffix minima.
	f.Add(uint8(40), []byte{
		0x84, 0, 63, 0, 0x83, 48, 0, 0, 0x81, 4, 9, 0, 0x80, 20, 60, 3,
		0x82, 30, 50, 0x27, 0x84, 80, 63, 1, 0x83, 112, 0, 0, 0x81, 2, 12, 0,
		0x80, 100, 0, 0x85, 0x81, 60, 3, 0,
	})
	f.Add(uint8(9), []byte{
		4, 1, 63, 3, 4, 3, 63, 2, 3, 40, 128, 0, 0, 10, 130, 5,
		1, 8, 2, 0, 3, 200, 0, 0, 2, 190, 10, 3, 0, 200, 255, 9,
	})
	f.Add(uint8(0), []byte{3, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, capacity uint8, ops []byte) {
		win, whole := New(int64(capacity)), New(int64(capacity))
		cut := 0.0
		at := func(b byte) float64 { return float64(b) / 4 }
		amount := func(b byte) int64 { return int64(b%16) - 6 }
		for len(ops) >= 4 {
			op, a, b, c := ops[0], ops[1], ops[2], ops[3]
			ops = ops[4:]
			switch op % 5 {
			case 0:
				from, to := at(a), at(b)
				if c&0x80 != 0 {
					to = Inf
				}
				win.Reserve(from, to, amount(c))
				whole.Reserve(from, to, amount(c))
			case 1:
				win.Release(at(a), amount(b))
				whole.Release(at(a), amount(b))
			case 2:
				batch := []Delta{
					{From: at(a), To: at(a) + at(b), Amount: amount(c)},
					{From: at(b), To: Inf, Amount: amount(c >> 4)},
					{From: at(a ^ c), To: at(b ^ c), Amount: amount(a)},
				}
				win.ReserveBatch(batch)
				whole.ReserveBatch(batch)
			case 3:
				cut = max(cut, at(a)+at(b)/256)
				win.Forget(cut)
			case 4:
				// A train of b%64+1 unit reservations, one every
				// quarter unit from a, each c%4 quarters long.
				for i := range int(b%64) + 1 {
					from := at(a) + float64(i)/4
					to := from + float64(c%4+1)/8
					win.Reserve(from, to, 1)
					whole.Reserve(from, to, 1)
				}
			}
			if op&0x80 == 0 {
				checkWindow(t, win, whole, cut)
			}
		}
		checkWindow(t, win, whole, cut)
	})
}

// TestForgetThresholds pins when Forget acts: it keeps everything until
// the prefix before t holds at least forgetMin pieces and at least half of
// the staircase, and then moves the piece holding t to time 0.
func TestForgetThresholds(t *testing.T) {
	s := New(100)
	for i := range 80 {
		s.Reserve(float64(2*i), float64(2*i+1), 1) // 160 pieces + the tail
	}
	n := s.Len()
	s.Forget(forgetMin - 0.5) // forgetMin-1 pieces before t: too few
	if s.Len() != n {
		t.Fatalf("Forget below forgetMin dropped pieces: %d -> %d", n, s.Len())
	}
	s.Forget(float64(n/2) - 1) // one piece short of half
	if s.Len() != n {
		t.Fatalf("Forget below half dropped pieces: %d -> %d", n, s.Len())
	}
	s.Forget(100.5) // inside the piece [100, 101)
	if s.Len() != n-100 {
		t.Fatalf("Forget kept %d pieces, want %d", s.Len(), n-100)
	}
	times, values := s.Breakpoints()
	if times[0] != 0 || values[0] != 99 || times[1] != 101 || values[1] != 100 {
		t.Fatalf("window starts %v", s)
	}
	if got := s.EarliestFit(0, 100); got != 159 {
		t.Fatalf("EarliestFit after Forget = %g, want 159", got)
	}
}
