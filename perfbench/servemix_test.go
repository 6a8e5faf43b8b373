package main

import (
	"math"
	"testing"
	"time"
)

func TestLadderMax(t *testing.T) {
	pass := func(rate, p99 float64) rungResult { return rungResult{rate: rate, p99: p99, ok: true} }
	fail := func(rate, p99 float64) rungResult { return rungResult{rate: rate, p99: p99} }
	cases := []struct {
		name  string
		rungs []rungResult
		want  float64
	}{
		{"fixed rate fails", []rungResult{fail(500, 300)}, 0},
		{"every rung passes", []rungResult{pass(500, 5), pass(1500, 10), pass(1890, 20)}, 1890},
		// p99 10 → 1000 ms over one rung step: the 100 ms limit is halfway
		// on log scales.
		{"crossing", []rungResult{pass(500, 5), pass(1000, 10), fail(2000, 1000), fail(4000, 2000)}, math.Sqrt(2) * 1000},
		{"noisy failure below the knee", []rungResult{pass(500, 5), fail(1000, 150), pass(2000, 10), fail(4000, 1000), fail(8000, 3000)}, math.Sqrt(2) * 2000},
		{"failed by backlog within the limit", []rungResult{pass(500, 10), fail(1000, 50)}, 1000 * math.Pow(2, math.Log(10)/math.Log(20)-1)},
	}
	for _, c := range cases {
		if got := ladderMax(c.rungs); math.Abs(got-c.want) > 1e-6*max(1, c.want) {
			t.Errorf("%s: ladderMax = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestScheduleFreshPairs checks that every fresh spec is scheduled once on
// each connection, at one due time and with one shared pair barrier, and
// that pool repeats use every connection.
func TestScheduleFreshPairs(t *testing.T) {
	l, err := newMixLoad(3)
	if err != nil {
		t.Fatal(err)
	}
	arr := l.schedule(serveRate, 2*time.Second)
	copies := map[int][]*arrival{}
	poolConns := map[int]int{}
	for _, a := range arr {
		if a.fresh < 0 {
			if a.pair != nil {
				t.Fatal("pool repeat has a pair barrier")
			}
			poolConns[a.conn]++
			continue
		}
		copies[a.fresh] = append(copies[a.fresh], a)
	}
	if len(copies) == 0 || len(copies) != len(l.fresh) {
		t.Fatalf("%d fresh specs scheduled, %d generated", len(copies), len(l.fresh))
	}
	for idx, cs := range copies {
		if len(cs) != serveConns {
			t.Fatalf("fresh spec %d: %d copies, want %d", idx, len(cs), serveConns)
		}
		for c, a := range cs {
			if a.conn != c || a.due != cs[0].due || a.pair == nil || a.pair != cs[0].pair {
				t.Fatalf("fresh spec %d copy %d: conn %d due %v, want conn %d due %v on one barrier", idx, c, a.conn, a.due, c, cs[0].due)
			}
		}
	}
	if len(poolConns) != serveConns {
		t.Fatalf("pool repeats used connections %v", poolConns)
	}
}
