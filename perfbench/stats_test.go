package main

import (
	"math"
	"sync"
	"testing"
	"time"

	"provcompress/internal/trace"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so summarize must sort
	}
	return xs
}

func TestSummarizeTailHasTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n              int
		wantPct, wantV float64
	}{
		{1000, 99, 990}, // exactly 10 above p99
		{951, 99, 941},
		{950, 95, 903}, // p99 would leave 9
		{200, 95, 190},
		{100, 90, 90},
		{40, 75, 30},
		{38, 50, 19}, // nothing qualifies: the tail falls back to the median
	} {
		d := summarize(seq(tc.n))
		if d.N != tc.n || d.TailPct != tc.wantPct || d.Tail != tc.wantV {
			t.Errorf("n=%d: got n=%d p%g=%g, want p%g=%g", tc.n, d.N, d.TailPct, d.Tail, tc.wantPct, tc.wantV)
		}
		beyond := 0
		for _, x := range seq(tc.n) {
			if x > d.Tail {
				beyond++
			}
		}
		if d.TailPct > 50 && beyond < minBeyond {
			t.Errorf("n=%d: only %d samples beyond p%g", tc.n, beyond, d.TailPct)
		}
	}
	if d := summarize(seq(1000)); d.P50 != 500 {
		t.Errorf("p50 of 1..1000 = %g, want 500", d.P50)
	}
	if d := summarize(nil); d.N != 0 || d.P50 != 0 {
		t.Errorf("empty sample: %+v", d)
	}
}

func TestOpenLoopScheduleCounts(t *testing.T) {
	steps := []step{{Rate: 200, Dur: 500 * time.Millisecond}, {Rate: 50, Dur: 2 * time.Second}}
	sched := openLoopSchedule(steps, 7)
	var reads [2]int
	writes := 0
	for i, a := range sched {
		if i > 0 && a.Due < sched[i-1].Due {
			t.Fatalf("arrival %d due %v before %v", i, a.Due, sched[i-1].Due)
		}
		if a.Write {
			writes++
			continue
		}
		reads[a.Step]++
		lo := time.Duration(0)
		if a.Step == 1 {
			lo = steps[0].Dur
		}
		if a.Due < lo || a.Due >= lo+steps[a.Step].Dur {
			t.Errorf("read of step %d due at %v, outside its window", a.Step, a.Due)
		}
	}
	if reads != [2]int{100, 100} || writes != 18 { // 7/s × 2.5 s = 17.5 → 18
		t.Errorf("reads %v writes %d, want [100 100] and 18", reads, writes)
	}
}

func TestOpenLoopTimesFromDueAndReportsLateness(t *testing.T) {
	// One worker, a request every 5 ms, each taking 15 ms: the worker
	// falls further behind with every request.
	sched := openLoopSchedule([]step{{Rate: 200, Dur: 100 * time.Millisecond}}, 0)
	const service = 15 * time.Millisecond
	outs := runOpenLoop(sched, 1, func(_, _ int) error {
		time.Sleep(service)
		return nil
	})
	if len(outs) != 20 {
		t.Fatalf("%d outcomes, want 20", len(outs))
	}
	for i, o := range outs {
		// The i-th request cannot start before i earlier ones finished.
		minLate := time.Duration(i)*service - sched[i].Due
		if o.Late < minLate {
			t.Errorf("request %d: late %v, want at least %v", i, o.Late, minLate)
		}
		if o.Latency < o.Late+service {
			t.Errorf("request %d: latency %v does not include lateness %v plus service %v", i, o.Latency, o.Late, service)
		}
	}
	// Request 7 goes out after seven services (≥ 105 ms), when all twenty
	// are due (the last at 95 ms): the twelve after it wait in the backlog.
	if b := outs[7].Backlog; b != len(outs)-8 {
		t.Errorf("request 7 saw backlog %d, want %d", b, len(outs)-8)
	}
	// A fast service keeps up: nothing is late by more than a scheduling hiccup.
	outs = runOpenLoop(sched, 2, func(_, _ int) error { return nil })
	for i, o := range outs {
		if o.Late > 20*time.Millisecond || o.Backlog > 2 {
			t.Errorf("idle service, request %d: late %v backlog %d", i, o.Late, o.Backlog)
		}
	}
}

func span(id, parent trace.SpanID, kind string, start, end time.Duration) trace.Span {
	return trace.Span{Trace: 1, ID: id, Parent: parent, Kind: kind, Start: start, End: end}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	parent := span(1, 0, "process", 0, 100)
	kids := []trace.Span{
		span(2, 1, "rule", 10, 30),
		span(3, 1, "rule", 20, 50),  // overlaps the first: union [10,50]
		span(4, 1, "rule", 70, 80),  // disjoint
		span(5, 1, "rule", 90, 120), // runs past the parent: clipped to [90,100]
		span(6, 1, "rule", 72, 75),  // nested inside another child
	}
	if got := selfTime(parent, kids); got != 100-40-10-10 {
		t.Errorf("self time %v, want 40", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("childless self time %v, want 100", got)
	}
}

func TestBlockingPathAndGaps(t *testing.T) {
	// query [0,100] → walk [5,20] → walk [30,45] → walk [60,70] →
	// reconstruct [78,95]; a side child of the first walk ends early and
	// is not on the blocking path.
	spans := []trace.Span{
		span(1, 0, "query", 0, 100),
		span(2, 1, "walk", 5, 20),
		span(3, 2, "walk", 30, 45),
		span(9, 2, "walk", 22, 25),
		span(4, 3, "walk", 60, 70),
		span(5, 4, "reconstruct", 78, 95),
	}
	tr := newSpanTree(spans)
	path := tr.blockingPath(spans[0])
	var ids []trace.SpanID
	for _, s := range path {
		ids = append(ids, s.ID)
	}
	if want := []trace.SpanID{1, 2, 3, 4, 5}; !equalIDs(ids, want) {
		t.Fatalf("blocking path %v, want %v", ids, want)
	}
	gaps := pathGaps(path)
	want := []time.Duration{5, 10, 15, 8, 5}
	if len(gaps) != len(want) {
		t.Fatalf("gaps %v, want %v", gaps, want)
	}
	var sum time.Duration
	for i := range want {
		if gaps[i] != want[i] {
			t.Errorf("gap %d = %v, want %v", i, gaps[i], want[i])
		}
		sum += gaps[i]
	}
	for _, s := range path[1:] {
		sum += tr.self(s)
	}
	// The side child starts after its parent ends, so clipping leaves the
	// parent's self time whole, and self times plus gaps cover the query.
	if sum != 100 {
		t.Errorf("self times plus gaps = %v, want the query's 100", sum)
	}
	// A child that starts inside its parent leaves no gap.
	nested := pathGaps([]trace.Span{span(1, 0, "query", 0, 10), span(2, 1, "walk", 0, 8), span(3, 2, "walk", 5, 9)})
	if nested[1] != 0 {
		t.Errorf("nested child gap %v, want 0", nested[1])
	}
}

func equalIDs(a, b []trace.SpanID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestClosedLoopSendsDueWritesAndKeepsBusy(t *testing.T) {
	const service = 2 * time.Millisecond
	var mu sync.Mutex
	seen := map[bool][]int{}
	res := runClosedLoop(200*time.Millisecond, 2, 50, func(_ int, write bool, k int) error {
		mu.Lock()
		seen[write] = append(seen[write], k)
		mu.Unlock()
		time.Sleep(service)
		return nil
	})
	// Writes fall due at 0, 20, …, 180 ms: ten of them.
	if res.Writes != 10 || len(seen[true]) != 10 {
		t.Errorf("%d writes, want 10", res.Writes)
	}
	for i, k := range seen[true] {
		if k != i {
			t.Errorf("write %d numbered %d", i, k)
		}
	}
	// Two workers busy for 200 ms at 2 ms a request: at most 200 in all.
	if total := res.Reads + res.Writes; total > 200 || total < 100 {
		t.Errorf("%d requests completed, want between 100 and 200", total)
	}
	if len(res.Done) != res.Reads+res.Writes {
		t.Errorf("%d completion times for %d requests", len(res.Done), res.Reads+res.Writes)
	}
	if res.Wall < 200*time.Millisecond || res.Failed != 0 {
		t.Errorf("wall %v failed %d", res.Wall, res.Failed)
	}
}

func TestBlockRates(t *testing.T) {
	ms := time.Millisecond
	// Out of order, as concurrent workers may record them.
	done := []time.Duration{10 * ms, 0, 20 * ms, 30 * ms, 70 * ms, 50 * ms, 90 * ms, 95 * ms}
	// Blocks of 2 from the sorted times 0 10 20 30 50 70 90 95: 0→20,
	// 20→50, 50→90; the last, 90→95, has only one completion and is dropped.
	got := blockRates(done, 2)
	want := []float64{100, 2 / 0.030, 50}
	if len(got) != len(want) {
		t.Fatalf("rates %v, want %v", got, want)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("block %d: %g/s, want %g/s", i, got[i], want[i])
		}
	}
	if got := blockRates(done[:3], 10); len(got) != 1 || math.Abs(got[0]-100) > 1e-9 {
		t.Errorf("fewer completions than a block: rates %v, want [100]", got)
	}
	if got := blockRates(done[:1], 2); got != nil {
		t.Errorf("one completion: rates %v, want none", got)
	}
}

func TestVMTallyShare(t *testing.T) {
	var v vmTally
	if got := v.share(); got != 1 {
		t.Errorf("empty tally: share %g, want 1", got)
	}
	// 900 ms of VM time in 1 s, then all of 3 s: 3.9 of 4 s.
	v.add(time.Second, 900*time.Millisecond)
	v.add(3*time.Second, 3*time.Second)
	if got := v.share(); math.Abs(got-0.975) > 1e-12 {
		t.Errorf("share %g, want 0.975", got)
	}
	// A latency measured in these intervals counts the same share.
	m := newMeasurement()
	m.latency("test", dist{N: 20, P50: 2, TailPct: 50, Tail: 4}, v)
	if p50, tail := m.e2e["latency_p50_ms"], m.layer["workload.latency_tail_ms"]; math.Abs(p50-1.95) > 1e-12 || math.Abs(tail-3.9) > 1e-12 {
		t.Errorf("latency p50 %g tail %g, want 1.95 and 3.9", p50, tail)
	}
}
