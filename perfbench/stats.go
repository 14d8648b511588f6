package main

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"provcompress/internal/metrics"
	"provcompress/internal/trace"
)

// dist summarises a timing sample: its median, the highest percentile
// that still has at least minBeyond samples above it, and the count.
type dist struct {
	N       int
	P50     float64
	TailPct float64
	Tail    float64
}

// minBeyond is how many samples must lie above a reported tail
// percentile; fewer would make it the maximum of a handful of outliers.
const minBeyond = 10

// tailPercentiles are tried highest first.
var tailPercentiles = []float64{99, 95, 90, 75}

// summarize reports the median and the highest percentile of
// tailPercentiles with at least minBeyond samples beyond it; when even
// p75 has fewer, the tail is the median.
func summarize(xs []float64) dist {
	c := metrics.NewCDF(xs)
	d := dist{N: c.Len(), P50: c.Percentile(0.5), TailPct: 50}
	d.Tail = d.P50
	for _, p := range tailPercentiles {
		v := c.Percentile(p / 100)
		if beyond := math.Round(float64(d.N) * (1 - c.At(v))); beyond >= minBeyond {
			d.TailPct, d.Tail = p, v
			break
		}
	}
	return d
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, or 0 when b is 0 (a layer the workload never ran).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// step is one constant-rate segment of an open-loop schedule.
type step struct {
	Rate float64 // requests per second
	Dur  time.Duration
}

// arrival is one scheduled request: due at Due after the schedule starts.
type arrival struct {
	Due   time.Duration
	Write bool
	Step  int
}

// openLoopSchedule lays out round(rate × duration) evenly spaced reads in
// each step, back to back, plus round(writeRate × total) evenly spaced
// writes across the whole schedule, merged in due order.
func openLoopSchedule(steps []step, writeRate float64) []arrival {
	var out []arrival
	var total time.Duration
	starts := make([]time.Duration, len(steps))
	for i, st := range steps {
		starts[i] = total
		n := int(math.Round(st.Rate * st.Dur.Seconds()))
		for k := 0; k < n; k++ {
			out = append(out, arrival{Due: total + time.Duration(int64(st.Dur)*int64(k)/int64(n)), Step: i})
		}
		total += st.Dur
	}
	nw := int(math.Round(writeRate * total.Seconds()))
	for k := 0; k < nw; k++ {
		due := time.Duration(int64(total) * int64(k) / int64(nw))
		si := sort.Search(len(starts), func(i int) bool { return starts[i] > due }) - 1
		out = append(out, arrival{Due: due, Write: true, Step: si})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Due < out[j].Due })
	return out
}

// outcome is what the open loop observed for one arrival. Latency runs
// from the due time, so a stall is charged to every request it delays;
// Late is how far behind schedule the request was sent; Backlog is how
// many requests were already due but not yet sent when it went out.
type outcome struct {
	Latency time.Duration
	Late    time.Duration
	Backlog int
	Err     error
}

// runOpenLoop sends every arrival at its due time from `workers`
// goroutines, each owning one connection; a worker that is still busy
// when the next request falls due sends it late. do performs request i on
// the given worker's connection.
func runOpenLoop(sched []arrival, workers int, do func(worker, i int) error) []outcome {
	out := make([]outcome, len(sched))
	var next atomic.Int64
	t0 := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				due := t0.Add(sched[i].Due)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				elapsed := sent.Sub(t0)
				dueNow := sort.Search(len(sched), func(k int) bool { return sched[k].Due > elapsed })
				err := do(w, i)
				out[i] = outcome{
					Latency: time.Since(due),
					Late:    sent.Sub(due),
					Backlog: dueNow - i - 1,
					Err:     err,
				}
			}
		}(w)
	}
	wg.Wait()
	return out
}

// spanTree indexes one trace's spans by parent.
type spanTree struct {
	kids map[trace.SpanID][]trace.Span
}

func newSpanTree(spans []trace.Span) spanTree {
	t := spanTree{kids: make(map[trace.SpanID][]trace.Span)}
	for _, s := range spans {
		if s.Parent != 0 {
			t.kids[s.Parent] = append(t.kids[s.Parent], s)
		}
	}
	return t
}

// selfTime is the span's duration minus the part of it covered by the
// union of its children's intervals, each clipped to the span.
func selfTime(sp trace.Span, children []trace.Span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, c := range children {
		a, b := c.Start, c.End
		if a < sp.Start {
			a = sp.Start
		}
		if b > sp.End {
			b = sp.End
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered time.Duration
	var curA, curB time.Duration
	open := false
	for _, v := range ivs {
		if open && v.a <= curB {
			if v.b > curB {
				curB = v.b
			}
			continue
		}
		if open {
			covered += curB - curA
		}
		curA, curB, open = v.a, v.b, true
	}
	if open {
		covered += curB - curA
	}
	return sp.End - sp.Start - covered
}

// self is selfTime against the span's recorded children.
func (t spanTree) self(sp trace.Span) time.Duration { return selfTime(sp, t.kids[sp.ID]) }

// blockingPath follows, from root, the child that finishes last at every
// level: the chain of spans the root's completion waited on.
func (t spanTree) blockingPath(root trace.Span) []trace.Span {
	path := []trace.Span{root}
	cur := root
	for {
		kids := t.kids[cur.ID]
		if len(kids) == 0 {
			return path
		}
		last := kids[0]
		for _, k := range kids[1:] {
			if k.End > last.End {
				last = k
			}
		}
		path = append(path, last)
		cur = last
	}
}

// pathGaps returns the waits along a blocking path where no span on it
// was running: from the root's start to its first descendant's start,
// between each span's end and the next one's start (zero when the next
// starts inside it), and from the last span's end to the root's end.
func pathGaps(path []trace.Span) []time.Duration {
	if len(path) < 2 {
		return nil
	}
	gaps := []time.Duration{path[1].Start - path[0].Start}
	for i := 1; i+1 < len(path); i++ {
		g := path[i+1].Start - path[i].End
		if g < 0 {
			g = 0
		}
		gaps = append(gaps, g)
	}
	tail := path[0].End - path[len(path)-1].End
	if tail < 0 {
		tail = 0
	}
	return append(gaps, tail)
}

// closedLoop is what a closed loop completed: counts, the time from the
// start to the last completion, and when each successful request ended.
type closedLoop struct {
	Reads, Writes, Failed int
	Wall                  time.Duration
	Done                  []time.Duration
}

// blockRates sorts the completion times and returns the rate, per
// second, of each consecutive block of k completions: k over the time from
// the completion before the block to its last. A shorter final block is
// dropped; with k or fewer completions in all, the one block is all of them.
func blockRates(done []time.Duration, k int) []float64 {
	t := append([]time.Duration(nil), done...)
	sort.Slice(t, func(i, j int) bool { return t[i] < t[j] })
	if len(t) < 2 {
		return nil
	}
	k = min(k, len(t)-1)
	var rates []float64
	for i := 0; i+k < len(t); i += k {
		if span := t[i+k] - t[i]; span > 0 {
			rates = append(rates, float64(k)/span.Seconds())
		}
	}
	return rates
}

// runClosedLoop has `workers` goroutines send requests back to back until
// d has passed; Wall runs to the last completion. Write k falls due k /
// writeRate seconds after the start, and the first worker to find it due
// sends it in place of its next read. do performs one request on the
// given worker's connection; k numbers writes and reads separately.
func runClosedLoop(d time.Duration, workers int, writeRate float64, do func(worker int, write bool, k int) error) closedLoop {
	var res closedLoop
	var mu sync.Mutex
	var nextWrite, nextRead atomic.Int64
	t0 := time.Now()
	writeDue := func(k int64) time.Duration { return time.Duration(float64(k) / writeRate * float64(time.Second)) }
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				elapsed := time.Since(t0)
				if elapsed >= d {
					return
				}
				write := false
				k := nextWrite.Load()
				if writeRate > 0 && writeDue(k) <= elapsed {
					write = nextWrite.CompareAndSwap(k, k+1)
				}
				if !write {
					k = nextRead.Add(1) - 1
				}
				err := do(w, write, int(k))
				done := time.Since(t0)
				mu.Lock()
				if err == nil {
					res.Done = append(res.Done, done)
				}
				switch {
				case err != nil:
					res.Failed++
				case write:
					res.Writes++
				default:
					res.Reads++
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	res.Wall = time.Since(t0)
	return res
}
