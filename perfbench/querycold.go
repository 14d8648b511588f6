package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"provcompress/internal/apps"
	"provcompress/internal/cluster"
	"provcompress/internal/core"
	"provcompress/internal/metrics"
	"provcompress/internal/topo"
	"provcompress/internal/trace"
	"provcompress/internal/types"
	"provcompress/internal/workload"
)

// The query-cold workload: a volatile nine-node chain, so walks span one
// to eight hops, pre-loaded during set-up with queryColdEvents packets,
// each between a seeded one of every ordered pair of nodes. Each of
// queryColdReps repetitions boots a fresh cluster (the timed set-up) and
// gives queryClients closed-loop goroutines an equal share of the run to
// query (output, evid) pairs straight through Cluster.QueryContext: no
// cache, so every query walks. Queries follow one seeded order, each
// repetition resuming where the last stopped, so no event is queried
// twice on one cluster and the run covers every event.
const (
	queryColdNodes  = 9
	queryColdPairs  = queryColdNodes * (queryColdNodes - 1)
	queryColdEvents = 1200
	queryClients    = 2
	queryColdReps   = 10
	queryTimeout    = 10 * time.Second
)

func runQueryCold(o opts) (*measurement, error) {
	g := topo.Line(queryColdNodes, "n")
	routes := g.ShortestPaths().RouteTuples()
	pairs := workload.ChoosePairs(g.Nodes(), queryColdPairs, o.seed)
	r := rand.New(rand.NewSource(o.seed))
	events := make([]types.Tuple, queryColdEvents)
	for i := range events {
		events[i] = workload.PacketEvent(pairs[r.Intn(len(pairs))], int64(i), payloadBytes)
	}
	order := r.Perm(len(events))

	m := newMeasurement()
	var setups, rates, storage, wire, heaps, latMS, hops []float64
	var walkSelf, reconSelf, accounted, benchQuery time.Duration
	var gapsUS []float64
	var sends, frames float64
	var queried, attempted int
	var measured time.Duration
	var timed vmTally
	for rep := 0; rep < queryColdReps; rep++ {
		// Resume the seeded order where the last repetition stopped.
		from := attempted % len(order)
		rot := append(append([]int(nil), order[from:]...), order[:from]...)
		res, err := queryColdOnce(o, g.Nodes(), routes, events, rot, o.seconds/queryColdReps, m)
		if err != nil {
			return nil, err
		}
		measured += res.wall
		timed.add(res.wall, res.vm)
		queried += len(res.latMS)
		setups = append(setups, res.setup.Seconds())
		rates = append(rates, float64(len(res.latMS))/res.vm.Seconds())
		storage = append(storage, float64(res.storage)/float64(len(events)))
		// Each event is queried once, so a query's bytes count against
		// the event it asks about.
		wire = append(wire, float64(res.ingestTS.BytesTotal)/float64(len(events))+
			float64(res.ts.BytesTotal-res.ingestTS.BytesTotal)/float64(res.attempted))
		heaps = append(heaps, res.heapMB)
		attempted += res.attempted
		latMS = append(latMS, res.latMS...)
		hops = append(hops, res.hops...)
		gapsUS = append(gapsUS, res.gapsUS...)
		walkSelf += res.walkSelf
		reconSelf += res.reconSelf
		accounted += res.accounted
		benchQuery += res.benchQuery
		sends += float64(res.ts.Sends - res.ingestTS.Sends)
		frames += float64(framesSent(res.ts) - framesSent(res.ingestTS))
		m.layer["cluster.retries"] += float64(res.ts.Retries)
		m.layer["cluster.drops"] += float64(res.ts.Drops)
		m.layer["cluster.late_results"] += float64(res.ts.LateResults)
	}
	m.attempted = int64(attempted)
	m.e2e["setup_s"] = metrics.Median(setups)
	m.e2e["ops_per_s"] = metrics.Median(rates)
	m.latency("Cluster.QueryContext (cold)", summarize(latMS), timed)
	m.e2e["storage_bytes_per_event"] = metrics.Median(storage)
	m.e2e["wire_bytes_per_event"] = metrics.Median(wire)
	m.e2e["retained_heap_mb"] = metrics.Median(heaps)
	m.notef("repetitions=%d queries=%d measured=%.2fs", len(setups), queried, measured.Seconds())

	l := m.layer
	// Frames per wire write over the query phase only: ≈1 means every
	// walk hop waited for a flush of its own.
	l["cluster.frames_per_batch"] = ratio(frames, sends)
	var hopSum float64
	for _, h := range hops {
		hopSum += h
	}
	l["cluster.query_hops_mean"] = ratio(hopSum, float64(len(hops)))
	if o.traced {
		l["trace.walk_self_us_per_hop"] = ratio(us(walkSelf), hopSum)
		l["trace.walk_hop_gap_us_p50"] = summarize(gapsUS).P50
		l["trace.reconstruct_us_per_query"] = ratio(us(reconSelf), float64(len(hops)))
		l["trace.query_accounted_ratio"] = ratio(float64(accounted), float64(benchQuery))
	}
	return m, nil
}

type queryColdRep struct {
	setup, wall, vm       time.Duration // vm: wall less host steal
	latMS, hops, gapsUS   []float64
	storage               int64
	attempted             int
	ts, ingestTS          cluster.TransportStats
	heapMB                float64
	walkSelf, reconSelf   time.Duration
	accounted, benchQuery time.Duration
}

func queryColdOnce(o opts, nodes []types.NodeAddr, routes, events []types.Tuple, order []int, budget time.Duration, m *measurement) (queryColdRep, error) {
	var res queryColdRep
	var tracer, bench *trace.Collector
	if o.traced {
		tracer = trace.NewCollector(1 << 20)
		bench = trace.NewCollector(1 << 20)
	}
	t0 := startSetup()
	c, err := cluster.New(cluster.Config{
		Prog:   apps.Forwarding(),
		Funcs:  apps.Funcs(),
		Nodes:  nodes,
		Scheme: core.SchemeAdvanced,
		Tracer: tracer,
	})
	if err != nil {
		return res, err
	}
	defer c.Close()
	if err := c.LoadBase(routes); err != nil {
		return res, err
	}
	for _, ev := range events {
		if err := c.Inject(ev); err != nil {
			return res, err
		}
	}
	if err := c.Quiesce(time.Minute); err != nil {
		return res, err
	}
	res.setup = time.Since(t0)
	checkIngestOutputs(c, events, m)
	res.ingestTS = c.TransportStats()

	type answer struct {
		ev   int
		lat  time.Duration
		qr   cluster.QueryResult
		err  error
		bsID trace.TraceID
	}
	answers := make([]answer, 0, len(events))
	var mu sync.Mutex
	var next atomic.Int64
	clk := startVMClock()
	deadline := time.Now().Add(budget)
	var wg sync.WaitGroup
	for w := 0; w < queryClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				k := int(next.Add(1) - 1)
				if k >= len(order) {
					return
				}
				ev := events[order[k]]
				sp := bench.StartSpan(trace.SpanContext{}, "bench", "bench", "Cluster.QueryContext")
				qs := time.Now()
				qr, err := c.QueryContext(context.Background(), recvOf(ev), types.HashTuple(ev), queryTimeout)
				lat := time.Since(qs)
				sp.End()
				mu.Lock()
				answers = append(answers, answer{ev: order[k], lat: lat, qr: qr, err: err, bsID: sp.Context().Trace})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.wall, res.vm = clk.stop()
	res.ts = c.TransportStats()
	res.attempted = len(answers)
	res.storage = c.TotalStorageBytes()
	res.heapMB = heapMB()

	var benchDur = map[trace.TraceID]time.Duration{}
	for _, sp := range spansOf(bench) {
		benchDur[sp.Trace] = sp.End - sp.Start
	}
	for _, a := range answers {
		ev := events[a.ev]
		if a.err != nil {
			m.failed++
			m.checkf(false, "query-cold: query for %s: %v", ev, a.err)
			continue
		}
		want := types.HashTuple(ev)
		if len(a.qr.Trees) != 1 || a.qr.Trees[0].EvID() != want {
			m.checkf(false, "query-cold: %s: got %d trees, want exactly one whose event hashes to %s", ev, len(a.qr.Trees), want)
			continue
		}
		res.latMS = append(res.latMS, ms(a.lat))
		res.hops = append(res.hops, float64(a.qr.Hops))
		if tracer == nil {
			continue
		}
		spans := tracer.Trace(a.qr.TraceID)
		if len(spans) == 0 {
			m.checkf(false, "query-cold: no spans for query trace %d", a.qr.TraceID)
			continue
		}
		t := newSpanTree(spans)
		path := t.blockingPath(spans[0])
		var acc time.Duration
		for _, sp := range path[1:] {
			switch sp.Kind {
			case "walk":
				res.walkSelf += t.self(sp)
				acc += t.self(sp)
			case "reconstruct":
				res.reconSelf += t.self(sp)
				acc += t.self(sp)
			}
		}
		for _, gp := range pathGaps(path) {
			res.gapsUS = append(res.gapsUS, us(gp))
			acc += gp
		}
		res.accounted += acc
		res.benchQuery += benchDur[a.bsID]
	}
	if tracer != nil {
		m.checkf(tracer.Dropped() == 0, "query-cold: tracer dropped %d spans", tracer.Dropped())
	}
	if len(res.latMS) == 0 {
		return res, fmt.Errorf("query-cold: no query completed")
	}
	return res, nil
}
