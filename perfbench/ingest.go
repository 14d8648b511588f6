package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"provcompress/internal/apps"
	"provcompress/internal/cluster"
	"provcompress/internal/core"
	"provcompress/internal/metrics"
	"provcompress/internal/store"
	"provcompress/internal/topo"
	"provcompress/internal/trace"
	"provcompress/internal/types"
	"provcompress/internal/workload"
)

// The ingest workload: a durable six-node chain, packets between every
// ordered pair of nodes (so the hop mix is the same for every seed, and
// the seed picks each packet's pair), fed by ingestFeeders closed-loop goroutines
// in rounds of ingestRoundEvents, each round ended by Quiesce — the
// daemon's "POST a batch and wait until it is queryable". Each repetition
// boots a fresh cluster so state never grows past one repetition.
const (
	ingestNodes       = 6
	ingestPairs       = ingestNodes * (ingestNodes - 1)
	ingestFeeders     = 2
	ingestRounds      = 8
	ingestRoundEvents = 500
	// ingestSetups boots are timed, each on its own, for setup_s: one
	// takes about a millisecond, so a median of many is needed.
	ingestSetups = 40
)

func runIngest(o opts) (*measurement, error) {
	g := topo.Line(ingestNodes, "n")
	nodes, routes := g.Nodes(), g.ShortestPaths().RouteTuples()
	pairs := workload.ChoosePairs(nodes, ingestPairs, o.seed)
	r := rand.New(rand.NewSource(o.seed))
	events := make([]types.Tuple, ingestRounds*ingestRoundEvents)
	for i := range events {
		events[i] = workload.PacketEvent(pairs[r.Intn(len(pairs))], int64(i), payloadBytes)
	}

	m := newMeasurement()
	var rates, storage, wire, heaps, roundMS, drains, injectUS []float64
	var tot struct {
		events, mallocs, gcCPU, cpu      float64
		base, prov, batch, sends, frames float64
		walBytes, walRecords             float64
		ruleSelf, processSelf            time.Duration
	}
	var last ingestRep
	var measured time.Duration
	var timed vmTally
	for rep := 0; measured < o.seconds || rep < minReps; rep++ {
		res, err := ingestOnce(o, rep, nodes, routes, events, m)
		if err != nil {
			return nil, err
		}
		last = res
		measured += res.wall
		timed.add(res.wall, res.vm)
		rates = append(rates, float64(len(events))/res.vm.Seconds())
		storage = append(storage, float64(res.storage)/float64(len(events)))
		wire = append(wire, float64(res.ts.BytesTotal)/float64(len(events)))
		heaps = append(heaps, res.heapMB)
		roundMS = append(roundMS, res.rounds...)
		drains = append(drains, res.drainS...)
		injectUS = append(injectUS, res.injectUS...)
		tot.events += float64(len(events))
		tot.mallocs += float64(res.mallocs)
		tot.gcCPU += res.gcCPU
		tot.cpu += res.cpu
		tot.base += float64(res.ts.BytesBase)
		tot.prov += float64(res.ts.BytesProv)
		tot.batch += float64(res.ts.BytesBatch)
		tot.sends += float64(res.ts.Sends)
		tot.frames += float64(framesSent(res.ts))
		tot.walBytes += float64(res.dur.WALBytes)
		tot.walRecords += float64(res.dur.WALRecords)
		tot.ruleSelf += res.ruleSelf
		tot.processSelf += res.processSelf
		m.layer["cluster.retries"] += float64(res.ts.Retries)
		m.layer["cluster.drops"] += float64(res.ts.Drops)
		m.layer["cluster.late_results"] += float64(res.ts.LateResults)
		m.layer["store.snapshots"] += float64(res.dur.Snapshots)
		m.layer["store.errors"] += float64(res.dur.Errors)
	}
	// The set-ups are timed after the measured rounds rather than first
	// thing, when the freshly built binary may still be being written out,
	// and after the rounds' WAL has been written back, so that the disk
	// is not still busy with it.
	syscall.Sync()
	setups := make([]float64, ingestSetups)
	for i := range setups {
		dataDir := filepath.Join(o.dir, fmt.Sprintf("ingest-setup-%d", i))
		c, d, err := bootIngest(nodes, routes, dataDir, nil)
		if err != nil {
			return nil, err
		}
		c.Close()
		os.RemoveAll(dataDir)
		setups[i] = d.Seconds()
	}
	m.attempted = int64(tot.events)
	m.e2e["setup_s"] = metrics.Median(setups)
	m.e2e["ops_per_s"] = metrics.Median(rates)
	m.latency("round (500 events injected + Quiesce)", summarize(roundMS), timed)
	m.e2e["storage_bytes_per_event"] = metrics.Median(storage)
	m.e2e["wire_bytes_per_event"] = metrics.Median(wire)
	m.e2e["retained_heap_mb"] = metrics.Median(heaps)
	m.notef("set-ups=%d repetitions=%d events/rep=%d measured=%.2fs", ingestSetups, len(rates), len(events), measured.Seconds())

	l := m.layer
	l["cluster.frames_per_batch"] = ratio(tot.frames, tot.sends)
	l["cluster.bytes_base_per_event"] = tot.base / tot.events
	l["cluster.bytes_prov_per_event"] = tot.prov / tot.events
	l["cluster.bytes_batch_per_event"] = tot.batch / tot.events
	l["process.allocs_per_event"] = tot.mallocs / tot.events
	l["process.gc_cpu_fraction"] = ratio(tot.gcCPU, tot.cpu)
	l["engine.graveyard_tuples"] = float64(last.graveyard)
	l["core.deferred_outputs"] = float64(last.adv.DeferredOutputs)
	l["core.deferred_landings"] = float64(last.adv.DeferredLandings)
	l["core.sig_clears"] = float64(last.adv.SigClears)
	l["store.wal_bytes_per_event"] = tot.walBytes / tot.events
	l["store.wal_records_per_event"] = tot.walRecords / tot.events
	if o.traced {
		d := summarize(injectUS)
		l["cluster.inject_call_us_p50"] = d.P50
		l["cluster.inject_call_us_p99"] = d.Tail
		m.notef("Cluster.Inject call: n=%d p50=%.2f us p%g=%.2f us", d.N, d.P50, d.TailPct, d.Tail)
		l["cluster.drain_s"] = metrics.Median(drains)
		l["trace.rule_self_us_per_event"] = us(tot.ruleSelf) / tot.events
		l["trace.process_self_us_per_event"] = us(tot.processSelf) / tot.events
	}
	return m, nil
}

// ingestRep is one repetition's raw numbers.
type ingestRep struct {
	wall                  time.Duration
	vm                    time.Duration // wall less host steal
	rounds                []float64     // ms
	injectUS, drainS      []float64
	storage               int64
	ts                    cluster.TransportStats
	dur                   cluster.DurabilityStats
	adv                   core.AdvancedStats
	graveyard             int
	mallocs               uint64
	gcCPU, cpu            float64 // CPU seconds over the timed region
	heapMB                float64
	ruleSelf, processSelf time.Duration
}

func ingestOnce(o opts, rep int, nodes []types.NodeAddr, routes, events []types.Tuple, m *measurement) (ingestRep, error) {
	var res ingestRep
	dataDir := filepath.Join(o.dir, fmt.Sprintf("ingest-%d", rep))
	defer os.RemoveAll(dataDir)
	var tracer, bench *trace.Collector
	if o.traced {
		tracer = trace.NewCollector(1 << 20)
		bench = trace.NewCollector(1 << 20)
	}

	c, _, err := bootIngest(nodes, routes, dataDir, tracer)
	if err != nil {
		return res, err
	}
	defer c.Close()

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0, cpu0 := gcCPUSeconds()
	clk := startVMClock()
	for round := 0; round < ingestRounds; round++ {
		batch := events[round*ingestRoundEvents : (round+1)*ingestRoundEvents]
		rs := time.Now()
		var wg sync.WaitGroup
		errs := make([]error, ingestFeeders)
		for f := 0; f < ingestFeeders; f++ {
			wg.Add(1)
			go func(f int) {
				defer wg.Done()
				for i := f; i < len(batch); i += ingestFeeders {
					sp := bench.StartSpan(trace.SpanContext{}, "bench", "bench", "Cluster.Inject")
					err := c.Inject(batch[i])
					sp.End()
					if err != nil {
						errs[f] = err
						return
					}
				}
			}(f)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return res, fmt.Errorf("inject: %w", err)
			}
		}
		sp := bench.StartSpan(trace.SpanContext{}, "bench", "bench", "Cluster.Quiesce")
		err := c.Quiesce(time.Minute)
		sp.End()
		if err != nil {
			return res, err
		}
		res.rounds = append(res.rounds, ms(time.Since(rs)))
	}
	res.wall, res.vm = clk.stop()
	gc1, cpu1 := gcCPUSeconds()
	runtime.ReadMemStats(&ms1)
	res.mallocs = ms1.Mallocs - ms0.Mallocs
	res.gcCPU, res.cpu = gc1-gc0, cpu1-cpu0

	checkIngestOutputs(c, events, m)
	res.storage = c.TotalStorageBytes()
	res.ts = c.TransportStats()
	res.dur = c.DurabilityStats()
	res.adv = c.AdvancedStats()
	res.graveyard = c.GraveyardSize()
	res.heapMB = heapMB()

	for _, sp := range spansOf(bench) {
		switch sp.Name {
		case "Cluster.Inject":
			res.injectUS = append(res.injectUS, us(sp.End-sp.Start))
		case "Cluster.Quiesce":
			res.drainS = append(res.drainS, (sp.End - sp.Start).Seconds())
		}
	}
	for _, id := range tracer.TraceIDs() {
		spans := tracer.Trace(id)
		t := newSpanTree(spans)
		for _, sp := range spans {
			switch sp.Kind {
			case "rule":
				res.ruleSelf += t.self(sp)
			case "process":
				res.processSelf += t.self(sp)
			}
		}
	}
	if tracer != nil {
		m.checkf(tracer.Dropped() == 0, "ingest: tracer dropped %d spans", tracer.Dropped())
	}
	return res, nil
}

// bootIngest boots the durable chain and loads its routes; the duration
// is the set-up time.
func bootIngest(nodes []types.NodeAddr, routes []types.Tuple, dataDir string, tracer *trace.Collector) (*cluster.Cluster, time.Duration, error) {
	t0 := startSetup()
	c, err := cluster.New(cluster.Config{
		Prog:       apps.Forwarding(),
		Funcs:      apps.Funcs(),
		Nodes:      nodes,
		Scheme:     core.SchemeAdvanced,
		Tracer:     tracer,
		DataDir:    dataDir,
		Durability: store.Options{Fsync: store.SyncInterval},
	})
	if err != nil {
		return nil, 0, err
	}
	if err := c.LoadBase(routes); err != nil {
		c.Close()
		return nil, 0, err
	}
	return c, time.Since(t0), nil
}

// checkIngestOutputs requires one output per injected event, each landed
// at its packet's destination.
func checkIngestOutputs(c *cluster.Cluster, events []types.Tuple, m *measurement) {
	m.checkf(len(c.AllOutputs()) == len(events), "ingest: %d outputs for %d events", len(c.AllOutputs()), len(events))
	landed := map[types.NodeAddr]map[types.ID]bool{}
	for _, ev := range events {
		dst := types.NodeAddr(ev.Args[2].AsString())
		if landed[dst] == nil {
			landed[dst] = map[types.ID]bool{}
			for _, out := range c.Outputs(dst) {
				landed[dst][types.HashTuple(out)] = true
			}
		}
		if !landed[dst][types.HashTuple(recvOf(ev))] {
			m.checkf(false, "ingest: no output at %s for %s", dst, ev)
			return
		}
	}
}

// recvOf is the output the forwarding program derives from a packet
// event: recv(@D, S, D, DT).
func recvOf(ev types.Tuple) types.Tuple {
	return types.NewTuple("recv", ev.Args[2], ev.Args[1], ev.Args[2], ev.Args[3])
}

// framesSent counts the frames a cluster wrote: one per single-frame
// write plus every sub-frame of each coalesced batch.
func framesSent(ts cluster.TransportStats) int64 {
	return ts.Sends - ts.Batches + ts.BatchFrames
}

// spansOf returns every span a collector holds.
func spansOf(c *trace.Collector) []trace.Span {
	var out []trace.Span
	for _, id := range c.TraceIDs() {
		out = append(out, c.Trace(id)...)
	}
	return out
}
