package main

import (
	"fmt"
	"math/rand"
	"time"

	"provcompress/internal/apps"
	"provcompress/internal/core"
	"provcompress/internal/engine"
	"provcompress/internal/experiments"
	"provcompress/internal/metrics"
	"provcompress/internal/netsim"
	"provcompress/internal/sim"
	"provcompress/internal/topo"
	"provcompress/internal/types"
	"provcompress/internal/workload"
)

// The simulate workload: the Section 6.1 forwarding experiment on the
// discrete-event simulator (transit-stub topology, seeded pairs,
// 500-character payloads) under ExSPAN, Basic and Advanced, followed by
// simQueries provenance queries on the Advanced run. Every repetition
// rebuilds and reruns all three schemes. It uses the paper's 100 pairs,
// so their mean path length barely depends on the seed, at 10 packets
// per second each for the default 5 simulated seconds.
const simQueries = 1000

func simConfig(seed int64) experiments.ForwardingConfig {
	cfg := experiments.DefaultForwardingConfig()
	cfg.Seed = seed
	cfg.Pairs = 100
	cfg.Rate = 10
	return cfg
}

// simRun is one scheme's built experiment, as experiments builds it.
type simRun struct {
	rt    *engine.Runtime
	maint core.Maintainer
	end   simEnd
}

// simEnd holds storage and wire bytes sampled at the configured duration,
// where the experiments package takes its last snapshot.
type simEnd struct{ storage, bytes int64 }

func buildSim(cfg experiments.ForwardingConfig, scheme string) (*simRun, error) {
	maint, err := core.NewScheme(scheme)
	if err != nil {
		return nil, err
	}
	ts := topo.GenTransitStub(cfg.Topo)
	var sched sim.Scheduler
	net := netsim.New(&sched, ts.Graph)
	rt := engine.NewRuntime(net, apps.Forwarding(), apps.Funcs(), maint)
	if err := rt.LoadBase(ts.Graph.ShortestPaths().RouteTuples()); err != nil {
		return nil, err
	}
	w := workload.PairTraffic{
		Pairs:        workload.ChoosePairs(ts.Stubs, cfg.Pairs, cfg.Seed),
		Rate:         cfg.Rate,
		PayloadBytes: cfg.PayloadBytes,
		Duration:     cfg.Duration,
	}
	w.Schedule(rt, 0)
	run := &simRun{rt: rt, maint: maint}
	at := time.Duration(cfg.Snapshots) * (cfg.Duration / time.Duration(cfg.Snapshots))
	sched.At(at, func() {
		run.end = simEnd{maint.TotalStorageBytes(), net.TotalBytes()}
	})
	return run, nil
}

func runSimulate(o opts) (*measurement, error) {
	cfg := simConfig(o.seed)
	schemes := core.SchemeNames()
	m := newMeasurement()
	var setups, rates, storage, wire, heaps, queryMS, virtPerWall []float64
	var processed float64
	storageBy := map[string]float64{}
	var totalBytes, totalEvents float64
	var firstEnds map[string]simEnd // the first repetition, for the cross-check
	var eventsPerScheme int64
	var measured time.Duration
	var queried vmTally // the query phases
	for rep := 0; measured < o.seconds || rep < minReps; rep++ {
		// Only the Advanced run, queried below, stays live; the others
		// keep their end-of-run samples for the cross-check.
		ends := map[string]simEnd{}
		var adv *simRun
		var events int64
		var wall, vm time.Duration
		processed = 0
		for _, scheme := range schemes {
			t0 := startSetup()
			run, err := buildSim(cfg, scheme)
			if err != nil {
				return nil, err
			}
			setups = append(setups, time.Since(t0).Seconds())
			clk := startVMClock()
			run.rt.Run()
			d, dvm := clk.stop()
			wall += d
			vm += dvm
			ends[scheme] = run.end
			if scheme == core.SchemeAdvanced {
				adv = run
			}
			events += run.rt.Injected()
			processed += float64(run.rt.Net.Scheduler().Processed())
			virtPerWall = append(virtPerWall, run.rt.Net.Scheduler().Now().Seconds()/d.Seconds())
			m.checkf(len(run.rt.Errors()) == 0, "simulate: %s runtime errors: %v", scheme, run.rt.Errors())
			m.checkf(run.rt.NumOutputs() == run.rt.Injected(), "simulate: %s: %d outputs for %d events",
				scheme, run.rt.NumOutputs(), run.rt.Injected())
			storageBy[scheme] = float64(run.maint.TotalStorageBytes()) / float64(run.rt.Injected())
			totalBytes += float64(run.rt.Net.TotalBytes())
			totalEvents += float64(run.rt.Injected())
		}
		measured += wall
		m.attempted += events
		rates = append(rates, float64(events)/vm.Seconds())
		storage = append(storage, storageBy[core.SchemeAdvanced])
		wire = append(wire, float64(adv.rt.Net.TotalBytes())/float64(adv.rt.Injected()))
		heaps = append(heaps, heapMB())
		clk := startVMClock()
		lat, err := simQueryLatencies(adv, o.seed+int64(rep), m)
		queried.add(clk.stop())
		if err != nil {
			return nil, err
		}
		queryMS = append(queryMS, lat...)
		if firstEnds == nil {
			firstEnds = ends
			eventsPerScheme = adv.rt.Injected()
		}
	}
	checkAgainstExperiments(cfg, firstEnds, m)

	m.e2e["setup_s"] = metrics.Median(setups)
	m.e2e["ops_per_s"] = metrics.Median(rates)
	m.latency("simulated provenance query", summarize(queryMS), queried)
	m.e2e["storage_bytes_per_event"] = metrics.Median(storage)
	m.e2e["wire_bytes_per_event"] = metrics.Median(wire)
	m.e2e["retained_heap_mb"] = metrics.Median(heaps)
	m.notef("repetitions=%d input events/scheme=%d measured=%.2fs", len(rates), eventsPerScheme, measured.Seconds())

	l := m.layer
	for _, s := range schemes {
		l["core.storage_bytes_per_event."+s] = storageBy[s]
	}
	l["core.compression_ratio"] = ratio(storageBy[core.SchemeExSPAN], storageBy[core.SchemeAdvanced])
	l["sim.events_processed"] = processed
	l["sim.virtual_s_per_wall_s"] = metrics.Median(virtPerWall)
	l["netsim.bytes_per_event"] = totalBytes / totalEvents
	return m, nil
}

// simQueryLatencies queries seeded outputs of a finished run one at a
// time, timing each query's simulation in wall time, and checks that each
// answer holds the output's own event.
func simQueryLatencies(run *simRun, seed int64, m *measurement) ([]float64, error) {
	outs := run.rt.Outputs()
	if len(outs) == 0 {
		return nil, fmt.Errorf("simulate: no outputs to query")
	}
	r := rand.New(rand.NewSource(seed))
	lat := make([]float64, 0, simQueries)
	for i := 0; i < simQueries; i++ {
		out := outs[r.Intn(len(outs))].Tuple
		var got *core.QueryResult
		t0 := time.Now()
		run.maint.QueryProvenance(out, types.ZeroID, func(qr core.QueryResult) { got = &qr })
		run.rt.Run()
		lat = append(lat, ms(time.Since(t0)))
		if got == nil {
			m.failed++
			m.checkf(false, "simulate: query for %s did not complete", out)
			continue
		}
		ok := len(got.Trees) == 1
		if ok {
			ev := got.Trees[0].EventOf()
			ok = ev.Rel == "packet" && recvOf(ev).Equal(out)
		}
		m.checkf(ok, "simulate: query for %s: want one tree rooted at its packet, got %d trees", out, len(got.Trees))
	}
	return lat, nil
}

// checkAgainstExperiments requires the storage and bandwidth headlines
// (Figures 9 and 11) of a direct experiments run at the same config to
// equal this run's, scheme by scheme.
func checkAgainstExperiments(cfg experiments.ForwardingConfig, ends map[string]simEnd, m *measurement) {
	f9, err := experiments.Fig9(cfg)
	if err != nil {
		m.checkf(false, "simulate: Fig9: %v", err)
		return
	}
	f11, err := experiments.Fig11(cfg, 0)
	if err != nil {
		m.checkf(false, "simulate: Fig11: %v", err)
		return
	}
	for s, end := range ends {
		m.checkf(f9.PerScheme[s].Last() == float64(end.storage),
			"simulate: %s storage %d, experiments.Fig9 says %.0f", s, end.storage, f9.PerScheme[s].Last())
		m.checkf(f11.PerScheme[s].Last() == float64(end.bytes),
			"simulate: %s bandwidth %d, experiments.Fig11 says %.0f", s, end.bytes, f11.PerScheme[s].Last())
	}
}
