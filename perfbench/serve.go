package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"provcompress/internal/cluster"
	"provcompress/internal/clusterboot"
	"provcompress/internal/metrics"
	"provcompress/internal/provserve"
	"provcompress/internal/trace"
	"provcompress/internal/types"
	"provcompress/internal/workload"
)

// The serve-mixed workload: provserve with the daemon's shipped defaults
// (every scheme, eight-node chain, 8 workers, 64-deep queue, 1024-entry
// cache, default tenant) over loopback HTTP. The read set is
// serveOutputs pre-ingested outputs, twice the cache, read with
// Zipf(serveZipf) skew: about seven reads in ten hit the cache, so the
// median read lies among the hits. Over four times the cache, hits fall to
// about six in ten and the median sits where hits meet misses, jumping by
// half between runs. The output of Zipf rank k belongs to the k-th pair
// of a seeded order, round robin, so every class (pair) holds the same
// share of the hot outputs and of every hop count. The load comes from
// queryClients connections, and all along a writer POSTs one fresh event
// every 1/serveWriteRate seconds, cycling through the classes being read
// in another seeded order: whichever classes a seed writes to, a write
// evicts about as many cached answers. First an open loop steps reads
// through serveSteps, each request timed from its due time; then a closed
// loop sends requests back to back for serveClosedShare of the run, which
// gives the throughput two connections get from the server.
const (
	serveOutputs   = 2048
	servePairs     = 56 // every ordered pair of the chain: small classes
	serveZipf      = 0.9
	serveWriteRate = 5.0
	serveLimit     = 50 * time.Millisecond // p99 limit for serve.slo_qps
	serveSetups    = 5
	serveSamples   = 100  // served answers re-checked against a fresh walk
	serveWarmReads = 2000 // Zipf reads that fill the cache before timing
	serveScheme    = "advanced"
)

// serveSteps are the open loop's read steps as (reads per second, share
// of the run). The first is the base step the end-to-end latency is taken
// at. The others raise the rate by half each time, up to a step above
// what two connections sustain on the reference machine (about 1300
// requests per second), so serve.slo_qps finds a limit.
var serveSteps = []struct{ Rate, Share float64 }{{200, 0.25}, {300, 0.03}, {450, 0.03}, {675, 0.03}, {1000, 0.03}, {1500, 0.03}}

// serveClosedShare is the share of the run given to the closed loop, and
// serveBlock the number of completions in each block whose median rate it
// reports: a burst of contention on the machine then moves a few blocks,
// not the result.
const (
	serveClosedShare = 0.6
	serveBlock       = 250
)

// serveStack is one booted daemon.
type serveStack struct {
	clusters map[string]*cluster.Cluster
	srv      *provserve.Server
	hs       *http.Server
	base     string
}

func (s *serveStack) close() {
	s.hs.Close()
	s.srv.Close()
	for _, c := range s.clusters {
		c.Close()
	}
}

// bootServe starts the daemon and pre-ingests the read set over HTTP.
func bootServe(tracer *trace.Collector, events []types.Tuple) (*serveStack, error) {
	fs := flag.NewFlagSet("provd", flag.ContinueOnError)
	bf := clusterboot.Register(fs)
	if err := fs.Parse(nil); err != nil {
		return nil, err
	}
	bf.Tracer = tracer
	st := &serveStack{clusters: map[string]*cluster.Cluster{}}
	for _, scheme := range []string{"advanced", "basic", "exspan"} {
		c, _, err := bf.Boot(scheme)
		if err != nil {
			for _, c := range st.clusters {
				c.Close()
			}
			return nil, err
		}
		st.clusters[scheme] = c
	}
	srv, err := provserve.New(provserve.Config{Clusters: st.clusters, Tracer: tracer})
	if err != nil {
		for _, c := range st.clusters {
			c.Close()
		}
		return nil, err
	}
	st.srv = srv
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	st.hs = &http.Server{Handler: srv.Handler()}
	go st.hs.Serve(ln) //nolint:errcheck // returns ErrServerClosed on close
	st.base = "http://" + ln.Addr().String()
	client := newClient()
	const batch = 512
	for i := 0; i < len(events); i += batch {
		wait := 0
		if i+batch >= len(events) {
			wait = 60_000
		}
		if err := postEvents(client, st.base, events[i:min(i+batch, len(events))], wait); err != nil {
			st.close()
			return nil, err
		}
	}
	return st, nil
}

// newClient is one load-generating connection.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
		Timeout:   time.Minute,
	}
}

type eventSpec struct {
	Rel  string `json:"rel"`
	Args []any  `json:"args"`
}

func specOf(t types.Tuple) eventSpec {
	args := make([]any, len(t.Args))
	for i, a := range t.Args {
		args[i] = a.AsString()
	}
	return eventSpec{Rel: t.Rel, Args: args}
}

func postEvents(client *http.Client, base string, evs []types.Tuple, waitMS int) error {
	specs := make([]eventSpec, len(evs))
	for i, ev := range evs {
		specs[i] = specOf(ev)
	}
	body, err := json.Marshal(map[string]any{"events": specs, "wait_ms": waitMS})
	if err != nil {
		return err
	}
	resp, err := client.Post(base+"/v1/events", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var er struct {
		Accepted int  `json:"accepted"`
		Quiesced bool `json:"quiesced"`
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("POST /v1/events: %s: %s", resp.Status, msg)
	}
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		return err
	}
	if er.Accepted != len(evs) || (waitMS > 0 && !er.Quiesced) {
		return fmt.Errorf("POST /v1/events: accepted %d of %d, quiesced=%v", er.Accepted, len(evs), er.Quiesced)
	}
	return nil
}

// queryReply is the part of a /v1/query answer the benchmark reads.
type queryReply struct {
	Cached  bool     `json:"cached"`
	Trees   []string `json:"trees"`
	QueryNS int64    `json:"query_ns"`
	ServeNS int64    `json:"serve_ns"`
}

func queryURL(base string, out types.Tuple) string {
	args, _ := json.Marshal(specOf(out).Args) // a list of strings always marshals
	return base + "/v1/query?rel=" + out.Rel + "&args=" + url.QueryEscape(string(args))
}

func getQuery(client *http.Client, u string) (queryReply, error) {
	var qr queryReply
	resp, err := client.Get(u)
	if err != nil {
		return qr, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining for connection reuse
		return qr, fmt.Errorf("GET /v1/query: %s", resp.Status)
	}
	return qr, json.NewDecoder(resp.Body).Decode(&qr)
}

// serverStats reads the server counters from /v1/stats.
func serverStats(client *http.Client, base string) (map[string]int64, error) {
	resp, err := client.Get(base + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var sr struct {
		Server map[string]int64 `json:"server"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return nil, err
	}
	return sr.Server, nil
}

func runServeMixed(o opts) (*measurement, error) {
	nodes := make([]types.NodeAddr, 8) // clusterboot's default chain
	for i := range nodes {
		nodes[i] = types.NodeAddr(fmt.Sprintf("n%d", i))
	}
	pairs := workload.ChoosePairs(nodes, servePairs, o.seed) // a seeded order
	r := rand.New(rand.NewSource(o.seed))
	events := make([]types.Tuple, serveOutputs) // by Zipf rank
	for i := range events {
		events[i] = workload.PacketEvent(pairs[i%len(pairs)], int64(i), payloadBytes)
	}
	writeOrder := r.Perm(len(pairs))
	writes := 0
	nextWrite := func(seq int64) types.Tuple {
		p := pairs[writeOrder[writes%len(pairs)]]
		writes++
		return workload.PacketEvent(p, seq, payloadBytes)
	}

	m := newMeasurement()
	var tracer *trace.Collector
	if o.traced {
		tracer = trace.NewCollector(0)
	}
	clients := make([]*http.Client, queryClients)
	for i := range clients {
		clients[i] = newClient()
	}

	// Set up serveSetups times for a steady setup_s; measure the last.
	var setups []float64
	var st *serveStack
	for i := 0; i < serveSetups; i++ {
		if st != nil {
			st.close()
		}
		t0 := startSetup()
		var err error
		if st, err = bootServe(tracer, events); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer st.close()

	// A long-running daemon's cache is warm: fill it, untimed, from the
	// same Zipf distribution before the schedule starts.
	warm := workload.NewZipf(rand.New(rand.NewSource(o.seed+2)), len(events), serveZipf)
	warmURLs := make([]string, serveWarmReads)
	for i := range warmURLs {
		warmURLs[i] = queryURL(st.base, recvOf(events[warm.Next()]))
	}
	var warmErr atomic.Value
	var nextWarm atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < queryClients; w++ {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for i := nextWarm.Add(1) - 1; i < serveWarmReads; i = nextWarm.Add(1) - 1 {
				if _, err := getQuery(c, warmURLs[i]); err != nil {
					warmErr.Store(err)
					return
				}
			}
		}(clients[w])
	}
	wg.Wait()
	if err, ok := warmErr.Load().(error); ok {
		return nil, fmt.Errorf("serve-mixed warm-up: %w", err)
	}

	// The schedule: reads by step, writes spread over the whole run.
	steps := make([]step, len(serveSteps))
	for i, s := range serveSteps {
		steps[i] = step{Rate: s.Rate, Dur: time.Duration(s.Share * float64(o.seconds))}
	}
	sched := openLoopSchedule(steps, serveWriteRate)
	zipf := workload.NewZipf(rand.New(rand.NewSource(o.seed+1)), len(events), serveZipf)
	urls := make([]string, len(sched))
	target := make([]int, len(sched))
	openWrites := make([]types.Tuple, len(sched))
	seq := int64(len(events))
	for i, a := range sched {
		if a.Write {
			openWrites[i] = nextWrite(seq)
			seq++
			continue
		}
		target[i] = zipf.Next()
		urls[i] = queryURL(st.base, recvOf(events[target[i]]))
	}
	closedDur := time.Duration(serveClosedShare * float64(o.seconds))
	closedWrites := make([]types.Tuple, int(serveWriteRate*closedDur.Seconds())+1)
	for i := range closedWrites {
		closedWrites[i] = nextWrite(seq)
		seq++
	}
	sampled := map[int]bool{}
	for len(sampled) < serveSamples {
		if i := r.Intn(len(sched)); !sched[i].Write {
			sampled[i] = true
		}
	}

	before, err := serverStats(clients[0], st.base)
	if err != nil {
		return nil, err
	}
	replies := make([]queryReply, len(sched))
	clientNS := make([]int64, len(sched))
	openClk := startVMClock()
	outs := runOpenLoop(sched, queryClients, func(w, i int) error {
		if sched[i].Write {
			return postEvents(clients[w], st.base, openWrites[i:i+1], 0)
		}
		t := time.Now()
		qr, err := getQuery(clients[w], urls[i])
		clientNS[i] = time.Since(t).Nanoseconds()
		replies[i] = qr
		return err
	})
	var open vmTally
	open.add(openClk.stop())
	var zipfMu sync.Mutex
	var closedHits atomic.Int64
	clk := startVMClock()
	closed := runClosedLoop(closedDur, queryClients, serveWriteRate, func(w int, write bool, k int) error {
		if write {
			return postEvents(clients[w], st.base, closedWrites[k:k+1], 0)
		}
		zipfMu.Lock()
		u := queryURL(st.base, recvOf(events[zipf.Next()]))
		zipfMu.Unlock()
		qr, err := getQuery(clients[w], u)
		if qr.Cached {
			closedHits.Add(1)
		}
		return err
	})
	seq -= int64(len(closedWrites) - closed.Writes) // writes never sent
	closedWall, closedVM := clk.stop()
	after, err := serverStats(clients[0], st.base)
	if err != nil {
		return nil, err
	}

	// Latency and the per-step SLO verdicts.
	var base, writeMS, lateMS, serveUS, overheadUS, missMS []float64
	stepLat := make([][]float64, len(steps))
	stepFailed := make([]int, len(steps))
	stepBacklog := make([]int, len(steps))
	backlogMax := 0
	for i, a := range sched {
		oc := outs[i]
		m.attempted++
		lateMS = append(lateMS, ms(oc.Late))
		backlogMax = max(backlogMax, oc.Backlog)
		stepBacklog[a.Step] = oc.Backlog // the step's last arrival
		if oc.Err != nil {
			m.failed++
			stepFailed[a.Step]++
			continue
		}
		if a.Write {
			writeMS = append(writeMS, ms(oc.Latency))
			continue
		}
		stepLat[a.Step] = append(stepLat[a.Step], ms(oc.Latency))
		if a.Step == 0 {
			base = append(base, ms(oc.Latency))
		}
		q := replies[i]
		serveUS = append(serveUS, float64(q.ServeNS)/1e3)
		overheadUS = append(overheadUS, float64(clientNS[i]-q.ServeNS)/1e3)
		if !q.Cached {
			missMS = append(missMS, float64(q.QueryNS)/1e6)
		}
	}
	// serve.slo_qps is the highest step that, with every step below it,
	// met the limit.
	sloQPS, passing := 0.0, true
	for i, s := range steps {
		d := summarize(stepLat[i])
		ok := stepFailed[i] == 0 && d.Tail <= ms(serveLimit) && stepBacklog[i] <= queryClients
		m.notef("read step %d: %.0f/s n=%d p50=%.3f ms p%g=%.3f ms failed=%d backlog_at_end=%d meets_limit=%v",
			i, s.Rate, d.N, d.P50, d.TailPct, d.Tail, stepFailed[i], stepBacklog[i], ok)
		if passing = passing && ok; passing {
			sloQPS = s.Rate
		}
	}
	m.attempted += int64(closed.Reads + closed.Writes + closed.Failed)
	m.failed += int64(closed.Failed)
	// Requests the closed loop completed per second of VM time, the
	// median over its blocks: what two connections get from the server
	// when neither waits for a schedule.
	blockMedian := metrics.Median(blockRates(closed.Done, serveBlock))
	m.notef("closed loop: %d reads (%d cache hits) and %d writes in %.2fs, %d failed; median block rate %.1f/s of wall time, %.1f%% of it stolen",
		closed.Reads, closedHits.Load(), closed.Writes, closed.Wall.Seconds(), closed.Failed, blockMedian, 100*(1-ratio(closedVM.Seconds(), closedWall.Seconds())))
	m.e2e["setup_s"] = metrics.Median(setups)
	m.e2e["ops_per_s"] = blockMedian * ratio(closedWall.Seconds(), closedVM.Seconds())
	m.latency("read at the base step, timed from its due time", summarize(base), open)

	adv := st.clusters[serveScheme]
	if err := adv.Quiesce(time.Minute); err != nil {
		return nil, err
	}
	ingested := float64(seq) // pre-ingested plus written
	m.e2e["storage_bytes_per_event"] = float64(adv.TotalStorageBytes()) / ingested
	ts := adv.TransportStats()
	// As on query-cold: ingest traffic per event ingested plus walk
	// traffic per walk. Every cache miss since boot walks the Advanced
	// cluster, and how many reads a run makes follows the machine's speed,
	// so all traffic over events ingested would move with it.
	walks := float64(after["cache-misses"])
	m.e2e["wire_bytes_per_event"] = float64(ts.BytesTotal-ts.BytesQuery)/ingested + ratio(float64(ts.BytesQuery), walks)
	m.notef("wire: %.1f B per event ingested (%d events), %.1f B of walk traffic per cache miss (%.0f misses)",
		float64(ts.BytesTotal-ts.BytesQuery)/ingested, seq, ratio(float64(ts.BytesQuery), walks), walks)
	m.e2e["retained_heap_mb"] = heapMB()

	l := m.layer
	delta := func(k string) float64 { return float64(after[k] - before[k]) }
	l["provserve.cache_hit_ratio"] = ratio(delta("cache-hits"), delta("cache-hits")+delta("cache-misses"))
	for _, reason := range []string{"class", "vid", "inflight", "lru"} {
		l["provserve.cache_invalidated_"+reason] = delta("cache-invalidated-" + reason)
	}
	l["provserve.cache_stale_drops"] = delta("cache-stale-drops")
	l["provserve.rejected"] = delta("rejected")
	l["provserve.query_errors"] = delta("query-errors")
	l["provserve.serve_us_p50"] = summarize(serveUS).P50
	l["provserve.http_overhead_us_p50"] = summarize(overheadUS).P50
	l["provserve.miss_walk_ms_p50"] = summarize(missMS).P50
	wd := summarize(writeMS)
	l["serve.write_p50_ms"], l["serve.write_tail_ms"] = wd.P50, wd.Tail
	m.notef("POST /v1/events (1 event), timed from its due time: n=%d p50=%.3f ms p%g=%.3f ms", wd.N, wd.P50, wd.TailPct, wd.Tail)
	l["serve.slo_qps"] = sloQPS
	ld := summarize(lateMS)
	l["loadgen.late_ms_p99"] = ld.Tail
	l["loadgen.backlog_max"] = float64(backlogMax)
	l["cluster.retries"] = float64(ts.Retries)
	l["cluster.drops"] = float64(ts.Drops)
	l["cluster.late_results"] = float64(ts.LateResults)

	// A seeded sample of served answers must equal a fresh, cacheless
	// walk taken after the writes have settled.
	for i := range sampled {
		if outs[i].Err != nil {
			continue
		}
		out := recvOf(events[target[i]])
		qr, err := adv.QueryContext(context.Background(), out, types.ZeroID, queryTimeout)
		if err != nil {
			m.checkf(false, "serve-mixed: fresh walk for %s: %v", out, err)
			continue
		}
		fresh := make([]string, len(qr.Trees))
		for k, t := range qr.Trees {
			fresh[k] = t.String()
		}
		m.checkf(len(fresh) == 1 && slices.Equal(fresh, replies[i].Trees),
			"serve-mixed: served answer for %s differs from a fresh walk:\nserved %q\nfresh  %q", out, replies[i].Trees, fresh)
	}
	return m, nil
}
