// Command perfbench is the repository's benchmark. It drives the system
// through its Go APIs (cluster, provserve, the simulator) on one of four
// workloads, checks the outputs, and prints every metric by name and unit.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// The metric names and units come from the benchmark spec, BENCHMARK.json
// (--spec). With --trace 0 the metrics are its end-to-end ones, taken with
// every tracer off. With --trace 1 the workload runs twice, untraced
// and then with the program's tracer and benchmark-side spans on, and the
// metrics are the per-layer ones from the traced pass plus the tracing
// overhead between the two. See README.md.
//
// Run it from the repository root with perfbench/run.sh, which builds it.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// measurement is what one pass of a workload produced.
type measurement struct {
	e2e       map[string]float64
	layer     map[string]float64
	attempted int64
	failed    int64
	// checkErrs lists every failed correctness check.
	checkErrs []string
	// notes are human-readable lines (sample counts, tail percentiles).
	notes []string
}

func newMeasurement() *measurement {
	return &measurement{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (m *measurement) checkf(ok bool, format string, args ...any) {
	if !ok {
		m.checkErrs = append(m.checkErrs, fmt.Sprintf(format, args...))
	}
}

func (m *measurement) notef(format string, args ...any) {
	m.notes = append(m.notes, fmt.Sprintf(format, args...))
}

// latency records a timing distribution's median as the end-to-end
// latency and its tail as a per-layer metric, both in VM time: the wall
// times measured in the intervals of vm, times the share of those
// intervals the host let the VM run. It notes the wall-time figures and
// the sample count.
func (m *measurement) latency(what string, d dist, vm vmTally) {
	m.e2e["latency_p50_ms"] = d.P50 * vm.share()
	m.layer["workload.latency_tail_ms"] = d.Tail * vm.share()
	m.notef("%s, wall time: n=%d p50=%.4f ms p%g=%.4f ms; %.1f%% of the time stolen",
		what, d.N, d.P50, d.TailPct, d.Tail, 100*(1-vm.share()))
}

const (
	// payloadBytes is the paper's packet payload size.
	payloadBytes = 500
	// minReps is the fewest measured repetitions a run makes, so that
	// its figures are medians even when one repetition fills the time.
	minReps = 3
)

// opts are the per-run settings every workload receives.
type opts struct {
	seed    int64
	seconds time.Duration
	traced  bool
	// dir is a scratch directory inside the checkout, removed at exit.
	dir string
}

var workloads = map[string]func(opts) (*measurement, error){
	"ingest":      runIngest,
	"query-cold":  runQueryCold,
	"serve-mixed": runServeMixed,
	"simulate":    runSimulate,
}

// spec is the part of BENCHMARK.json the benchmark reads: the metrics
// each kind of run reports, with their units.
type spec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(path string) (spec, error) {
	var sp spec
	raw, err := os.ReadFile(path)
	if err != nil {
		return sp, err
	}
	if err := json.Unmarshal(raw, &sp); err != nil {
		return sp, fmt.Errorf("%s: %w", path, err)
	}
	return sp, nil
}

func main() {
	specPath := flag.String("spec", "BENCHMARK.json", "the benchmark spec listing the metrics")
	name := flag.String("workload", "", "workload: ingest, query-cold, serve-mixed or simulate")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 10, "measured seconds per pass")
	traced := flag.Int("trace", 0, "1 = report per-layer metrics from a traced pass")
	flag.Parse()
	sp, err := loadSpec(*specPath)
	if err == nil {
		err = run(sp, *name, *seed, *seconds, *traced == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(sp spec, name string, seed int64, seconds int, traced bool) error {
	fn, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	dir, err := os.MkdirTemp(".", "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	o := opts{seed: seed, seconds: time.Duration(seconds) * time.Second, dir: dir}
	printEnv(name, seed)
	steal0, total0 := cpuSteal()

	m, err := fn(o)
	if err != nil {
		return err
	}
	printNotes("untraced", m)
	res := result{Correct: len(m.checkErrs) == 0, Attempted: m.attempted, Failed: m.failed, Metrics: map[string]metric{}}
	if !traced {
		for _, e := range sp.EndToEnd {
			v, ok := m.e2e[e.Name]
			if !ok {
				return fmt.Errorf("workload %s did not report %s", name, e.Name)
			}
			res.Metrics[e.Name] = metric{v, e.Unit}
		}
	} else {
		o.traced = true
		tm, err := fn(o)
		if err != nil {
			return err
		}
		printNotes("traced", tm)
		res.Correct = res.Correct && len(tm.checkErrs) == 0
		res.Attempted += tm.attempted
		res.Failed += tm.failed
		// Tracing overhead: how much slower the traced pass ran.
		tm.layer["trace.overhead_ratio"] = ratio(m.e2e["ops_per_s"], tm.e2e["ops_per_s"])
		tm.layer["failed_ratio"] = ratio(float64(res.Failed), float64(res.Attempted))
		// Counters come from the undisturbed untraced pass; span-derived
		// metrics exist only in the traced one.
		layer := tm.layer
		for k, v := range m.layer {
			layer[k] = v
		}
		for _, l := range sp.PerLayer {
			res.Metrics[l.Name] = metric{layer[l.Name], l.Unit}
		}
		for k := range layer {
			if _, ok := res.Metrics[k]; !ok {
				return fmt.Errorf("workload %s reported unregistered metric %s", name, k)
			}
		}
		m.checkErrs = append(m.checkErrs, tm.checkErrs...)
	}
	for _, e := range m.checkErrs {
		fmt.Println("CHECK FAILED:", e)
	}
	// Timings on a shared virtual machine move with the time the host
	// takes from it; say how much that was.
	steal1, total1 := cpuSteal()
	fmt.Printf("[host] cpu steal during the run: %.1f%%\n", 100*ratio(float64(steal1-steal0), float64(total1-total0)))
	printMetrics(res.Metrics)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func printNotes(pass string, m *measurement) {
	for _, n := range m.notes {
		fmt.Printf("[%s] %s\n", pass, n)
	}
}

func printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-40s %16.6g %s\n", k, ms[k].Value, ms[k].Unit)
	}
}

// printEnv writes the run's environment as one JSON line.
func printEnv(workload string, seed int64) {
	env := map[string]any{
		"workload":   workload,
		"cpu_model":  cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"commit":     commit(),
		"seed":       seed,
		"fsync":      "interval (ingest; the other workloads keep no WAL)",
	}
	line, _ := json.Marshal(map[string]any{"env": env})
	fmt.Println(string(line))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuSteal reads the host-wide steal and total CPU ticks from
// /proc/stat; both are 0 where that file does not exist.
func cpuSteal() (steal, total uint64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// vmClock times an interval in wall time and in VM time: the wall time
// less the share of it the host gave this virtual machine's CPUs to other
// guests (steal in /proc/stat). On a shared host that share comes and goes
// from minute to minute and slows every timed interval with it, so the
// throughputs are counted per second of VM time. Where /proc/stat reports
// no steal, VM time is wall time.
type vmClock struct {
	start         time.Time
	steal0, tick0 uint64
}

func startVMClock() vmClock {
	steal, total := cpuSteal()
	return vmClock{time.Now(), steal, total}
}

// stop returns the wall time since startVMClock and the VM time in it.
func (c vmClock) stop() (wall, vm time.Duration) {
	wall = time.Since(c.start)
	steal, total := cpuSteal()
	stolen := ratio(float64(steal-c.steal0), float64(total-c.tick0))
	return wall, time.Duration(float64(wall) * (1 - stolen))
}

// vmTally adds up timed intervals in wall and VM time.
type vmTally struct{ wall, vm time.Duration }

func (t *vmTally) add(wall, vm time.Duration) {
	t.wall += wall
	t.vm += vm
}

// share is the VM time over the wall time; 1 before any interval.
func (t vmTally) share() float64 {
	if t.wall <= 0 {
		return 1
	}
	return t.vm.Seconds() / t.wall.Seconds()
}

// commit is the VCS revision the binary was built from, when the build
// ran inside a git checkout.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// startSetup collects the garbage earlier repetitions left, so a set-up
// is not charged for it, and returns the set-up's start time.
func startSetup() time.Time {
	runtime.GC()
	return time.Now()
}

// gcCPUSeconds reads the runtime's estimates of the CPU time spent in
// garbage collection and of the CPU time available to the process
// (GOMAXPROCS × wall time), both since the process started.
func gcCPUSeconds() (gc, total float64) {
	s := []rtmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	rtmetrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// heapMB forces a collection and returns the live heap in MiB. The
// second collection empties the sync.Pool victim caches the first one
// only demoted.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
