// Command perfbench is the repository's end-to-end benchmark. One run
// measures one workload and prints, as its last line, a JSON object
// with the keys correct, attempted, failed and metrics:
//
//	bash perfbench/run.sh --workload sim-kv-bursty --seed 1 --seconds 20 --trace 0
//
// Three workloads drive the discrete-event simulator through
// server.RunWith / server.RunRackWith; one drives the live goroutine
// runtime over TCP loopback with the benchmark's own client. With
// --trace 0 the metrics are the end-to-end set; with --trace 1 the same
// workload is repeated with a CPU profile (sim) or per-request stage
// stamps (live) and the per-layer set is printed instead. README.md in
// this directory says why each workload exists.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// procStart anchors setup_s and every wall-clock stamp of the run.
var procStart = time.Now() //altolint:allow detnow the benchmark measures host wall time by definition

// wallNS is the benchmark's wall clock: monotonic nanoseconds since
// process start, shared by the live client and the server-side hooks
// so per-request stage stamps subtract exactly.
func wallNS() int64 {
	return int64(time.Since(procStart)) //altolint:allow detnow the benchmark measures host wall time by definition
}

// opts are the driver's arguments.
type opts struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
}

// run collects one workload run's outcome: operation counts, the
// correctness problems found, and the measured metrics by name.
type run struct {
	attempted, failed int64
	problems          []string
	metrics           map[string]float64
	info              map[string]any
}

func newRun() *run {
	return &run{metrics: map[string]float64{}, info: map[string]any{}}
}

// fail records a correctness problem; the run then reports correct=false.
func (r *run) fail(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

type metricSpec struct{ name, unit string }

// endToEnd and perLayer mirror BENCHMARK.json. Every workload reports
// every end-to-end metric; a per-layer metric of a layer the workload
// never enters reads 0.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"host_ns_per_req", "ns"},
}

// profiledModules are the layers CPU self time is attributed to
// (profile.go); anything else lands in "other".
var profiledModules = []string{
	"sim", "core", "policy", "topo", "exec", "check", "stats", "server",
	"mica", "rack", "sched", "nic", "dist", "arena", "live", "rpcproto",
	"runtime", "other",
}

var perLayer = func() []metricSpec {
	var out []metricSpec
	for _, m := range profiledModules {
		out = append(out, metricSpec{m + ".self_ns", "ns"})
	}
	return append(out,
		metricSpec{"runtime.alloc_bytes_per_req", "B"},
		metricSpec{"runtime.allocs_per_req", "count"},
		metricSpec{"runtime.gc_cycles", "count"},
		metricSpec{"trace_overhead_pct", "%"},
		metricSpec{"sim.p50_us", "us"},
		metricSpec{"sim.p99_us", "us"},
		metricSpec{"sim.slo_miss_pct", "%"},
		metricSpec{"core.ticks_per_req", "count"},
		metricSpec{"core.updates_per_req", "count"},
		metricSpec{"core.migrated_pct", "%"},
		metricSpec{"core.nack_ratio", "ratio"},
		metricSpec{"core.guard_skips_per_tick", "count"},
		metricSpec{"core.phase_forward_pct", "%"},
		metricSpec{"check.checks_per_req", "count"},
		metricSpec{"exec.worker_util", "ratio"},
		metricSpec{"rack.max_view_age_us", "us"},
		metricSpec{"rack.dispatch_imbalance", "ratio"},
		metricSpec{"live.closed_rps", "1/s"},
		metricSpec{"live.p50_us", "us"},
		metricSpec{"live.p99_us", "us"},
		metricSpec{"live.rps_at_slo", "1/s"},
		metricSpec{"live.gen_late_us_p50", "us"},
		metricSpec{"live.gen_late_us_p99", "us"},
		metricSpec{"live.rx_us_p50", "us"},
		metricSpec{"live.rx_us_p99", "us"},
		metricSpec{"live.queue_us_p50", "us"},
		metricSpec{"live.queue_us_p99", "us"},
		metricSpec{"live.service_us_p50", "us"},
		metricSpec{"live.service_us_p99", "us"},
		metricSpec{"live.tx_us_p50", "us"},
		metricSpec{"live.tx_us_p99", "us"},
		metricSpec{"live.server_sojourn_us_p99", "us"},
		metricSpec{"live.ticks_per_s", "1/s"},
		metricSpec{"live.migrated_pct", "%"},
		metricSpec{"live.nack_ratio", "ratio"},
	)
}()

var workloads = map[string]func(opts, *run) error{
	"sim-kv-bursty":  runSimKVBursty,
	"sim-rack-grid":  runSimRackGrid,
	"sim-multiphase": runSimMultiphase,
	"live-kv":        runLiveKV,
}

func main() {
	var o opts
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 20, "measurement time in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing per-layer metrics")
	flag.Parse()
	o.trace = trace == 1
	fn, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload <%s> --seed <n> --seconds <s> --trace <0|1>\n",
			strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	// At most nproc (and at most 2) OS threads run Go code: client,
	// server and simulator share them.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	r := newRun()
	if err := fn(o, r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	rss, err := peakRSSMB()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	r.metrics["peak_rss_mb"] = rss

	specs := endToEnd
	if o.trace {
		specs = perLayer
	}
	out := map[string]metricOut{}
	for _, s := range specs {
		v, ok := r.metrics[s.name]
		if !ok && !o.trace {
			r.fail("end-to-end metric %s was not measured", s.name)
		}
		out[s.name] = metricOut{Value: v, Unit: s.unit}
	}
	for _, p := range r.problems {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", p)
	}
	prov, err := json.Marshal(provenance(o, r))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("# provenance %s\n", prov)
	correct := len(r.problems) == 0 && r.failed == 0
	last, err := json.Marshal(result{Correct: correct, Attempted: r.attempted, Failed: r.failed, Metrics: out})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(last))
	if !correct {
		os.Exit(1)
	}
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// provenance is the host fingerprint and the inputs of the run.
func provenance(o opts, r *run) map[string]any {
	p := map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"revision":   vcsRevision(),
	}
	for k, v := range r.info {
		p[k] = v
	}
	return p
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

func vcsRevision() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

// median returns the median of xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func sortNS(xs []int64) { sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] }) }

// quantileNS returns the nearest-rank q-quantile of sorted.
func quantileNS(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// memSnap is the allocation state at one point of the run.
type memSnap struct{ bytes, objects, gcs uint64 }

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnap{ms.TotalAlloc, ms.Mallocs, uint64(ms.NumGC)}
}

// recordAllocs stores the allocation metrics between two snapshots,
// per request.
func (r *run) recordAllocs(a, b memSnap, reqs float64) {
	r.metrics["runtime.alloc_bytes_per_req"] = float64(b.bytes-a.bytes) / reqs
	r.metrics["runtime.allocs_per_req"] = float64(b.objects-a.objects) / reqs
	r.metrics["runtime.gc_cycles"] = float64(b.gcs - a.gcs)
}

// runParallel runs each fn on its own goroutine and returns once all
// have returned. It is the only place the benchmark starts goroutines:
// the live client's streams, which drive real sockets and never touch a
// simulation engine.
func runParallel(fns ...func()) {
	var wg sync.WaitGroup //altolint:allow simsync live client streams are OS-concurrent by design; no sim.Engine is shared
	for _, fn := range fns {
		wg.Add(1)
		//altolint:allow simsync live client streams are OS-concurrent by design; no sim.Engine is shared
		go func(fn func()) {
			defer wg.Done()
			fn()
		}(fn)
	}
	wg.Wait()
}
