// Command gsbench is GreenSprint's end-to-end benchmark. It runs one
// workload in its own process, drives the program through the public
// functions of its packages the way greensprint-bench, greensprint-sim
// and greensprintd compose them, checks the outputs, and prints one
// JSON result line:
//
//	gsbench --workload NAME --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries every end-to-end metric; with
// --trace 1 the same run records spans at every layer boundary and the
// result carries every per-layer metric instead. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// minRounds is the fewest timed rounds a run makes, however long they
// take, so that each step's median over the rounds is the middle of
// three or more times, not the mean of two.
const minRounds = 3

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*run) error{
	"paper-figures":     paperFigures,
	"year-fleet-events": yearFleetEvents,
	"season-resume":     seasonResume,
	"daemon-live":       daemonLive,
	"daemon-catchup":    daemonCatchup,
}

// endToEnd lists the end-to-end metrics. Every workload reports every
// one: setup_s and live_heap_mb are filled in by the harness, ops_per_s
// by the workload, as the median over its rounds of the operations it
// counts (cells, simulated epochs or controller epochs) per second.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"live_heap_mb", "MiB"},
}

// layerMetrics lists every per-layer metric. A time ("s") is the self
// time of the spans of that name (the metric name without "_s"); any
// other unit is a count recorded at a layer boundary. sweep.busy_s and
// sweep.idle_s are derived in layerValues.
var layerMetrics = []struct{ name, unit string }{
	{"solar.synthesize_s", "s"},
	{"fleet.generate_s", "s"},
	{"chaos.resolve_s", "s"},
	{"chaos.faults", "count"},
	{"profile.build_s", "s"},
	{"strategy.new_s", "s"},
	{"sim.new_s", "s"},
	{"sim.new_calls", "count"},
	{"core.new_s", "s"},
	{"sweep.cells", "count"},
	{"sweep.busy_s", "s"},
	{"sweep.idle_s", "s"},
	{"sim.stepn_s", "s"},
	{"sim.epochs", "count"},
	{"sim.result_s", "s"},
	{"obs.events", "count"},
	{"obs.jsonl_emit_s", "s"},
	{"obs.jsonl_bytes", "bytes"},
	{"obs.collector_emit_s", "s"},
	{"sim.checkpoint_s", "s"},
	{"sim.writefile_s", "s"},
	{"sim.checkpoints", "count"},
	{"sim.checkpoint_bytes", "bytes"},
	{"sim.readfile_s", "s"},
	{"sim.restore_s", "s"},
	{"httpapi.steps", "count"},
	{"httpapi.step_s", "s"},
	{"core.checkpoint_s", "s"},
	{"core.encode_s", "s"},
	{"atomicfile.write_s", "s"},
	{"atomicfile.bytes", "bytes"},
	{"httpapi.metrics_s", "s"},
	{"httpapi.metrics_bytes", "bytes"},
	{"core.decode_s", "s"},
	{"core.restore_s", "s"},
	{"core.stepn_s", "s"},
}

// run is the state one workload run shares with the harness.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	tr       *tracer
	main     *lane
	dir      string // scratch directory inside the checkout

	ops    *ops
	setups []time.Duration
	e2e    map[string]metric
	// digest lines identify the run's outputs; a traced and an
	// untraced run of one seed must print the same lines.
	digest   []string
	problems []string
	heaps    []float64 // live heap at the end of each round, MiB
}

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(sortedKeys(workloads), ", "))
	seed := flag.Int64("seed", 1, "seed every input is made from")
	seconds := flag.Float64("seconds", 10, "how long the timed region runs")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	flag.Parse()
	fn, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "gsbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	r := &run{
		workload: *name,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		tr:       newTracer(*trace == 1),
		ops:      newOps(),
		e2e:      map[string]metric{},
	}
	r.main = r.tr.lane(0)
	r.dir = filepath.Join(".bench_build", "runs", fmt.Sprintf("%s-%d", *name, os.Getpid()))
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		fatal(err)
	}
	err := fn(r)
	os.RemoveAll(r.dir)
	if err != nil {
		fatal(err)
	}
	if err := r.report(os.Stdout); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gsbench:", err)
	os.Exit(1)
}

// setup times one set-up of the workload's inputs. Each starts from a
// collected heap whose free memory has gone back to the OS, as in a
// fresh process, so repeated set-ups neither inherit each other's
// garbage nor pay for clearing memory an earlier one used.
func (r *run) setup(fn func() error) error {
	debug.FreeOSMemory()
	start := cpuNow()
	if err := fn(); err != nil {
		return err
	}
	r.setups = append(r.setups, cpuNow()-start)
	return nil
}

// problem records a failed correctness check.
func (r *run) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// check records err, if any, as a failed correctness check.
func (r *run) check(what string, err error) {
	if err != nil {
		r.problem("%s: %v", what, err)
	}
}

// liveHeap records the heap the program still holds at the end of a
// round: it collects garbage, outside the timed region, and reads the
// bytes of live heap objects while keep (the round's engine, results or
// controller) is still reachable. Unlike a resident-memory peak it does
// not depend on where the collector happened to run during the round.
// It collects twice: objects parked in a sync.Pool, such as
// encoding/json's encode buffers of up to a whole checkpoint, survive
// one collection.
func (r *run) liveHeap(keep ...any) {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	r.heaps = append(r.heaps, float64(m.HeapAlloc)/(1<<20))
	runtime.KeepAlive(keep)
}

func (r *run) report(w *os.File) error {
	res := result{Metrics: map[string]metric{}}
	setups := make([]float64, len(r.setups))
	for i, d := range r.setups {
		setups[i] = d.Seconds()
	}
	r.e2e["setup_s"] = metric{medianOf(setups), "s"}
	r.e2e["live_heap_mb"] = metric{medianOf(r.heaps), "MiB"}
	for _, m := range endToEnd {
		if v, ok := r.e2e[m.name]; !ok || v.Unit != m.unit || !(v.Value > 0) {
			return fmt.Errorf("end-to-end metric %s not measured (%v)", m.name, v)
		}
	}
	fmt.Fprintf(w, "workload %s seed %d: %d set-ups\n", r.workload, r.seed, len(r.setups))
	res.Attempted, res.Failed = r.ops.print(w)
	if res.Failed > 0 {
		r.problem("%d of %d operations failed", res.Failed, res.Attempted)
	}
	for _, d := range r.digest {
		fmt.Fprintln(w, "digest", d)
	}
	for _, p := range r.problems {
		fmt.Fprintln(w, "CHECK FAILED:", p)
	}
	res.Correct = len(r.problems) == 0 && res.Attempted > 0
	names := sortedKeys(r.e2e)
	if r.tr.on {
		for _, n := range names {
			fmt.Fprintf(w, "traced %s %.6g %s\n", n, r.e2e[n].Value, r.e2e[n].Unit)
		}
		res.Metrics = r.layerValues()
		path := filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.jsonl", r.workload, r.seed))
		if err := r.tr.writeSpans(path); err != nil {
			return err
		}
		fmt.Fprintln(w, "spans", path)
		for _, m := range layerMetrics {
			fmt.Fprintf(w, "layer %-22s %14.6f %s\n", m.name, res.Metrics[m.name].Value, m.unit)
		}
	} else {
		res.Metrics = r.e2e
		for _, n := range names {
			fmt.Fprintf(w, "%s %.6g %s\n", n, r.e2e[n].Value, r.e2e[n].Unit)
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// layerValues turns the tracer's totals into the per-layer metrics.
func (r *run) layerValues() map[string]metric {
	t := r.tr
	out := map[string]metric{}
	for _, m := range layerMetrics {
		var v float64
		switch {
		case m.name == "sweep.busy_s":
			v = t.total["sweep.cell"].Seconds()
		case m.name == "sweep.idle_s":
			v = t.counts["sweep.worker_s"] - t.total["sweep.cell"].Seconds()
		case m.unit == "s":
			v = t.self[strings.TrimSuffix(m.name, "_s")].Seconds()
		default:
			v = t.counts[m.name]
		}
		out[m.name] = metric{v, m.unit}
	}
	return out
}

// ops counts attempted and failed operations by kind.
type ops struct {
	order     []string
	attempted map[string]int
	failed    map[string]int
}

func newOps() *ops { return &ops{attempted: map[string]int{}, failed: map[string]int{}} }

// count records n attempts of kind, failed of which failed.
func (o *ops) count(kind string, n, failed int) {
	if _, ok := o.attempted[kind]; !ok {
		o.order = append(o.order, kind)
	}
	o.attempted[kind] += n
	o.failed[kind] += failed
}

// do records one attempt of kind and passes err through.
func (o *ops) do(kind string, err error) error {
	f := 0
	if err != nil {
		f = 1
	}
	o.count(kind, 1, f)
	return err
}

func (o *ops) print(w *os.File) (attempted, failed int) {
	for _, k := range o.order {
		fmt.Fprintf(w, "ops %-18s attempted %8d failed %d\n", k, o.attempted[k], o.failed[k])
		attempted += o.attempted[k]
		failed += o.failed[k]
	}
	return attempted, failed
}

// roundTimes holds the CPU time of every step of every timed round of
// a run. Every round runs the same steps in the same order: the StepN
// batches of a fleet run, the epochs of a daemon-live round, or a
// single step where the round is one call.
type roundTimes struct {
	steps [][]time.Duration // steps[k][round]
}

// add records the time of step k of the current round.
func (t *roundTimes) add(k int, d time.Duration) {
	for len(t.steps) <= k {
		t.steps = append(t.steps, nil)
	}
	t.steps[k] = append(t.steps[k], d)
}

// time runs fn as step k of the current round and records its CPU time.
func (t *roundTimes) time(k int, fn func() error) error {
	began := cpuNow()
	err := fn()
	t.add(k, cpuNow()-began)
	return err
}

// rate is work, the operations of one round, per second of a typical
// round: the sum over steps of each step's median time over the
// rounds. The host's speed changes within seconds, so a round that ran
// through a slow second is slow in a few steps only; taking the median
// step by step leaves such seconds out, where the median of whole
// rounds, of which a run makes only a few, would keep them.
func (t *roundTimes) rate(work float64) float64 {
	if len(t.steps) == 0 {
		return 0
	}
	var sum float64
	v := []float64{}
	for _, s := range t.steps {
		v = v[:0]
		for _, d := range s {
			v = append(v, d.Seconds())
		}
		sum += medianOf(v)
	}
	return work / sum
}

func medianOf(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuNow reads the CPU time the kernel has charged to this process so
// far, user and system, over all its threads. Every time the benchmark
// reports is a difference of this clock, not of the wall clock: on a
// shared virtual host the wall clock also counts the time the
// hypervisor gives other guests (steal), which moved wall-clock medians
// by up to 30% between two sets of runs of identical code.
func cpuNow() time.Duration {
	var ts syscall.Timespec
	// CLOCK_PROCESS_CPUTIME_ID; the call cannot fail for this clock.
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, 2, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// stealNow reads the time the hypervisor has withheld from the
// machine's CPUs so far, summed over them: the steal column of the cpu
// line of /proc/stat, in clock ticks of 10 ms. It reads 0 where the
// file or the column is missing.
func stealNow() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
