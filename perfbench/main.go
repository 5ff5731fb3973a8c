// Command perfbench is the repository benchmark: four closed-loop
// workloads over the data plane, the probe race, the registry and the
// simulator, each run in a fresh process, plus a separate traced run
// that reports per-layer figures.
//
//	perfbench --workload select_small --seed 3 --seconds 10 --trace 0
//
// With --trace 0 the last stdout line is a JSON object carrying the
// end-to-end metrics; with --trace 1 it carries the per-layer metrics.
// A failed correctness check prints correct=false and exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/stats"
)

// workload is one benchmark input mix. setup builds the system under
// test from the seed (listeners, preload, cache warm-up, topology) and
// returns a runner sized for ops operations; it must be safe to call
// several times in one process, closing each env before the next.
type workload struct {
	name string
	// rate is the nominal operations per second on the reference 2-core
	// machine; a run attempts rate×seconds operations rounded up to whole
	// rounds, so the amount of work depends only on seed and run length.
	rate  float64
	round int
	setup func(seed uint64, ops int, tr *tracer) (env, error)
}

// blocks splits a timed run into equal parts. Wall time per operation,
// latency and CPU time per operation are figured per block, beside the
// machine's steal rate in the block, and each is reported where a
// least-squares line through the blocks meets zero steal (atZeroSteal).
// Steal is the time the hypervisor kept the machine's virtual CPUs
// waiting while other tenants ran; the same tenants slow the CPU itself
// through shared caches, so CPU time follows steal too. A change to the
// code moves every block and so the whole line, its zero-steal end too.
const blocks = 20

// atZeroSteal fits y = a + b·x by least squares, x being each block's
// steal seconds per wall second and y its figure (lower is better), and
// returns a: the figure on a host whose other tenants took no CPU. The
// fit finds out from the run itself how much a figure depends on steal:
// a block's wall time stretches with it, while the median latency of
// operations much shorter than a host time slice hardly moves, as most
// of them fall between the slices. Steal only ever slows a block, so a
// is kept between the best block and the mean of the blocks: a line
// through blocks that all had much steal can overshoot zero steal by
// far, and one that falls with steal is noise. With no steal in the run
// it is the mean.
func atZeroSteal(x, y []float64) float64 {
	mx, my := stats.Mean(x), stats.Mean(y)
	var sxy, sxx float64
	for i := range x {
		sxy += (x[i] - mx) * (y[i] - my)
		sxx += (x[i] - mx) * (x[i] - mx)
	}
	if sxx == 0 || sxy <= 0 {
		return my
	}
	best := y[0]
	for _, v := range y {
		best = math.Min(best, v)
	}
	return math.Max(my-sxy/sxx*mx, best)
}

// unstolen is the share of an interval's wall time the process would
// have needed had the hypervisor not withheld CPU from it: the process
// used cpu (getrusage leaves steal out) and the machine's virtual CPUs
// were kept waiting for steal more, so it asked for cpu+steal. Set-up
// is timed a few times per run, too few for atZeroSteal, so its wall
// time is scaled by this instead.
func unstolen(from, to snapshot) float64 {
	cpu, steal := to.cpu-from.cpu, to.steal-from.steal
	if cpu <= 0 || steal <= 0 {
		return 1
	}
	return float64(cpu) / float64(cpu+steal)
}

// env is a built system under test ready to run its operations.
type env interface {
	// run performs exactly ops operations closed loop, reporting each
	// operation's latency through lat (nil latency samples are allowed
	// for workloads that time whole rounds), and returns the failures
	// and the verified payload bytes delivered.
	run(ops int, lat *latencies) (failed int, bytes int64)
	// check verifies the outputs of the run; a non-nil error fails it.
	check() error
	close()
}

var workloads = []workload{
	{name: "bulk_relay", rate: 120, round: 10, setup: setupBulk},
	{name: "select_small", rate: 400, round: 50, setup: setupSelect},
	{name: "registry_mix", rate: 8000, round: registryRound, setup: setupRegistry},
	// Two sim rounds per campaign per block: a campaign's first round in
	// a block yields no latency sample (roundClock stamps round starts).
	{name: "sim_campaign", rate: 120, round: 2 * simRound, setup: setupSim},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// opsFor is the fixed amount of work of one run: whole rounds in every
// block.
func (w workload) opsFor(seconds float64) int {
	unit := w.round * blocks
	n := int(math.Ceil(w.rate * seconds / float64(unit)))
	if n < 1 {
		n = 1
	}
	return n * unit
}

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

// setup_s is the median of setupSamples samples. The first is the
// set-up the timed loop runs on; each later one times set-ups back to
// back until they have taken minSampleTime and divides by their count,
// so a short set-up is timed over enough work to be steady, and one
// slow build moves one sample, not the figure. Each set-up's wall time
// is taken net of steal (unstolen).
const (
	setupSamples  = 3
	minSampleTime = 2 * time.Second
)

func main() {
	name := flag.String("workload", "", "bulk_relay | select_small | registry_mix | sim_campaign")
	seed := flag.Uint64("seed", 1, "workload seed: every generated input derives from it")
	seconds := flag.Float64("seconds", 10, "run length; sets the fixed operation count")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	spanOut := flag.String("spans", "", "traced run: write the kept spans here as JSONL")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	var res result
	var err error
	if *trace == 1 {
		res, err = runTraced(w, *seed, *seconds, *spanOut)
	} else {
		res, err = runTimed(w, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	for _, k := range sortedKeys(res.Metrics) {
		fmt.Printf("%-32s %14.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	fmt.Printf("attempted %d failed %d correct %v\n", res.Attempted, res.Failed, res.Correct)
	out, err := json.Marshal(res)
	if err != nil { // a NaN: some metric had no samples
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// runTimed is the untraced run: set up, warm, time the fixed operation
// count, check the outputs, then rebuild the environment for the
// set-up median.
func runTimed(w workload, seed uint64, seconds float64) (result, error) {
	ops := w.opsFor(seconds)
	var setups []float64
	s0 := sample()
	e, err := w.setup(seed, ops, nil)
	if err != nil {
		return result{}, err
	}
	s1 := sample()
	setups = append(setups, s1.wall.Sub(s0.wall).Seconds()*unstolen(s0, s1))
	runtime.GC()

	lat := newLatencies(ops)
	per := ops / blocks
	var failed int
	var bytes int64
	var steals, walls, cpus, p50s []float64
	first := sample()
	before := first
	for b := 0; b < blocks; b++ {
		from := len(lat.s)
		f, n := e.run(per, lat)
		failed, bytes = failed+f, bytes+n
		after := sample()
		wall := after.wall.Sub(before.wall).Seconds()
		steals = append(steals, (after.steal-before.steal).Seconds()/wall)
		walls = append(walls, wall*1e3/float64(per))
		cpus = append(cpus, (after.cpu-before.cpu).Seconds()*1e3/float64(per))
		p50s = append(p50s, median(lat.s[from:])*1e3)
		before = after
	}
	last := before
	checkErr := e.check()
	if r, ok := e.(interface{ report() }); ok {
		r.report()
	}
	e.close()
	if checkErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %v\n", w.name, checkErr)
	}
	for len(setups) < setupSamples {
		var took, unstolenTook float64
		n := 0
		for took < minSampleTime.Seconds() {
			runtime.GC()
			s0 := sample()
			e, err := w.setup(seed, ops, nil)
			if err != nil {
				return result{}, err
			}
			s1 := sample()
			took += s1.wall.Sub(s0.wall).Seconds()
			unstolenTook += s1.wall.Sub(s0.wall).Seconds() * unstolen(s0, s1)
			n++
			e.close()
		}
		setups = append(setups, unstolenTook/float64(n))
	}

	wall := last.wall.Sub(first.wall).Seconds()
	n := float64(ops)
	sorted := lat.s
	sort.Float64s(sorted)
	m := map[string]metric{
		"ops_per_s":       {1e3 / atZeroSteal(steals, walls), "1/s"},
		"cpu_ms_per_op":   {atZeroSteal(steals, cpus), "ms"},
		"allocs_per_op":   {float64(last.mallocs-first.mallocs) / n, "count"},
		"alloc_kB_per_op": {float64(last.allocBytes-first.allocBytes) / 1024 / n, "kB"},
		"peak_rss_mb":     {last.maxRSSMB, "MB"},
		"setup_s":         {median(setups), "s"},
		"op_p50_ms":       {atZeroSteal(steals, p50s), "ms"},
	}
	if bytes > 0 {
		fmt.Printf("goodput %.2f MB/s (verified body bytes, losing probes excluded)\n",
			float64(bytes)/1e6/wall)
	}
	fmt.Printf("whole run: %d latency samples, p50 %.4f ms, p90 %.4f ms, p99 %.4f ms, %.4f ops/s, steal %.3f s/s; %d set-up samples\n",
		len(sorted), stats.Quantile(sorted, 0.50)*1e3, stats.Quantile(sorted, 0.90)*1e3,
		stats.Quantile(sorted, 0.99)*1e3, n/wall, (last.steal-first.steal).Seconds()/wall, len(setups))
	fmt.Printf("per block: steal s/s %.3f\n           ms per op %.3f\n", steals, walls)
	return result{Correct: checkErr == nil, Attempted: ops, Failed: failed, Metrics: m}, nil
}

// snapshot is the process-wide resource counters at one instant, and
// the machine's steal time.
type snapshot struct {
	wall       time.Time
	cpu        time.Duration
	steal      time.Duration
	mallocs    uint64
	allocBytes uint64
	maxRSSMB   float64
}

func sample() snapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return snapshot{
		wall:       time.Now(),
		cpu:        cpu,
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		maxRSSMB:   float64(ru.Maxrss) / 1024, // Linux reports KiB
		steal:      machineSteal(),
	}
}

// machineSteal is the time the hypervisor kept this machine's virtual
// CPUs waiting, summed over them: the eighth field of the "cpu" line of
// /proc/stat, in USER_HZ ticks (always 100 per second). Where there is
// no /proc/stat it reads 0, and unstolen then corrects nothing.
func machineSteal() time.Duration {
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
	return time.Duration(ticks) * (time.Second / 100)
}

// latencies holds per-operation latency samples in seconds.
type latencies struct{ s []float64 }

func newLatencies(capacity int) *latencies { return &latencies{s: make([]float64, 0, capacity)} }

func (l *latencies) add(d time.Duration) {
	if l != nil {
		l.s = append(l.s, d.Seconds())
	}
}

// median is stats.Median, NaN for no samples so that a missing figure
// fails the run instead of reading 0.
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	return stats.Median(v)
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// timeOp runs one operation and records its latency.
func timeOp(lat *latencies, op func() error) error {
	t0 := time.Now()
	err := op()
	lat.add(time.Since(t0))
	return err
}
