package main

import (
	"fmt"
	"math"
	"net"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/traceio"
)

// tracer keeps every span of one traced session in memory: the
// program's own client, relay and origin spans, plus the benchmark's
// spans around public calls ("bench" service). It also counts the
// relay's upstream dials through the dialer it hands to WithDialer.
type tracer struct {
	spans *obs.SpanCollector
	dials atomic.Int64
}

// traceSpanCap bounds one session's retained spans (about 120 bytes
// each); sessions are sized to stay well under it.
const traceSpanCap = 200_000

func newTracer() *tracer { return &tracer{spans: obs.NewSpanCollector(traceSpanCap)} }

func (t *tracer) countingDial(network, addr string) (net.Conn, error) {
	t.dials.Add(1)
	return net.Dial(network, addr)
}

// record adds a benchmark-side span around a public call; a nil tracer
// records nothing, so the timed runs pay one nil check.
func (t *tracer) record(phase string, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	t.spans.Record(obs.Span{Service: "bench", Phase: phase, Start: start.UnixNano(), Duration: int64(d)})
}

// settle waits until no span has arrived for 20ms. Losing probes and
// origin serve spans end on their own goroutines after the client has
// returned, so spans are read only once the collector is quiet.
func (t *tracer) settle() {
	last := t.spans.Seen()
	for quiet := 0; quiet < 20; {
		time.Sleep(time.Millisecond)
		if n := t.spans.Seen(); n != last {
			last, quiet = n, 0
		} else {
			quiet++
		}
	}
}

// runTraced is the traced run. It measures the named workload twice
// over, untraced and traced in ABBA blocks of equal work, for the
// tracing overhead; then it runs a traced session of every other
// workload (small and fixed) and times each layer's public functions
// directly, so every per-layer metric is printed whatever the workload.
func runTraced(w workload, seed uint64, seconds float64, spanOut string) (result, error) {
	m := map[string]metric{}
	block := w.opsFor(seconds / 4)
	plain, err := w.setup(seed, block, nil)
	if err != nil {
		return result{}, err
	}
	named := newTracer()
	traced, err := w.setup(seed, block, named)
	if err != nil {
		plain.close()
		return result{}, err
	}
	var plainT, tracedT time.Duration
	attempted, failed := 0, 0
	for _, e := range []env{plain, traced, traced, plain} {
		runtime.GC()
		t0 := time.Now()
		f, _ := e.run(block, newLatencies(block))
		d := time.Since(t0)
		if e == plain {
			plainT += d
		} else {
			tracedT += d
		}
		attempted += block
		failed += f
	}
	m["trace.overhead_pct"] = metric{(tracedT.Seconds()/plainT.Seconds() - 1) * 100, "%"}
	checkErr := plain.check()
	if err := traced.check(); checkErr == nil {
		checkErr = err
	}
	plain.close()

	sessions := map[string]*tracer{w.name: named}
	envs := map[string]env{w.name: traced}
	for _, o := range workloads {
		if o.name == w.name {
			continue
		}
		tr := newTracer()
		e, err := o.setup(seed, o.round*sessionRounds[o.name], tr)
		if err != nil {
			closeAll(envs)
			return result{}, fmt.Errorf("%s session: %w", o.name, err)
		}
		envs[o.name] = e
		sessions[o.name] = tr
		if f, _ := e.run(o.round*sessionRounds[o.name], newLatencies(0)); f > 0 && checkErr == nil {
			checkErr = fmt.Errorf("%s session: %d operations failed", o.name, f)
		}
		if err := e.check(); err != nil && checkErr == nil {
			checkErr = fmt.Errorf("%s session: %w", o.name, err)
		}
	}
	defer closeAll(envs)
	for _, tr := range sessions {
		tr.settle()
	}

	bulkMetrics(m, sessions["bulk_relay"].spans.Spans())
	selectMetrics(m, envs["select_small"].(*selectEnv), sessions["select_small"])
	if err := registryMetrics(m, envs["registry_mix"].(*registryEnv)); err != nil {
		return result{}, err
	}
	if err := layerMetrics(m, seed); err != nil {
		return result{}, err
	}
	if spanOut != "" {
		if err := writeSpans(spanOut, w.name, seed, sessions); err != nil {
			return result{}, err
		}
	}
	if checkErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: traced check failed: %v\n", w.name, checkErr)
	}
	fmt.Printf("traced blocks: plain %.3fs, traced %.3fs for %d operations each side\n",
		plainT.Seconds(), tracedT.Seconds(), 2*block)
	return result{Correct: checkErr == nil, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// sessionRounds sizes the traced session of each workload that is not
// the one named: enough operations for stable medians, little time.
var sessionRounds = map[string]int{
	"bulk_relay":   6,
	"select_small": 10,
	"registry_mix": 4,
	"sim_campaign": 2,
}

func closeAll(envs map[string]env) {
	for _, e := range envs {
		e.close()
	}
}

func writeSpans(path, workload string, seed uint64, sessions map[string]*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	var all []obs.Span
	names := make([]string, 0, len(sessions))
	for n := range sessions {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		all = append(all, sessions[n].spans.Spans()...)
	}
	comment := "perfbench traced run: workload " + workload + " seed " + strconv.FormatUint(seed, 10)
	if err := traceio.WriteSpans(f, comment, all); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanMedianMS is the median duration in ms of the spans matching
// service and phase.
func spanMedianMS(spans []obs.Span, service, phase string) float64 {
	var d []float64
	for _, s := range spans {
		if s.Service == service && s.Phase == phase && s.Class == obs.ClassOK.String() {
			d = append(d, float64(s.Duration)/1e6)
		}
	}
	return median(d)
}

// bulkMetrics: the per-byte layers, from the bulk_relay session.
func bulkMetrics(m map[string]metric, spans []obs.Span) {
	var busy []float64
	for _, s := range spans {
		if s.Service == "client" && s.Phase == "verify" {
			if ns, err := strconv.ParseInt(s.Attrs["busy_ns"], 10, 64); err == nil {
				busy = append(busy, float64(ns)/1e6)
			}
		}
	}
	m["realnet.stream_ms"] = metric{spanMedianMS(spans, "client", "stream"), "ms"}
	m["realnet.verify_ms"] = metric{median(busy), "ms"}
	m["relay.stream_ms"] = metric{spanMedianMS(spans, "relay", "stream"), "ms"}
	m["origin.serve_ms"] = metric{spanMedianMS(spans, "origin", "serve"), "ms"}
}

// selectMetrics: the per-request layers, from the select_small session's
// outcomes, spans and relay counters (read after the drain in check).
func selectMetrics(m map[string]metric, e *selectEnv, tr *tracer) {
	var race, rem []float64
	var loser int64
	for _, o := range e.outcomes {
		race = append(race, (o.ProbeEnd-o.Start)*1e3)
		rem = append(rem, o.Remainder.Duration()*1e3)
		for _, p := range o.Probes {
			if p.Path != o.Selected {
				loser += p.DeliveredBytes()
			}
		}
	}
	m["core.race_ms"] = metric{median(race), "ms"}
	m["core.remainder_ms"] = metric{median(rem), "ms"}
	m["core.loser_kB_per_op"] = metric{float64(loser) / 1024 / float64(len(e.outcomes)), "kB"}

	spans := tr.spans.Spans()
	m["realnet.dial_ms"] = metric{spanMedianMS(spans, "client", "dial"), "ms"}
	m["realnet.request_write_ms"] = metric{spanMedianMS(spans, "client", "request-write"), "ms"}
	m["realnet.ttfb_ms"] = metric{spanMedianMS(spans, "client", "ttfb"), "ms"}
	m["relay.upstream_dial_ms"] = metric{spanMedianMS(spans, "relay", "dial"), "ms"}
	m["relay.upstream_ttfb_ms"] = metric{spanMedianMS(spans, "relay", "ttfb"), "ms"}
	m["relay.forward_self_ms"] = metric{median(selfTimesMS(spans, "relay", "forward")), "ms"}

	ps := e.rt.PoolStats()
	m["realnet.pool_reuse_ratio"] = metric{float64(ps.Reuses) / float64(ps.Reuses+ps.Misses), "ratio"}
	reqs := e.dp.relay.Requests.Load()
	m["relay.upstream_dials_per_request"] = metric{float64(tr.dials.Load()) / float64(reqs), "count"}
	st := e.dp.relay.Cache().Stats()
	m["relay.cache_hit_ratio"] = metric{st.HitRate(), "ratio"}
}

// selfTimesMS is each matching span's duration minus the part of its
// interval covered by its children.
func selfTimesMS(spans []obs.Span, service, phase string) []float64 {
	children := map[obs.SpanID][][2]int64{}
	for _, s := range spans {
		if !s.Parent.IsZero() {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.EndTime()})
		}
	}
	var out []float64
	for _, s := range spans {
		if s.Service != service || s.Phase != phase || s.Class != obs.ClassOK.String() {
			continue
		}
		iv := children[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		var covered, end int64 = 0, s.Start
		for _, c := range iv {
			lo, hi := max(c[0], end), min(c[1], s.EndTime())
			if hi > lo {
				covered += hi - lo
				end = hi
			}
		}
		out = append(out, float64(s.Duration-covered)/1e6)
	}
	return out
}

// registryMetrics: wire command latencies from the benchmark's spans
// around each client call, in the mix and timed apart from it, and the
// in-process delta scan at the current epoch.
func registryMetrics(m map[string]metric, e *registryEnv) error {
	if err := e.timeApart(); err != nil {
		return err
	}
	spans := e.tr.spans.Spans()
	for _, p := range []string{"register", "register_change", "listd_quiet", "listd_delta", "listh_top"} {
		m["registry."+p+"_ms"] = metric{spanMedianMS(spans, "bench", "registry."+p), "ms"}
	}
	epoch := e.srv.Epoch()
	us, allocs := timeCalls(20, func() {
		if d := e.srv.ListDelta(epoch, 0); len(d.Entries) != 0 {
			panic("quiet ListDelta returned entries")
		}
	})
	m["registry.listdelta_quiet_us"] = metric{us, "us"}
	m["registry.listdelta_quiet_allocs"] = metric{allocs, "count"}
	return nil
}

// timeCalls runs fn n times in batches and returns the median batch
// mean in µs and the mean allocations per call.
func timeCalls(n int, fn func()) (us, allocs float64) {
	const batches = 9
	per := int(math.Max(1, float64(n)/batches))
	var d []float64
	runtime.GC()
	before := sample()
	for b := 0; b < batches; b++ {
		t0 := time.Now()
		for i := 0; i < per; i++ {
			fn()
		}
		d = append(d, time.Since(t0).Seconds()*1e6/float64(per))
	}
	after := sample()
	return median(d), float64(after.mallocs-before.mallocs) / float64(per*batches)
}
