package main

import (
	"bufio"
	"bytes"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/httpx"
	"repro/internal/objcache"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/randx"
	"repro/internal/realnet"
	"repro/internal/relay"
	"repro/internal/simnet"
	"repro/internal/topo"
)

// layerMetrics times each layer's public functions from outside, at the
// sizes the workloads use. Every figure is a median over many calls;
// none carries a bound.
func layerMetrics(m map[string]metric, seed uint64) error {
	contentMetrics(m)
	codecMetrics(m)
	cacheMetrics(m)
	sinkMetrics(m)
	if err := warmFetchMetric(m); err != nil {
		return err
	}
	simMetrics(m, seed)
	return nil
}

// contentMetrics: FillRange (the origin's generator) and the streaming
// Verifier (the client's check) over one bulk_relay range.
func contentMetrics(m map[string]metric) {
	buf := make([]byte, bulkRange)
	mb := float64(bulkRange) / 1e6
	us, _ := timeCalls(45, func() { relay.FillRange(bulkObject, 12345, buf) })
	m["relay.fillrange_MBps"] = metric{mb / (us / 1e6), "MB/s"}
	us, _ = timeCalls(45, func() {
		v := relay.NewVerifier(bulkObject, 12345)
		for off := 0; off < len(buf); off += 64 << 10 {
			if !v.Verify(buf[off : off+64<<10]) {
				panic("verifier rejected generated content")
			}
		}
	})
	m["relay.verifier_MBps"] = metric{mb / (us / 1e6), "MB/s"}
}

// codecMetrics: one request and one response head through the httpx
// codec, write then parse, as the client and relay exchange them.
func codecMetrics(m map[string]metric) {
	var b bytes.Buffer
	br := bufio.NewReader(&b)
	us, allocs := timeCalls(9000, func() {
		req := httpx.NewGet("http://127.0.0.1:9/obj-1.bin", "127.0.0.1:9")
		req.SetRange(selectProbe, 300_000)
		req.Write(&b)
		if _, err := httpx.ReadRequest(br); err != nil {
			panic(err)
		}
	})
	m["httpx.request_rt_us"] = metric{us, "us"}
	m["httpx.request_allocs"] = metric{allocs, "count"}
	us, allocs = timeCalls(9000, func() {
		httpx.WriteResponseHead(&b, 206, "Partial Content", map[string]string{
			"content-length": "300000",
			"content-range":  httpx.ContentRange(selectProbe, 300_000, 400_000),
			"accept-ranges":  "bytes",
		})
		if _, err := httpx.ReadResponse(br); err != nil {
			panic(err)
		}
	})
	m["httpx.response_rt_us"] = metric{us, "us"}
	m["httpx.response_allocs"] = metric{allocs, "count"}
}

// cacheMetrics: objcache fills of select_small-sized objects and probe
// hits served through the relay's serve-time verification.
func cacheMetrics(m map[string]metric) {
	const size = 400_000
	c := objcache.New(objcache.Config{
		MaxBytes: 1 << 30,
		Verify: func(key string, off int64, data []byte) bool {
			return relay.VerifyRange(key[strings.IndexByte(key, '/')+1:], off, data)
		},
	})
	data := make([]byte, size)
	relay.FillRange("obj.bin", 0, data)
	keys := make([]string, 900)
	for i := range keys {
		keys[i] = fmt.Sprintf("127.0.0.1:%d/obj.bin", i)
	}
	i := 0
	us, _ := timeCalls(len(keys), func() { c.Put(keys[i], 0, data); i++ })
	m["objcache.put_us"] = metric{us, "us"}
	i = 0
	us, _ = timeCalls(len(keys), func() {
		if _, ok := c.Get(keys[i], 0, selectProbe); !ok {
			panic("objcache missed a cached range")
		}
		i++
	})
	m["objcache.get_hit_us"] = metric{us, "us"}
}

// sinkMetrics feeds each observability sink one select-and-fetch's
// worth of records.
func sinkMetrics(m map[string]metric) {
	direct := obs.PathID{Server: "origin", Object: "obj-1.bin"}
	via := direct
	via.Via = "r1"
	met := obs.NewMetrics()
	us, _ := timeCalls(9000, func() {
		met.ProbeStarted(obs.ProbeStart{Path: direct, Bytes: selectProbe})
		met.ProbeStarted(obs.ProbeStart{Path: via, Bytes: selectProbe})
		met.ProbeFinished(obs.ProbeEnd{Path: direct, Bytes: selectProbe, Duration: 0.0012})
		met.PathSelected(obs.Selection{Path: direct, Rule: "first-finished", Candidates: 2, ProbeDuration: 0.0012})
		met.ProbeCanceled(obs.ProbeCancel{Path: via})
		met.TransferStarted(obs.TransferStart{Path: direct, Offset: selectProbe, Bytes: 300_000, Warm: true})
		met.ProbeFinished(obs.ProbeEnd{Path: via, Bytes: selectProbe, Class: obs.ClassCanceled})
		met.TransferFinished(obs.TransferEnd{Path: direct, Offset: selectProbe, Bytes: 300_000, Duration: 0.002, Warm: true})
	})
	m["obs.metrics_transfer_us"] = metric{us, "us"}

	mon := obs.NewHealthMonitor(obs.HealthConfig{Clock: obs.WallClock()})
	us, _ = timeCalls(90000, func() { mon.Observe("127.0.0.1:9", obs.ClassOK, 0.002, 300_000) })
	m["obs.health_fold_ns"] = metric{us * 1e3, "ns"}

	var lr obs.LatencyRecorder
	us, _ = timeCalls(90000, func() { lr.Observe(2 * time.Millisecond) })
	m["obs.latency_observe_ns"] = metric{us * 1e3, "ns"}

	rec := flight.NewRecorder(flight.Config{Ring: relaydFlightRing})
	us, allocs := timeCalls(9000, func() {
		t := rec.Start("relay", "127.0.0.1:9", "obj-1.bin")
		t.Phase("dial")
		t.Phase("ttfb")
		t.Phase("stream")
		t.AddBytes(300_000)
		t.Finish("ok", "")
	})
	m["obs.flight_event_us"] = metric{us, "us"}
	m["obs.flight_event_allocs"] = metric{allocs, "count"}

	sc := obs.NewSpanCollector(4096)
	us, allocs = timeCalls(9000, func() {
		root := sc.StartSpan(obs.SpanContext{}, "client", "transfer")
		root.SetAttr("path", "r1")
		root.SetAttr("object", "obj-1.bin")
		for _, phase := range []string{"dial", "request-write", "ttfb", "stream"} {
			sc.StartSpan(root.Context(), "client", phase).EndOK()
		}
		root.EndOK()
	})
	m["obs.span_transfer_us"] = metric{us, "us"}
	m["obs.span_transfer_allocs"] = metric{allocs, "count"}
}

// warmFetchMetric counts process-wide allocations (client and origin)
// per warm 64 KB direct fetch on a parked keep-alive connection.
func warmFetchMetric(m map[string]metric) error {
	dp, err := newDataPlane(nil, 0)
	if err != nil {
		return err
	}
	defer dp.close()
	dp.origin.Put("warm.bin", 1<<20)
	rt := &realnet.Transport{Servers: map[string]string{"origin": dp.originAddr}, Verify: true}
	defer rt.Close()
	obj := core.Object{Server: "origin", Name: "warm.bin", Size: 1 << 20}
	var ferr error
	fetch := func() {
		h := rt.StartWarm(obj, core.Path{}, 0, 64<<10)
		rt.Wait(h)
		if err := h.Result().Err; err != nil && ferr == nil {
			ferr = err
		}
	}
	for i := 0; i < 10; i++ {
		fetch()
	}
	_, allocs := timeCalls(450, fetch)
	m["realnet.warm_fetch_allocs"] = metric{allocs, "count"}
	return ferr
}

// simMetrics: one client's topology build with its link-driver warm-up,
// raw simulator event throughput on that topology, and a short
// campaign, all on the sim_campaign scenario.
func simMetrics(m map[string]metric, seed uint64) {
	scen, server := simScenario()
	client := scen.Clients[0]
	build := func(i int) (*simnet.Engine, *topo.Instance) {
		eng := simnet.NewEngine()
		inst := scen.Instantiate(simnet.NewNetwork(eng), randx.New(seed+uint64(i)), client,
			[]*topo.Node{server}, scen.Intermediates)
		inst.Warmup(experiment.DefaultConfig().Warmup)
		return eng, inst
	}
	i := 0
	us, _ := timeCalls(9, func() { _, inst := build(i); inst.Close(); i++ })
	m["topo.instantiate_warmup_ms"] = metric{us / 1e3, "ms"}

	eng, inst := build(0)
	const steps = 200_000
	before := sample()
	n := 0
	for n < steps && eng.Step() {
		n++
	}
	after := sample()
	inst.Close()
	m["simnet.events_per_s"] = metric{float64(n) / after.wall.Sub(before.wall).Seconds(), "1/s"}
	m["simnet.allocs_per_event"] = metric{float64(after.mallocs-before.mallocs) / float64(n), "count"}

	spec := experiment.CampaignSpec{
		Scenario: scen, Client: client, Server: server, Inters: scen.Intermediates,
		Policy: core.UniformRandomPolicy{K: simCandidates}, Transfers: 5, Seed: seed,
	}
	us, _ = timeCalls(9, func() { experiment.RunCampaign(spec) })
	m["experiment.campaign_ms"] = metric{us / 1e3, "ms"}
}
