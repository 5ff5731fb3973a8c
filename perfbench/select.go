package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"strconv"

	"repro"
	"repro/internal/core"
	"repro/internal/realnet"
)

// select_small: the paper's mechanism run live. Client.SelectAndFetch
// races a 100 KB probe on the direct path against one caching relay,
// then fetches the remainder over the winner, on objects of a few
// hundred KB drawn from a Zipf-like catalog by a seeded request sequence.
//
// Where each figure comes from:
//   - selectProbe: the paper's x = 100 KB.
//   - selectZipfS: 0.8, inside the 0.64–0.83 range that Breslau et al.
//     ("Web Caching and Zipf-like Distributions", INFOCOM 1999) fit to
//     web proxy request traces.
//   - selectMinSize: twice the probe, so every remainder is at least as
//     large as the probe.
//   - selectMaxSize, selectCatalog, selectCacheFrac: assumptions. Sizes
//     stay a few hundred KB so per-request cost dominates; the catalog
//     and a cache of a quarter of its bytes make hits and fills both
//     happen on every run.
const (
	selectProbe     = 100_000
	selectCatalog   = 400
	selectMinSize   = 2 * selectProbe
	selectMaxSize   = 600_000
	selectZipfS     = 0.8
	selectCacheFrac = 0.25
	selectWarmup    = 1000
)

type selectEnv struct {
	dp      *dataPlane
	rt      *realnet.Transport
	client  *repro.Client
	catalog []core.Object
	cdf     []float64
	rng     *rand.Rand
	cands   []string

	outcomes   []core.Outcome // kept only by a traced run
	keep       bool
	checkErr   error
	selects    int
	inversions int
}

func setupSelect(seed uint64, ops int, tr *tracer) (env, error) {
	// Sizes are spread evenly over popularity ranks (a golden-ratio
	// sequence), the same for every seed: the seed draws the request
	// sequence, and the bytes per request do not swing with it.
	catalog := make([]core.Object, selectCatalog)
	var total int64
	for r := range catalog {
		frac := math.Mod(float64(r)*0.6180339887498949, 1)
		size := selectMinSize + int64(frac*(selectMaxSize-selectMinSize))
		catalog[r] = core.Object{Server: "origin", Name: "obj-" + strconv.Itoa(r) + ".bin", Size: size}
		total += size
	}
	cdf := make([]float64, selectCatalog)
	var acc float64
	for i := range cdf {
		acc += 1 / math.Pow(float64(i+1), selectZipfS)
		cdf[i] = acc
	}
	for i := range cdf {
		cdf[i] /= acc
	}

	dp, err := newDataPlane(tr, int64(float64(total)*selectCacheFrac))
	if err != nil {
		return nil, err
	}
	for _, o := range catalog {
		dp.origin.Put(o.Name, o.Size)
	}
	rt := &realnet.Transport{
		Servers:        map[string]string{"origin": dp.originAddr},
		Relays:         map[string]string{"r1": dp.relayAddr},
		Verify:         true,
		MaxIdlePerPath: 1,
	}
	opts := []repro.Option{repro.WithProbeBytes(selectProbe)}
	if tr != nil {
		opts = append(opts, repro.WithSpans(tr.spans))
	}
	e := &selectEnv{
		dp: dp, rt: rt, client: repro.New(rt, opts...),
		catalog: catalog, cdf: cdf, rng: rand.New(rand.NewPCG(seed, 0x5e1ec7)),
		cands: []string{"r1"},
		keep:  tr != nil,
	}
	for i := 0; i < selectWarmup; i++ {
		if _, err := e.selectOne(); err != nil {
			e.close()
			return nil, fmt.Errorf("warm-up select: %w", err)
		}
	}
	e.outcomes = nil
	return e, nil
}

func (e *selectEnv) pick() core.Object {
	u := e.rng.Float64()
	lo, hi := 0, len(e.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if e.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return e.catalog[lo]
}

// selectOne runs one select-and-fetch, checks its outcome against the
// first-finished contract, and returns the object size delivered.
func (e *selectEnv) selectOne() (int64, error) {
	obj := e.pick()
	out := e.client.SelectAndFetch(context.Background(), obj, e.cands)
	if out.Err != nil {
		return 0, out.Err
	}
	if e.keep {
		e.outcomes = append(e.outcomes, out)
	}
	inverted, err := checkOutcome(out)
	if err != nil && e.checkErr == nil {
		e.checkErr = err
	}
	if inverted {
		e.inversions++
	}
	e.selects++
	return obj.Size, nil
}

// checkOutcome: the selected path is direct or the relay; its probe
// succeeded and had ended when the race committed; and its probe bytes
// plus the remainder bytes make up the object exactly. It also reports
// whether another successful probe carries an earlier End stamp than the
// winner: the transport stamps End before it publishes completion, so a
// near-tie can commit to the later stamp. That inversion happens only
// now and then, so it is counted and printed, not failed.
func checkOutcome(out core.Outcome) (inverted bool, err error) {
	if !out.Selected.IsDirect() && out.Selected.Via != "r1" {
		return false, fmt.Errorf("selected unknown path %q", out.Selected.Via)
	}
	var win *core.ProbeResult
	for i := range out.Probes {
		if out.Probes[i].Path == out.Selected && out.Probes[i].Err == nil {
			win = &out.Probes[i]
		}
	}
	if win == nil {
		return false, fmt.Errorf("selected %s has no successful probe", out.Selected)
	}
	if win.End > out.ProbeEnd {
		return false, fmt.Errorf("selected %s probe ended at %.6f, after the race committed at %.6f",
			out.Selected, win.End, out.ProbeEnd)
	}
	if win.Bytes+out.Remainder.Bytes != out.Object.Size || out.Remainder.Err != nil {
		return false, fmt.Errorf("probe %d + remainder %d bytes for a %d-byte object",
			win.Bytes, out.Remainder.Bytes, out.Object.Size)
	}
	for _, p := range out.Probes {
		if p.Err == nil && p.End < win.End {
			return true, nil
		}
	}
	return false, nil
}

func (e *selectEnv) run(ops int, lat *latencies) (failed int, delivered int64) {
	for i := 0; i < ops; i++ {
		var size int64
		err := timeOp(lat, func() (err error) {
			size, err = e.selectOne()
			return err
		})
		if err != nil {
			failed++
			continue
		}
		delivered += size
	}
	return failed, delivered
}

// check: every relay request is one cache lookup (hits + misses, with
// shared fills among the misses), no cached span ever failed
// verification, and the cache both served hits and took fills.
func (e *selectEnv) check() error {
	if e.checkErr != nil {
		return e.checkErr
	}
	if err := e.dp.drain(); err != nil {
		return err
	}
	st := e.dp.relay.Cache().Stats()
	reqs := e.dp.relay.Requests.Load()
	switch {
	case st.Hits+st.Misses != reqs:
		return fmt.Errorf("cache hits %d + misses %d != %d relay lookups", st.Hits, st.Misses, reqs)
	case st.SharedFills > st.Misses:
		return fmt.Errorf("shared fills %d exceed misses %d", st.SharedFills, st.Misses)
	case st.VerifyFailures != 0:
		return fmt.Errorf("cache recorded %d verify failures", st.VerifyFailures)
	case st.Hits == 0 || st.Fills == 0:
		return errors.New("cache sizing gave no hits or no fills")
	}
	return nil
}

func (e *selectEnv) report() {
	fmt.Printf("first-finished stamp inversions: %d of %d selects\n", e.inversions, e.selects)
}

func (e *selectEnv) close() {
	e.rt.Close()
	e.dp.close()
}
