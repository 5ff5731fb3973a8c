package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"time"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/randx"
	"repro/internal/topo"
)

// sim_campaign: the paper's reproduction in virtual time. Every client
// of a fixed scenario downloads from one server with 10-candidate
// uniform random sets out of 35 intermediates under the first-finished
// rule; the campaigns run through experiment.RunAll with one worker, so
// rounds do not contend with each other for the two cores. No sockets: simnet, tcpmodel, httpsim, topo and core only. The
// scenario and server are the same for every seed (a different topology
// is a different amount of simulated work per round); the seed draws
// each campaign's seed, which drives link processes and candidate sets.
const (
	simScenarioSeed  = 2007
	simServer        = "eBay"
	simIntermediates = 35
	simCandidates    = 10
	simCheckRounds   = 3
	simWorkers       = 1
)

func simScenario() (*topo.Scenario, *topo.Node) {
	scen := topo.NewScenario(topo.Params{Seed: simScenarioSeed, NumIntermediates: simIntermediates})
	return scen, scen.FindServer(simServer)
}

// simRound is one transfer round per client; a run attempts whole
// rounds of every campaign.
var simRound = len(topo.NewScenario(topo.Params{Seed: simScenarioSeed}).Clients)

type simEnv struct {
	scen    *topo.Scenario
	server  *topo.Node
	rng     *rand.Rand
	tr      *tracer
	results []experiment.CampaignResult
}

func setupSim(seed uint64, ops int, tr *tracer) (env, error) {
	scen, server := simScenario()
	e := &simEnv{scen: scen, server: server, rng: rand.New(rand.NewPCG(seed, 0x5137)), tr: tr}
	// Untimed warm-up: one round of every campaign, so the timed run
	// starts with the runtime's heap already grown to its working size.
	experiment.RunAll(e.specs(1, nil), simWorkers)
	return e, nil
}

// specs lists one campaign per client with fresh seeds from the run's
// sequence; with clocks, each campaign's policy is wrapped to time its
// rounds.
func (e *simEnv) specs(transfers int, clocks []*roundClock) []experiment.CampaignSpec {
	out := make([]experiment.CampaignSpec, len(e.scen.Clients))
	for i, c := range e.scen.Clients {
		var pol core.Policy = core.UniformRandomPolicy{K: simCandidates}
		if clocks != nil {
			clocks[i] = &roundClock{inner: pol, tr: e.tr}
			pol = clocks[i]
		}
		out[i] = experiment.CampaignSpec{
			Scenario:  e.scen,
			Client:    c,
			Server:    e.server,
			Inters:    e.scen.Intermediates,
			Policy:    pol,
			Transfers: transfers,
			Seed:      e.rng.Uint64(),
		}
	}
	return out
}

// roundClock wraps a campaign's candidate policy to time its rounds
// from outside: RunCampaign asks for candidates once at the start of
// every round, so consecutive calls bracket one round's wall time.
type roundClock struct {
	inner core.Policy
	tr    *tracer
	last  time.Time
	lat   []time.Duration
}

func (p *roundClock) Candidates(full []string, r *randx.RNG) []string {
	now := time.Now()
	if !p.last.IsZero() {
		d := now.Sub(p.last)
		p.lat = append(p.lat, d)
		p.tr.record("experiment.round", p.last, d)
	}
	p.last = now
	return p.inner.Candidates(full, r)
}

// run executes one batch of campaigns, every client running ops/clients
// rounds.
func (e *simEnv) run(ops int, lat *latencies) (failed int, _ int64) {
	clocks := make([]*roundClock, len(e.scen.Clients))
	results := experiment.RunAll(e.specs(ops/len(clocks), clocks), simWorkers)
	e.results = append(e.results, results...)
	for _, c := range clocks {
		for _, d := range c.lat {
			lat.add(d)
		}
	}
	for _, r := range results {
		for _, rec := range r.Records {
			if rec.Err != nil {
				failed++
			}
		}
	}
	return failed, 0
}

// check: every record succeeded; the benchmark's own recomputation of
// the paper's improvement metric matches; the selected intermediate is
// one of the round's candidates or the direct path; and one campaign
// rerun twice with the same seed gives identical records.
func (e *simEnv) check() error {
	for _, r := range e.results {
		if len(r.Records) != r.Spec.Transfers {
			return fmt.Errorf("campaign %s: %d records for %d transfers", r.Spec.Client.Name, len(r.Records), r.Spec.Transfers)
		}
		for _, rec := range r.Records {
			if rec.Err != nil {
				return fmt.Errorf("campaign %s: %v", rec.Client, rec.Err)
			}
			want := 0.0
			if rec.DirectTp > 0 {
				want = (rec.SelectedTp - rec.DirectTp) / rec.DirectTp * 100
			}
			if math.Abs(rec.Improvement-want) > 1e-9*math.Max(1, math.Abs(want)) {
				return fmt.Errorf("campaign %s: improvement %.9g, recomputed %.9g", rec.Client, rec.Improvement, want)
			}
			if rec.Selected != "" && !contains(rec.Candidates, rec.Selected) {
				return fmt.Errorf("campaign %s: selected %s outside its candidates", rec.Client, rec.Selected)
			}
		}
	}
	spec := e.results[0].Spec
	spec.Policy = core.UniformRandomPolicy{K: simCandidates}
	spec.Transfers = simCheckRounds
	a, b := experiment.RunCampaign(spec), experiment.RunCampaign(spec)
	if !reflect.DeepEqual(a.Records, b.Records) {
		return errors.New("the same campaign seed gave different records")
	}
	return nil
}

// report prints the selection shape of the run: the share of rounds
// that chose an indirect path and their mean improvement, the paper's
// headline numbers.
func (e *simEnv) report() {
	var n, ind int
	var sum float64
	for _, r := range e.results {
		for _, rec := range r.Records {
			n++
			if rec.Indirect() {
				ind++
				sum += rec.Improvement
			}
		}
	}
	if ind > 0 {
		fmt.Printf("selection shape: indirect %.1f%% of %d rounds, mean improvement when indirect %+.1f%%\n",
			100*float64(ind)/float64(n), n, sum/float64(ind))
	}
}

func contains(s []string, v string) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func (e *simEnv) close() {}
