package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net"
	"sort"
	"strconv"
	"time"

	"repro/internal/registry"
)

// registry_mix: the control plane. A registry preloaded with 100k
// relays serves two pooled client connections: a writer sending
// heartbeat refreshes with an occasional material event (a health
// change, an add or a remove), and a reader polling LISTD from the
// mirror cursors, mostly quiet. The wire has no remove command, so
// removes call Server.Remove in-process, as an operator tool would.
//
// The mix is the repository's own model of steady registry load,
// experiment.RegistryLoadParams at its defaults: 100k relays, REGISTER
// heartbeats at 1000/s, and 8 delta mirrors each polling LISTD every
// 2 s. One round is 2 s of that traffic, closed loop: 2000 heartbeats
// with a poll after every 250 of them, each from the next mirror in turn.
// Ranked LISTH scans are left out of the mix, as that experiment leaves
// them out of its storm (a 100k-entry ranking is hundreds of ms of CPU);
// the traced run times them on their own.
const (
	registryPreload    = 100_000
	registryMirrors    = 8    // RegistryLoadParams.DeltaScanners
	registryHeartbeats = 2000 // RegistryLoadParams.Rate × DeltaScanEvery
	registryTTL        = time.Hour
	registryTopK       = 100 // RegistryLoadParams.ScanK
	registryTopScans   = 5   // RegistryLoadParams.RankedScans
	// registryTracedChanges is how many health changes the traced run
	// times apart from the mix, which sends one per eight rounds.
	registryTracedChanges = 50
	registryRound         = registryHeartbeats + registryMirrors
	// registryEventEvery is an assumption, not a repository figure: one
	// material event per four rounds (8 s of fleet time), so three polls
	// in four are quiet, the steady state in which "almost all refreshes
	// are pure". The events cycle through remove, health change, add,
	// health change; the untimed warm-up round takes the first.
	registryEventEvery = 4
)

type regOp int

const (
	opHeartbeat regOp = iota
	opEvent
	opListD
)

// registrySchedule is one round: a LISTD poll after every 250
// heartbeats, and the writer's event slot at the start of the round.
// The slot carries a material event every registryEventEvery rounds and
// a heartbeat otherwise.
var registrySchedule = func() []regOp {
	s := make([]regOp, registryRound)
	per := registryHeartbeats / registryMirrors
	for i := 0; i < registryMirrors; i++ {
		s[i*(per+1)+per] = opListD
	}
	s[0] = opEvent
	return s
}()

type regEntry struct {
	addr   string
	health float64
}

type registryEnv struct {
	srv      *registry.Server
	ln       net.Listener
	writer   *registry.Client
	reader   *registry.Client
	mirrors  []*registry.RankedSet
	rng      *rand.Rand
	tr       *tracer
	entries  map[string]regEntry
	live     []string
	adds     int
	removes  int
	done     int // commands issued, across run calls
	nextPoll int
}

func setupRegistry(seed uint64, ops int, tr *tracer) (env, error) {
	e := &registryEnv{
		srv:     &registry.Server{},
		rng:     rand.New(rand.NewPCG(seed, 0x4e9)),
		tr:      tr,
		entries: make(map[string]regEntry, registryPreload),
		live:    make([]string, 0, registryPreload+ops),
	}
	for i := 0; i < registryPreload; i++ {
		name := "relay-" + strconv.Itoa(i)
		ent := regEntry{addr: fakeAddr(i), health: e.health()}
		if err := e.srv.RegisterHealth(name, ent.addr, registryTTL, ent.health); err != nil {
			return nil, err
		}
		e.entries[name] = ent
		e.live = append(e.live, name)
	}
	ln, err := e.srv.ServeAddr("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e.ln = ln
	addr := ln.Addr().String()
	e.writer = registry.NewClient(addr, registry.WithPooledConn())
	e.reader = registry.NewClient(addr, registry.WithPooledConn())
	for i := 0; i < registryMirrors; i++ {
		m := registry.NewRankedSet()
		if err := m.Refresh(context.Background(), e.reader); err != nil {
			e.close()
			return nil, fmt.Errorf("mirror sync: %w", err)
		}
		e.mirrors = append(e.mirrors, m)
	}
	// Untimed warm-up: one round of the mix.
	if failed, _ := e.run(registryRound, nil); failed > 0 {
		e.close()
		return nil, fmt.Errorf("warm-up: %d commands failed", failed)
	}
	return e, nil
}

// health draws a score with three decimals, so it survives the wire's
// six-significant-digit formatting exactly.
func (e *registryEnv) health() float64 { return float64(e.rng.IntN(1001)) / 1000 }

func fakeAddr(i int) string {
	return "10." + strconv.Itoa(i>>16&255) + "." + strconv.Itoa(i>>8&255) + "." + strconv.Itoa(i&255) + ":8081"
}

func (e *registryEnv) run(ops int, lat *latencies) (failed int, _ int64) {
	ctx := context.Background()
	for i := 0; i < ops; i++ {
		kind := registrySchedule[e.done%registryRound]
		e.done++
		t0 := time.Now()
		phase, err := e.do(ctx, kind)
		d := time.Since(t0)
		lat.add(d)
		if err != nil {
			failed++
			continue
		}
		e.tr.record(phase, t0, d)
	}
	return failed, 0
}

// do issues one command and names it for the traced run.
func (e *registryEnv) do(ctx context.Context, kind regOp) (string, error) {
	switch kind {
	case opHeartbeat:
		name := e.live[e.rng.IntN(len(e.live))]
		ent := e.entries[name]
		return "registry.register", e.writer.RegisterHealth(ctx, name, ent.addr, registryTTL, ent.health)
	case opEvent:
		round := (e.done - 1) / registryRound
		if round%registryEventEvery != 0 {
			return e.do(ctx, opHeartbeat)
		}
		switch round / registryEventEvery % 4 {
		case 1, 3:
			return "registry.register_change", e.change(ctx)
		case 2:
			name := "relay-new-" + strconv.Itoa(e.adds)
			ent := regEntry{addr: fakeAddr(registryPreload + e.adds), health: e.health()}
			e.entries[name] = ent
			e.live = append(e.live, name)
			e.adds++
			return "registry.add", e.writer.RegisterHealth(ctx, name, ent.addr, registryTTL, ent.health)
		default:
			i := e.rng.IntN(len(e.live))
			name := e.live[i]
			e.live[i] = e.live[len(e.live)-1]
			e.live = e.live[:len(e.live)-1]
			delete(e.entries, name)
			e.removes++
			e.srv.Remove(name)
			return "registry.remove", nil
		}
	default:
		m := e.mirrors[e.nextPoll%len(e.mirrors)]
		e.nextPoll++
		before := m.Stats().Changes
		if err := m.Refresh(ctx, e.reader); err != nil {
			return "", err
		}
		if m.Stats().Changes == before {
			return "registry.listd_quiet", nil
		}
		return "registry.listd_delta", nil
	}
}

// change sends a material health change for a random live relay.
func (e *registryEnv) change(ctx context.Context) error {
	name := e.live[e.rng.IntN(len(e.live))]
	ent := e.entries[name]
	for h := ent.health; h == ent.health; {
		ent.health = e.health()
	}
	e.entries[name] = ent
	return e.writer.RegisterHealth(ctx, name, ent.addr, registryTTL, ent.health)
}

// timeApart times, for the traced run, the commands the mix issues too
// rarely for a median: ranked LISTH reads on the reader connection and
// material health changes on the writer.
func (e *registryEnv) timeApart() error {
	ctx := context.Background()
	for i := 0; i < registryTopScans; i++ {
		t0 := time.Now()
		top, err := e.reader.ListRanked(ctx, registryTopK)
		if err != nil {
			return err
		}
		if len(top) != registryTopK {
			return fmt.Errorf("LISTH %d returned %d entries", registryTopK, len(top))
		}
		e.tr.record("registry.listh_top", t0, time.Since(t0))
	}
	for i := 0; i < registryTracedChanges; i++ {
		t0 := time.Now()
		if err := e.change(ctx); err != nil {
			return err
		}
		e.tr.record("registry.register_change", t0, time.Since(t0))
	}
	return nil
}

// check: every mirror that followed only deltas equals the server's
// table on every field the wire carries; the EPOCH digest equals
// Server.Digest(); the entry count is preload + adds − removes as
// counted by the generator.
func (e *registryEnv) check() error {
	ctx := context.Background()
	want := e.srv.ListAll()
	if n := registryPreload + e.adds - e.removes; len(want) != n {
		return fmt.Errorf("server holds %d entries, generator expects %d", len(want), n)
	}
	for i, m := range e.mirrors {
		if err := m.Refresh(ctx, e.reader); err != nil {
			return err
		}
		if st := m.Stats(); st.Fulls != 1 {
			return fmt.Errorf("mirror %d took %d full snapshots, want only the initial one", i, st.Fulls)
		}
		got := m.All()
		sort.Slice(got, func(a, b int) bool { return got[a].Name < got[b].Name })
		if len(got) != len(want) {
			return fmt.Errorf("mirror %d holds %d entries, server %d", i, len(got), len(want))
		}
		for j := range got {
			g, w := got[j], want[j]
			if g.Name != w.Name || g.Addr != w.Addr || g.Health != w.Health ||
				g.Down != w.Down || g.MetricsAddr != w.MetricsAddr {
				return fmt.Errorf("mirror %d entry %d: %+v != server %+v", i, j, g, w)
			}
			if ent, ok := e.entries[w.Name]; !ok || ent.addr != w.Addr || ent.health != w.Health {
				return fmt.Errorf("server entry %s disagrees with the generator", w.Name)
			}
		}
	}
	_, digest, err := e.reader.Epoch(ctx)
	if err != nil {
		return err
	}
	if d := e.srv.Digest(); digest != d {
		return fmt.Errorf("EPOCH digest %d != Server.Digest %d", digest, d)
	}
	return nil
}

func (e *registryEnv) close() {
	e.writer.Close()
	e.reader.Close()
	if e.ln != nil {
		e.ln.Close()
	}
}
