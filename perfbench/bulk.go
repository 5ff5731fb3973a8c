package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"

	"repro/internal/core"
	"repro/internal/realnet"
	"repro/internal/relay"
)

// bulk_relay: warm multi-MB ranged fetches through one relay. The
// client is a verifying realnet.Transport whose path goes via the
// relay; offsets are seeded and uniform within a large synthetic object.
const (
	bulkObject    = "bulk.bin"
	bulkAltObject = "bulk-alt.bin"
	bulkSize      = 1 << 30 // origin content is generated, never stored
	bulkRange     = 2 << 20
	bulkWarmup    = 50
)

type bulkEnv struct {
	dp   *dataPlane
	rt   *realnet.Transport
	rng  *rand.Rand
	seed uint64
	obj  core.Object
	path core.Path
	done int // fetches completed through the relay, warm-up included
}

func setupBulk(seed uint64, ops int, tr *tracer) (env, error) {
	dp, err := newDataPlane(tr, 0)
	if err != nil {
		return nil, err
	}
	dp.origin.Put(bulkObject, bulkSize)
	dp.origin.Put(bulkAltObject, bulkSize)
	rt := &realnet.Transport{
		Servers: map[string]string{"origin": dp.originAddr},
		Relays:  map[string]string{"r1": dp.relayAddr},
		Verify:  true,
	}
	if tr != nil {
		rt.Spans = tr.spans
	}
	e := &bulkEnv{
		dp: dp, rt: rt, seed: seed,
		rng:  rand.New(rand.NewPCG(seed, 0xb01c)),
		obj:  core.Object{Server: "origin", Name: bulkObject, Size: bulkSize},
		path: core.Path{Via: "r1"},
	}
	// Warm-up parks the keep-alive connection the timed fetches reuse.
	for i := 0; i < bulkWarmup; i++ {
		if err := e.fetch(); err != nil {
			e.close()
			return nil, fmt.Errorf("warm-up fetch: %w", err)
		}
	}
	return e, nil
}

func (e *bulkEnv) fetch() error {
	off := e.rng.Int64N(bulkSize - bulkRange)
	h := e.rt.StartWarm(e.obj, e.path, off, bulkRange)
	e.rt.Wait(h)
	e.done++
	return h.Result().Err
}

func (e *bulkEnv) run(ops int, lat *latencies) (failed int, delivered int64) {
	for i := 0; i < ops; i++ {
		if err := timeOp(lat, e.fetch); err != nil {
			failed++
			continue
		}
		delivered += bulkRange
	}
	return failed, delivered
}

// check verifies content end to end with fetches the timed loop did not
// make: overlapping relayed ranges agree byte for byte with each other
// and with the origin, different objects differ, and the verifier
// rejects a one-byte flip and a shifted offset. Together these catch a
// generator and a verifier that were changed together into something
// wrong. The relay must also have forwarded exactly the bytes asked of it.
func (e *bulkEnv) check() error {
	if err := e.dp.drain(); err != nil {
		return err
	}
	if got, want := e.dp.relay.BytesRelayed.Load(), int64(e.done)*bulkRange; got != want {
		return fmt.Errorf("relay forwarded %d bytes for %d fetches of %d", got, e.done, bulkRange)
	}
	r := rand.New(rand.NewPCG(e.seed, 0xc4ec))
	const n = 256 << 10
	off := r.Int64N(bulkSize - 2*n)
	a, err := relay.FetchVia(nil, e.dp.relayAddr, e.dp.originAddr, bulkObject, off, n)
	if err != nil {
		return err
	}
	b, err := relay.FetchVia(nil, e.dp.relayAddr, e.dp.originAddr, bulkObject, off+n/2, n)
	if err != nil {
		return err
	}
	if len(a) != n || len(b) != n {
		return fmt.Errorf("relayed ranges short: %d, %d of %d", len(a), len(b), n)
	}
	if !bytes.Equal(a[n/2:], b[:n/2]) {
		return errors.New("overlapping relayed ranges disagree")
	}
	direct, err := relay.Fetch(nil, e.dp.originAddr, bulkObject, off, n)
	if err != nil {
		return err
	}
	if !bytes.Equal(a, direct) {
		return errors.New("relayed range differs from the origin's")
	}
	alt, err := relay.FetchVia(nil, e.dp.relayAddr, e.dp.originAddr, bulkAltObject, off, n)
	if err != nil {
		return err
	}
	if bytes.Equal(a, alt) {
		return errors.New("two different objects have identical content")
	}
	if !relay.NewVerifier(bulkObject, off).Verify(a) {
		return errors.New("verifier rejects the origin's own content")
	}
	flipped := append([]byte(nil), a...)
	flipped[r.IntN(n)] ^= 0x01
	if relay.NewVerifier(bulkObject, off).Verify(flipped) {
		return errors.New("verifier accepts a one-byte flip")
	}
	if relay.NewVerifier(bulkObject, off+1).Verify(a) {
		return errors.New("verifier accepts a shifted offset")
	}
	return nil
}

func (e *bulkEnv) close() {
	e.rt.Close()
	e.dp.close()
}
