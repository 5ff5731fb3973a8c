package main

import (
	"errors"
	"net"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/relay"
)

// dataPlane is one origin and one relay on loopback, built the way
// origind and relayd build them by default: health monitors (the
// relay's with an SLO tracker), the relay's flight recorder with its
// bundle trigger engine, and the relay's upstream stall guard.
type dataPlane struct {
	origin     *relay.Origin
	relay      *relay.Relay
	rec        *flight.Recorder
	engine     *flight.Engine
	originAddr string
	relayAddr  string
	listeners  []net.Listener
}

// relaydUpstreamStall and relaydFlightRing are relayd's flag defaults.
const (
	relaydUpstreamStall = 30 * time.Second
	relaydFlightRing    = 512
)

// newDataPlane starts the pair. cacheBytes > 0 adds the relay cache with
// serve-time verification; a tracer adds span collection everywhere and
// counts the relay's upstream dials through WithDialer.
func newDataPlane(tr *tracer, cacheBytes int64) (*dataPlane, error) {
	dp := &dataPlane{rec: flight.NewRecorder(flight.Config{Ring: relaydFlightRing})}
	var spans *obs.SpanCollector
	if tr != nil {
		spans = tr.spans
	}
	dp.origin = relay.NewOriginServer(
		relay.WithHealthMonitor(obs.NewHealthMonitor(obs.HealthConfig{Clock: obs.WallClock()})),
		relay.WithSpans(spans),
	)
	slo := obs.NewSLOTracker(obs.SLOConfig{
		OnFastBurn: func(path string, burn float64) { dp.engine.FireBurn(path, burn) },
	})
	mon := obs.NewHealthMonitor(obs.HealthConfig{
		Clock: obs.WallClock(), SLO: slo,
		OnTransition: func(path string, t obs.HealthTransition) { dp.engine.FireHealth(path, t) },
	})
	opts := []relay.Option{
		relay.WithHealthMonitor(mon),
		relay.WithSpans(spans),
		relay.WithCache(cacheBytes),
		relay.WithVerifier(relay.VerifyRange),
		relay.WithUpstreamStall(relaydUpstreamStall),
		relay.WithFlight(dp.rec),
	}
	if tr != nil {
		opts = append(opts, relay.WithDialer(tr.countingDial))
	}
	dp.relay = relay.New(opts...)
	dp.engine = flight.NewEngine(flight.TriggerConfig{Recorder: dp.rec})

	ol, err := dp.origin.ServeAddr("127.0.0.1:0")
	if err != nil {
		dp.close()
		return nil, err
	}
	dp.listeners = append(dp.listeners, ol)
	rl, err := dp.relay.ServeAddr("127.0.0.1:0")
	if err != nil {
		dp.close()
		return nil, err
	}
	dp.listeners = append(dp.listeners, rl)
	dp.originAddr, dp.relayAddr = ol.Addr().String(), rl.Addr().String()
	return dp, nil
}

// drain waits until the relay's flight active table is empty: a client
// can return before the relay has counted or recorded its last forward,
// so relay counters and spans are read only after this barrier.
func (dp *dataPlane) drain() error {
	deadline := time.Now().Add(10 * time.Second)
	for len(dp.rec.Active()) > 0 {
		if time.Now().After(deadline) {
			return errors.New("relay forwards still active after 10s")
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

func (dp *dataPlane) close() {
	for _, l := range dp.listeners {
		l.Close()
	}
	dp.engine.Close()
}
