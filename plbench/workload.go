package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"passivelight"
	"passivelight/internal/cluster"
	"passivelight/internal/decoder"
	"passivelight/internal/rxnet"
	"passivelight/internal/scenario"
	"passivelight/internal/stream"
)

// workload is one benchmark input set and the path it drives.
type workload struct {
	name string
	// load builds the scenario load whose sessions form the input
	// pool, from the run's seed.
	load func(seed int64) scenario.Load
	// chunk is the send size in samples.
	chunk int
	// twoPhase selects the car-shape (TwoPhase) strategy.
	twoPhase bool
	// routed adds one cluster.Router in front of the NetSource the
	// chunks are sent to over loopback rxnet.
	routed bool
	// open drives an open loop at rate samples/s, each session paced
	// at pace times its stream clock; otherwise the loop is closed.
	// pace is the smallest whole multiple at which the pool's longest
	// session lasts at most half of the 30 s run window, so sessions
	// keep arriving for at least half the run (buildSchedule enforces
	// it). A slower pace keeps more sessions live at once.
	open bool
	rate float64
	pace float64
	// idle is the engine's session idle timeout, which ends every
	// session.
	idle time.Duration
}

// workloads is the benchmark's workload table. The open-loop rates are
// fixed once, at about half the closed-loop rate the same path reached
// on the commit that introduced the benchmark (see README.md); they are
// not re-tuned per commit.
var workloads = []*workload{
	{
		name: "lanes-direct",
		load: func(seed int64) scenario.Load {
			return scenario.Load{Name: "lanes", Preset: "multi-lane", Sessions: 384,
				JitterSec: scenario.DefaultJitterSec, Seed: seed}
		},
		chunk:    512,
		twoPhase: true,
		open:     true,
		rate:     2.35e6,
		// The longest session is 7.7 s of stream, so the sessions run
		// in real time: about 1340 receivers live at once.
		pace: 1,
		idle: time.Second,
	},
	{
		name: "ambient-routed",
		load: func(seed int64) scenario.Load {
			return scenario.Load{Name: "ambient", Preset: "indoor-bench", Sessions: 256,
				JitterSec: 40, Seed: seed}
		},
		chunk:  128,
		routed: true,
		open:   true,
		rate:   2.5e6,
		// The longest session is 46 s of stream (up to 40 s of lead-in
		// at 1 kHz), 11.5 s at 4x: about 730 sessions live at once.
		pace: 4,
		idle: time.Second,
	},
}

func workloadByName(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (want %s)", name, strings.Join(names, " | "))
}

// refEvent is one event of the reference decode: a standalone
// stream.Decoder fed the session's chunks in the workload's framing.
type refEvent struct {
	bits       string
	failed     bool
	start, end int64
	// emit is the index of the chunk after which the reference
	// decoder emitted the event; len(chunks) means it came from Flush.
	emit int
}

// session is one rendered input session of the pool.
type session struct {
	fs       float64
	samples  []float64
	chunks   [][]float64
	payloads []string
	ref      []refEvent
}

// decodeConfig is the per-session stream config the pipeline's engine
// runs with for this workload.
func (w *workload) decodeConfig(fs float64, symbols int) stream.Config {
	return stream.Config{Fs: fs, Decode: decoder.Options{ExpectedSymbols: symbols}, CarShape: w.twoPhase}
}

func bitString[T ~uint8](bits []T) string {
	var sb strings.Builder
	for _, b := range bits {
		sb.WriteByte('0' + byte(b))
	}
	return sb.String()
}

// pool is the rendered input pool plus the timings of producing it.
type pool struct {
	sessions []*session
	symbols  int
	fs       float64
	samples  int64
	renderNs int64
	refs     int
	// midStream counts reference events emitted before Flush.
	midStream int
	packets   int
}

// renderPool expands the workload's load, renders every session's
// trace and decodes it once with the reference decoder.
func (w *workload) renderPool(seed int64) (*pool, error) {
	specs, err := w.load(seed).Expand()
	if err != nil {
		return nil, err
	}
	p := &pool{}
	for k, spec := range specs {
		t0 := time.Now()
		m, err := spec.CompileMulti()
		if err != nil {
			return nil, fmt.Errorf("session %d: %w", k, err)
		}
		tr, err := m.Links[0].Link.Simulate()
		if err != nil {
			return nil, fmt.Errorf("session %d: %w", k, err)
		}
		p.renderNs += int64(time.Since(t0))
		s := &session{fs: tr.Fs, samples: tr.Samples}
		for lo := 0; lo < len(tr.Samples); lo += w.chunk {
			s.chunks = append(s.chunks, tr.Samples[lo:min(lo+w.chunk, len(tr.Samples))])
		}
		for _, pk := range m.Packets {
			s.payloads = append(s.payloads, bitString(pk.Packet.Data))
		}
		if k == 0 {
			p.symbols, p.fs = m.Spec.Decode.ExpectedSymbols, tr.Fs
		}
		if tr.Fs != p.fs {
			return nil, fmt.Errorf("session %d renders at %g Hz, the pool at %g Hz", k, tr.Fs, p.fs)
		}
		if err := s.decodeReference(w.decodeConfig(tr.Fs, p.symbols)); err != nil {
			return nil, fmt.Errorf("session %d: %w", k, err)
		}
		p.samples += int64(len(tr.Samples))
		p.refs += len(s.ref)
		for _, ev := range s.ref {
			if ev.emit < len(s.chunks) {
				p.midStream++
			}
		}
		p.packets += len(s.payloads)
		p.sessions = append(p.sessions, s)
	}
	return p, nil
}

// decodeReference feeds the session's chunks to a standalone
// stream.Decoder and records every event with the chunk that emitted
// it.
func (s *session) decodeReference(cfg stream.Config) error {
	d, err := stream.NewDecoder(cfg)
	if err != nil {
		return err
	}
	take := func(dets []stream.Detection, emit int) {
		for _, det := range dets {
			s.ref = append(s.ref, refEvent{bits: bitString(det.Bits), failed: det.Err != nil,
				start: det.Start, end: det.End, emit: emit})
		}
		stream.RecycleBatch(dets)
	}
	for j, c := range s.chunks {
		take(d.Feed(c), j)
	}
	take(d.Flush(), len(s.chunks))
	return nil
}

// rig is one set-up workload: its input pool and the started program
// (pipeline, listener, router and the node connections the senders
// use).
type rig struct {
	w       *workload
	clk     clock
	pool    *pool
	senders int
	traced  bool

	reg    *passivelight.Telemetry
	pipe   *passivelight.Pipeline
	log    *eventLog
	cancel context.CancelFunc
	done   chan struct{}

	src    *passivelight.NetSource
	router *cluster.Router
	nodes  []*rxnet.Node
	tsrc   *timedSource
}

// start launches the program for a rendered pool: the pipeline over a
// NetSource, optionally behind a router, and one node connection per
// sender.
func (w *workload) start(clk clock, p *pool, senders int, traced bool) (*rig, error) {
	r := &rig{w: w, clk: clk, pool: p, senders: senders, traced: traced,
		reg: passivelight.NewTelemetry(), done: make(chan struct{})}
	r.log = newEventLog(clk, traced)
	ns, err := passivelight.ListenSourceConfig("127.0.0.1:0", passivelight.NetSourceConfig{
		Telemetry: r.reg, PaceGuardIdle: w.idle})
	if err != nil {
		return nil, err
	}
	r.src = ns
	var src passivelight.Source = ns
	if traced {
		r.tsrc = newTimedSource(clk, src)
		src = r.tsrc
	}
	sink := r.log.record
	if w.routed {
		// As a cluster engine does: confirm each decoded session
		// upstream so the router trims its replay buffer.
		sink = func(ev passivelight.Event) {
			r.log.record(ev)
			if ev.Err == nil {
				r.src.AckSession(ev.Session)
			}
		}
	}
	strat := passivelight.Threshold()
	if w.twoPhase {
		strat = passivelight.TwoPhase()
	}
	opts := []passivelight.Option{
		passivelight.WithExpectedSymbols(p.symbols),
		passivelight.WithTelemetry(r.reg),
		passivelight.WithSink(sink),
		passivelight.WithIdleTimeout(w.idle),
	}
	pipe, err := passivelight.NewPipeline(src, strat, opts...)
	if err != nil {
		r.src.Close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	events, err := pipe.Stream(ctx)
	if err != nil {
		cancel()
		r.src.Close()
		return nil, err
	}
	r.pipe, r.cancel = pipe, cancel
	go func() {
		for range events {
		}
		close(r.done)
	}()
	target := r.src.Addr()
	if w.routed {
		ring, err := cluster.NewRing(0, cluster.Member{ID: "engine", Addr: target})
		if err == nil {
			r.router, err = cluster.NewRouter(cluster.RouterConfig{Ring: ring, Metrics: r.reg})
		}
		if err == nil {
			target, err = r.router.Listen("127.0.0.1:0")
		}
		if err != nil {
			r.teardown()
			return nil, err
		}
	}
	for s := 0; s < senders; s++ {
		node, err := rxnet.Dial(ctx, target, rxnet.Hello{NodeID: uint32(s + 1), Name: fmt.Sprintf("plbench-%d", s)})
		if err != nil {
			r.teardown()
			return nil, err
		}
		r.nodes = append(r.nodes, node)
	}
	return r, nil
}

// teardownTimes are the measured shutdown costs of a rig.
type teardownTimes struct {
	nodes, router, source, drain time.Duration
}

func (t teardownTimes) total() time.Duration { return t.nodes + t.router + t.source + t.drain }

// teardown stops everything the rig started, in dependency order, and
// times each step: node connections, router, listener, then the
// pipeline draining its last events.
func (r *rig) teardown() teardownTimes {
	var t teardownTimes
	t0 := time.Now()
	for _, n := range r.nodes {
		n.Close()
	}
	t.nodes = time.Since(t0)
	if r.router != nil {
		t0 = time.Now()
		r.router.Close()
		t.router = time.Since(t0)
	}
	t0 = time.Now()
	r.src.Close()
	t.source = time.Since(t0)
	// With its source ended, the pipeline flushes the engine and
	// closes its event channel.
	t0 = time.Now()
	if r.cancel != nil {
		<-r.done
		r.cancel()
	}
	t.drain = time.Since(t0)
	return t
}
