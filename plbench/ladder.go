package main

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"passivelight"
	"passivelight/internal/decoder"
	"passivelight/internal/stream"
	"passivelight/internal/trace"
)

// layerSampler samples the program's queue and memory gauges while a
// traced drive runs. Only its goroutine touches the maxima until
// finish has waited for it.
type layerSampler struct {
	occMax   float64
	bufMax   int64
	queueMax float64
	stop     chan struct{}
	wg       sync.WaitGroup
}

func startLayerSampler(r *rig, interval time.Duration) *layerSampler {
	s := &layerSampler{stop: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				s.sample(r)
			}
		}
	}()
	return s
}

func (s *layerSampler) sample(r *rig) {
	occ := r.pipe.Occupancy()
	buf := r.pipe.Stats().BufferedSamples
	var q float64
	if r.src != nil {
		q = r.reg.Snapshot().Gauges["pl_rxnet_queue_depth"]
	}
	s.occMax = max(s.occMax, occ)
	s.bufMax = max(s.bufMax, buf)
	s.queueMax = max(s.queueMax, q)
}

// layerStats is the program's own view of one drive, read from its
// Stats, Telemetry and NetSource counters before teardown.
type layerStats struct {
	occMax, queueMax     float64
	bufMax               int64
	stats                passivelight.StreamStats
	snap                 passivelight.TelemetrySnapshot
	dropped, dup, resets int64
}

func (s *layerSampler) finish(r *rig) *layerStats {
	close(s.stop)
	s.wg.Wait()
	s.sample(r)
	ls := &layerStats{occMax: s.occMax, queueMax: s.queueMax, bufMax: s.bufMax,
		stats: r.pipe.Stats(), snap: r.reg.Snapshot()}
	if r.src != nil {
		ls.dropped, ls.dup, ls.resets = r.src.DroppedChunks(), r.src.DuplicateChunks(), r.src.StreamResets()
	}
	return ls
}

// counterSum adds every counter whose name starts with prefix (all
// label sets of one series).
func (ls *layerStats) counterSum(prefix string) int64 {
	var n int64
	for k, v := range ls.snap.Counters {
		if strings.HasPrefix(k, prefix) {
			n += v
		}
	}
	return n
}

// wireRung is one closed-loop pass of a pool subset over loopback
// rxnet, direct or routed.
type wireRung struct {
	d   *drive
	ls  *layerStats
	p50 float64 // detection latency, ms
}

// ladder holds the traced run's rung measurements over the same pool:
// each rung adds one layer on top of the previous.
type ladder struct {
	decoderNs, decoderSamples int64
	segments                  int
	streamNs, engineNs        int64
	samples                   int64
	endSession                []float64 // Engine.EndSession durations, ns
	direct, routed            *wireRung
	tracers                   []*tracer
}

// wireSubset is how many pool sessions the wire rungs send.
const wireSubset = 32

// runLadder measures the rungs over the rig's pool: the decoder
// kernel over each reference segment, a standalone stream.Decoder, the
// Engine driven directly, and the pool's first sessions over loopback
// rxnet sent direct and through a router.
func runLadder(w *workload, rg *rig, clk clock, senders int) (*ladder, error) {
	p := rg.pool
	tr := newTracer(clk, "ladder")
	lad := &ladder{samples: p.samples, tracers: []*tracer{tr}}

	root := tr.begin("rung.decoder", "decoder", -1, -1)
	opt := decoder.Options{ExpectedSymbols: p.symbols}
	for k, ses := range p.sessions {
		for _, ref := range ses.ref {
			seg := trace.New(ses.fs, 0, ses.samples[ref.start:ref.end])
			sp := tr.begin("decode", "decoder", root, int32(k))
			// The rung times the kernel; the results and errors were
			// already checked through the reference decode.
			t0 := time.Now()
			if w.twoPhase {
				_, _ = decoder.DecodeCarPass(seg, opt)
			} else {
				_, _ = decoder.Decode(seg, opt)
			}
			lad.decoderNs += int64(time.Since(t0))
			tr.end(sp)
			lad.decoderSamples += ref.end - ref.start
			lad.segments++
		}
	}
	tr.end(root)

	root = tr.begin("rung.stream_decoder", "stream", -1, -1)
	t0 := time.Now()
	for k, ses := range p.sessions {
		sp := tr.begin("session", "stream", root, int32(k))
		d, err := stream.NewDecoder(w.decodeConfig(ses.fs, p.symbols))
		if err != nil {
			return nil, err
		}
		for _, c := range ses.chunks {
			stream.RecycleBatch(d.Feed(c))
		}
		stream.RecycleBatch(d.Flush())
		tr.end(sp)
	}
	lad.streamNs = int64(time.Since(t0))
	tr.end(root)

	root = tr.begin("rung.engine", "stream", -1, -1)
	if err := lad.engineRung(w, p, tr, root); err != nil {
		return nil, err
	}
	tr.end(root)

	var err error
	if lad.direct, err = wireRun(w, p, clk, senders, false); err != nil {
		return nil, err
	}
	if lad.routed, err = wireRun(w, p, clk, senders, true); err != nil {
		return nil, err
	}
	return lad, nil
}

// engineRung feeds every pool session into a stream.Engine from one
// goroutine and ends it with EndSession, timing until every
// detection has been published.
func (lad *ladder) engineRung(w *workload, p *pool, tr *tracer, root int32) error {
	eng, err := stream.NewEngine(stream.EngineConfig{
		Session:     w.decodeConfig(p.fs, p.symbols),
		IdleTimeout: -1,
	})
	if err != nil {
		return err
	}
	got := make(chan int)
	go func() {
		n := 0
		for b := range eng.Batches() {
			n += len(b)
			stream.RecycleBatch(b)
		}
		got <- n
	}()
	t0 := time.Now()
	for k, ses := range p.sessions {
		id := uint64(k + 1)
		sp := tr.begin("session", "stream", root, int32(k))
		for _, c := range ses.chunks {
			if err := eng.Feed(id, ses.fs, c); err != nil {
				eng.Close()
				return err
			}
		}
		e0 := time.Now()
		if err := eng.EndSession(id); err != nil {
			eng.Close()
			return err
		}
		lad.endSession = append(lad.endSession, float64(time.Since(e0)))
		tr.end(sp)
	}
	// EndSession has decoded every session; Close publishes nothing
	// more and ends the batch stream.
	eng.Close()
	n := <-got
	lad.engineNs = int64(time.Since(t0))
	if n != p.refs {
		fmt.Printf("warning: engine rung published %d detections, reference has %d\n", n, p.refs)
	}
	return nil
}

// wireRun sends the pool's first wireSubset sessions closed-loop over
// loopback rxnet into a NetSource pipeline, direct or through a
// router; sessions end by the engine idle timeout.
func wireRun(w *workload, p *pool, clk clock, senders int, routed bool) (*wireRung, error) {
	ww := *w
	ww.routed, ww.open = routed, false
	sub := *p
	sub.sessions = p.sessions[:min(wireSubset, len(p.sessions))]
	rg, err := ww.start(clk, &sub, senders, false)
	if err != nil {
		return nil, err
	}
	smp := startLayerSampler(rg, 10*time.Millisecond)
	d := rg.closedLoop(false, 0)
	rg.log.await(rg.expectedEvents(d.insts), clk.now()+int64(ww.idle)+int64(10*time.Second))
	ls := smp.finish(rg)
	rg.teardown()
	if d.err != nil {
		return nil, d.err
	}
	if err := rg.checkFanout(d); err != nil {
		return nil, err
	}
	p50, _ := percentile(sortedCopy(rg.score(d).latMs), 0.5)
	return &wireRung{d: d, ls: ls, p50: p50}, nil
}

// calibrate drives the rig's path closed-loop for seconds and prints
// the rate reached: the figure an open-loop workload's offered rate is
// set from.
func (r *rig) calibrate(seconds int) error {
	d := r.closedLoop(true, r.clk.now()+int64(seconds)*int64(time.Second))
	r.log.await(r.expectedEvents(d.insts), r.clk.now()+int64(r.w.idle)+int64(10*time.Second))
	r.teardown()
	if d.err != nil {
		return d.err
	}
	if err := r.checkFanout(d); err != nil {
		return err
	}
	s := r.score(d)
	wall := float64(s.lastEvent-d.first) / 1e9
	fmt.Printf("closed loop: %d samples in %.3f s = %.0f samples/s; %d/%d reference events matched, %d extra\n",
		d.sent, wall, float64(d.sent)/wall, s.matched, s.refs, s.extra)
	return nil
}

// fill writes the per-layer metrics of a traced run. Layers the
// workload's own path does not cross are read from the ladder rung
// that crosses them on the same inputs: cluster from the routed wire
// rung, and the synchronous EndSession from the engine rung when the
// path sends no end markers.
func (ls *layerStats) fill(m map[string]metric, rg *rig, d *drive, lad *ladder, td teardownTimes) {
	w := rg.w
	m["decoder.ns_per_segment_sample"] = metric{float64(lad.decoderNs) / float64(lad.decoderSamples), "ns/sample"}
	m["decoder.segments"] = metric{float64(lad.segments), "count"}
	m["decoder.useful_ratio"] = metric{ratio(int(ls.stats.Detections), int(ls.stats.Detections+ls.stats.DecodeErrors)), "ratio"}
	m["stream.decoder_ns_per_sample"] = metric{float64(lad.streamNs) / float64(lad.samples), "ns/sample"}
	m["stream.engine_ns_per_sample"] = metric{float64(lad.engineNs) / float64(lad.samples), "ns/sample"}
	step := ls.snap.Histograms["pl_engine_decode_step_ns"]
	m["stream.decode_step_max_ms"] = metric{float64(step.Max) / 1e6, "ms"}
	m["stream.decode_step_mean_us"] = metric{finite(float64(step.Sum) / float64(step.Count) / 1e3), "us"}
	m["stream.occupancy_max"] = metric{ls.occMax, "ratio"}
	m["stream.buffered_samples_max"] = metric{float64(ls.bufMax), "samples"}
	m["stream.dropped_samples"] = metric{float64(ls.stats.DroppedSamples), "samples"}
	m["stream.dropped_detections"] = metric{float64(ls.stats.DroppedDetections), "count"}

	ts := rg.tsrc
	m["pipeline.pull_busy_share"] = metric{ts.busyShare(), "ratio"}
	ends := ts.endSession
	if len(ends) == 0 {
		ends = lad.endSession
	}
	ends = sortedCopy(ends)
	e50, _ := percentile(ends, 0.5)
	e99, _ := percentile(ends, 0.99)
	m["pipeline.end_session_p50_ms"] = metric{finite(e50 / 1e6), "ms"}
	m["pipeline.end_session_p99_ms"] = metric{finite(e99 / 1e6), "ms"}
	m["pipeline.feed_ns_per_sample"] = metric{finite(float64(ts.feedNs) / float64(ts.feedSamples)), "ns/sample"}

	c50, _ := percentile(sortedCopy(d.chunkNs), 0.5)
	m["rxnet.stream_chunk_p50_us"] = metric{finite(c50 / 1e3), "us"}
	m["rxnet.wire_bytes_per_sample"] = metric{float64(ls.counterSum("pl_rxnet_ingest_bytes_total")) / float64(d.sent), "B/sample"}
	m["rxnet.queue_depth_max"] = metric{ls.queueMax, "chunks"}
	m["rxnet.dropped_chunks"] = metric{float64(ls.dropped), "chunks"}
	m["rxnet.duplicate_chunks"] = metric{float64(ls.dup), "chunks"}
	m["rxnet.stream_resets"] = metric{float64(ls.resets), "count"}

	cl, clDrive := ls, d
	if !w.routed {
		cl, clDrive = lad.routed.ls, lad.routed.d
	}
	m["cluster.forwards_per_chunk"] = metric{float64(cl.counterSum("pl_cluster_chunks_forwarded_total")) / float64(len(clDrive.chunkNs)), "ratio"}
	m["cluster.replayed_chunks"] = metric{float64(cl.counterSum("pl_cluster_replayed_chunks_total")), "chunks"}
	m["cluster.undeliverable_chunks"] = metric{float64(cl.counterSum("pl_cluster_undeliverable_chunks_total")), "chunks"}
	m["cluster.added_latency_p50_ms"] = metric{finite(lad.routed.p50 - lad.direct.p50), "ms"}

	late, _ := percentile(sortedCopy(d.late), 0.99)
	m["loadgen.late_p99_ms"] = metric{finite(late / 1e6), "ms"}
	m["loadgen.blocked_share"] = metric{float64(d.blocked) / float64(int64(rg.senders)*(d.last-d.first)), "ratio"}
	m["teardown_s"] = metric{td.total().Seconds(), "s"}
}
