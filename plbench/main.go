// Command plbench is the repository benchmark: it renders a seeded
// workload, drives the decode stack with it (in process, over loopback
// rxnet, or through a cluster router), checks every decoded event
// against a reference decode, and prints the end-to-end metrics — or,
// with -trace 1, the per-layer metrics — as one JSON line.
//
//	bash plbench/run.sh --workload lanes-direct --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// setupReps is how many times a run sets its workload up; setup_s is
// the median.
const setupReps = 3

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

func main() {
	var (
		name      = flag.String("workload", "", "workload name")
		seed      = flag.Int64("seed", 1, "workload seed")
		seconds   = flag.Int("seconds", 10, "timed phase length in seconds")
		traced    = flag.Int("trace", 0, "1 runs traced and prints the per-layer metrics")
		out       = flag.String("out", ".bench_build", "directory for span files")
		calibrate = flag.Bool("calibrate", false, "drive an open-loop workload's path closed-loop and print its rate")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traced == 1, *out, *calibrate); err != nil {
		fmt.Fprintln(os.Stderr, "plbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds int, traced bool, outDir string, calibrate bool) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	if seconds < 1 {
		return errors.New("-seconds must be at least 1")
	}
	nproc := runtime.NumCPU()
	senders := min(2, nproc)
	clk := newClock()

	// Set up several times; keep the last rig.
	var (
		setups   []float64
		rg       *rig
		renderNs int64
		rendered int64
	)
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		p, err := w.renderPool(seed)
		if err != nil {
			return err
		}
		r, err := w.start(clk, p, senders, traced)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		renderNs += p.renderNs
		rendered += p.samples
		if i < setupReps-1 {
			r.teardown()
			continue
		}
		rg = r
	}
	p := rg.pool
	fmt.Printf("workload %s seed %d: %d pool sessions, %d samples, %d reference events (%d mid-stream), %d packets\n",
		w.name, seed, len(p.sessions), p.samples, p.refs, p.midStream, p.packets)
	if calibrate {
		return rg.calibrate(seconds)
	}

	var sc *schedule
	if w.open {
		if sc, err = w.buildSchedule(p, seed, time.Duration(seconds)*time.Second, senders); err != nil {
			rg.teardown()
			return err
		}
		fmt.Printf("open loop: %d sessions arrive at %.0f samples/s (%g× stream clock, longest session %.1f s), %d samples due within %.1f s; at most %d sessions live at once\n",
			len(sc.insts), w.rate, w.pace, sc.longest.Seconds(), sc.samples, float64(sc.lastDue)/1e9, sc.peakLive)
	}

	// Timed phase.
	base := baselineHeap()
	var smp *layerSampler
	if traced {
		smp = startLayerSampler(rg, 10*time.Millisecond)
	}
	heap := startHeapSampler(5 * time.Millisecond)
	alloc0, cpu0 := totalAlloc(), cpuTime()
	var d *drive
	if w.open {
		d = rg.openLoop(sc, clk.now()+int64(20*time.Millisecond))
	} else {
		d = rg.closedLoop(true, clk.now()+int64(seconds)*int64(time.Second))
	}
	want := rg.expectedEvents(d.insts)
	complete := rg.log.await(want, clk.now()+int64(w.idle)+int64(10*time.Second))
	cpu1, alloc1 := cpuTime(), totalAlloc()
	peak := heap.finish()
	var layer *layerStats
	if traced {
		layer = smp.finish(rg)
	}
	td := rg.teardown()
	if d.err != nil {
		return fmt.Errorf("send: %w", d.err)
	}

	if err := rg.checkFanout(d); err != nil {
		return err
	}

	s := rg.score(d)
	lat := sortedCopy(s.latMs)
	p50, _ := percentile(lat, 0.50)
	p99, beyond := percentile(lat, 0.99)
	lateP99, _ := percentile(sortedCopy(d.late), 0.99)
	lateP99 /= 1e6
	// Open-loop latency runs from the due time, so a sender that fell
	// behind its schedule adds its lateness to the figures. The run is
	// valid while that lateness stays a small part of each reported
	// percentile: timed from the actual sends instead, neither moves
	// by more than shiftLimitMs of itself.
	sent := sortedCopy(s.sentLatMs)
	sent50, _ := percentile(sent, 0.50)
	sent99, _ := percentile(sent, 0.99)
	valid := !w.open || (p50-sent50 <= shiftLimitMs(p50) && p99-sent99 <= shiftLimitMs(p99))
	fmt.Printf("events: %d reference, %d matched, %d extra, complete %v; packets %d/%d; latency samples %d (%d beyond p99)\n",
		s.refs, s.matched, s.extra, complete, s.packetsOK, s.packets, len(lat), beyond)
	if beyond < minTail {
		fmt.Printf("warning: p99 has %d samples beyond it (want %d)\n", beyond, minTail)
	}
	fmt.Printf("teardown: nodes %v, router %v, source %v, pipeline drain %v\n", td.nodes, td.router, td.source, td.drain)
	gen, err := json.Marshal(map[string]any{"late_p99_ms": lateP99,
		"p50_shift_ms": p50 - sent50, "p50_shift_limit_ms": shiftLimitMs(p50),
		"p99_shift_ms": p99 - sent99, "p99_shift_limit_ms": shiftLimitMs(p99), "valid": valid,
		"nproc": nproc, "sender_goroutines": d.senders, "node_connections": len(rg.nodes)})
	if err != nil {
		return err
	}
	fmt.Printf("loadgen: %s\n", gen)

	res := result{
		Correct:   s.matched == s.refs && s.extra == 0 && valid && s.refs > 0,
		Attempted: s.refs + s.extra,
		Failed:    s.refs - s.matched + s.extra,
		Metrics:   map[string]metric{},
	}
	samples := float64(d.sent)
	wall := float64(s.lastEvent-d.first) / 1e9
	if !traced {
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		res.Metrics["samples_per_s"] = metric{samples / wall, "samples/s"}
		res.Metrics["detect_latency_p50_ms"] = metric{p50, "ms"}
		res.Metrics["detect_latency_p99_ms"] = metric{p99, "ms"}
		res.Metrics["packets_ok_ratio"] = metric{ratio(s.packetsOK, s.packets), "ratio"}
		res.Metrics["decode_match_ratio"] = metric{ratio(s.matched, s.refs), "ratio"}
		res.Metrics["cpu_ns_per_sample"] = metric{float64(cpu1-cpu0) / samples, "ns/sample"}
		res.Metrics["alloc_bytes_per_sample"] = metric{float64(alloc1-alloc0) / samples, "B/sample"}
		res.Metrics["heap_peak_mb"] = metric{float64(int64(peak)-int64(base)) / 1e6, "MB"}
	} else {
		tracers := append(d.tracers, rg.log.tr, rg.tsrc.tr)
		lad, err := runLadder(w, rg, clk, senders)
		if err != nil {
			return fmt.Errorf("ladder: %w", err)
		}
		tracers = append(tracers, lad.tracers...)
		nspans, err := writeSpans(filepath.Join(outDir, "spans-"+w.name+".csv"), tracers)
		if err != nil {
			return err
		}
		printSelfTimes(tracers[:len(d.tracers)+2], samples)
		m := res.Metrics
		m["scenario.render_ns_per_sample"] = metric{float64(renderNs) / float64(rendered), "ns/sample"}
		layer.fill(m, rg, d, lad, td)
		m["trace.spans"] = metric{float64(nspans), "count"}
		m["trace.cpu_ns_per_sample"] = metric{float64(cpu1-cpu0) / samples, "ns/sample"}
		m["trace.samples_per_s"] = metric{samples / wall, "samples/s"}
		m["trace.latency_p50_ms"] = metric{p50, "ms"}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// shiftLimitMs is the most an open loop's generator may move a
// reported latency percentile that reads ms, by sending late: a tenth
// of it, and never less than shiftFloorMs.
func shiftLimitMs(ms float64) float64 {
	return max(shiftFloorMs, ms/10)
}

const shiftFloorMs = 5

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// printSelfTimes prints the timed phase's self time per layer, per
// sample sent.
func printSelfTimes(tracers []*tracer, samples float64) {
	self := layerSelf(tracers)
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	fmt.Println("self time per layer (timed phase, ns per sample sent):")
	for _, l := range layers {
		fmt.Printf("  %-10s %10.2f\n", l, float64(self[l])/samples)
	}
}

// finite maps NaN (no samples) to 0 for the JSON line.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
