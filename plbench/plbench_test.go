package main

import (
	"reflect"
	"testing"
	"time"
)

func TestPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, n := range []int{999, 1000, 2500} {
		sorted := make([]float64, n)
		for i := range sorted {
			sorted[i] = float64(i + 1)
		}
		v, beyond := percentile(sorted, 0.99)
		wantRank := (99*n + 99) / 100 // ceil(0.99 n)
		if v != float64(wantRank) || beyond != n-wantRank {
			t.Errorf("n=%d: p99 = %v with %d beyond, want %d with %d", n, v, beyond, wantRank, n-wantRank)
		}
		// 1000 samples is the fewest that leave minTail beyond p99.
		if enough := beyond >= minTail; enough != (n >= 1000) {
			t.Errorf("n=%d: %d samples beyond p99", n, beyond)
		}
	}
	if v, _ := percentile([]float64{7}, 0.99); v != 7 {
		t.Errorf("single sample p99 = %v", v)
	}
	if v, _ := percentile([]float64{1, 2, 3, 4}, 0.5); v != 2 {
		t.Errorf("p50 of 1..4 = %v, want 2 (nearest rank)", v)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestLatencyAnchors(t *testing.T) {
	ses := &session{fs: 1000, samples: make([]float64, 2500)}
	for lo := 0; lo < 2500; lo += 1000 {
		ses.chunks = append(ses.chunks, ses.samples[lo:min(lo+1000, 2500)])
	}
	mid := refEvent{emit: 1}
	atFlush := refEvent{emit: len(ses.chunks)}

	// Closed loop: hand-off times, the session's end (the last hand-off
	// plus the idle timeout) last.
	closed := &rig{w: &workload{chunk: 1000}}
	in := &instance{handoff: []int64{100, 200, 300, 450}}
	if got := closed.anchor(nil, in, ses, mid); got != 200 {
		t.Errorf("closed mid-stream anchor = %d, want 200 (chunk 1 hand-off)", got)
	}
	if got := closed.anchor(nil, in, ses, atFlush); got != 450 {
		t.Errorf("closed flush anchor = %d, want 450 (session end)", got)
	}

	// Open loop: due times; chunk j is due when its last sample is
	// acquired on a stream clock running pace times real time.
	open := &rig{w: &workload{chunk: 1000, open: true, pace: 2, idle: 200 * time.Millisecond}}
	d := &drive{origin: 1_000_000_000}
	in = &instance{arrival: 500_000_000}
	// Chunk 1 ends at sample 2000: 2 s of stream at 2x = 1 s after arrival.
	if got, want := open.anchor(d, in, ses, mid), int64(2_500_000_000); got != want {
		t.Errorf("open mid-stream anchor = %d, want %d", got, want)
	}
	// The last chunk ends at sample 2500 (1.25 s after arrival); the
	// session then ends after the 200 ms idle timeout.
	if got, want := open.anchor(d, in, ses, atFlush), int64(2_950_000_000); got != want {
		t.Errorf("open flush anchor = %d, want %d", got, want)
	}

	// Timed from the actual sends, an open loop's anchor is the
	// anchoring chunk's send time, or the last send plus the idle
	// timeout for an event emitted at Flush.
	in.handoff = []int64{1_500_000_100, 2_500_000_300, 2_750_004_000, 2_950_004_000}
	if got := sentAnchor(in, ses, mid); got != 2_500_000_300 {
		t.Errorf("open mid-stream sent anchor = %d, want 2500000300 (chunk 1 sent)", got)
	}
	if got := sentAnchor(in, ses, atFlush); got != 2_950_004_000 {
		t.Errorf("open flush sent anchor = %d, want 2950004000", got)
	}
}

func TestScheduleIsDeterministic(t *testing.T) {
	w := &workload{chunk: 128, rate: 1e6, pace: 16}
	p := &pool{}
	for _, n := range []int{9000, 20000, 31000} {
		ses := &session{fs: 1000, samples: make([]float64, n)}
		for lo := 0; lo < n; lo += w.chunk {
			ses.chunks = append(ses.chunks, ses.samples[lo:min(lo+w.chunk, n)])
		}
		p.sessions = append(p.sessions, ses)
		p.samples += int64(n)
	}
	window := 10 * time.Second
	build := func(seed int64) *schedule {
		sc, err := w.buildSchedule(p, seed, window, 2)
		if err != nil {
			t.Fatal(err)
		}
		return sc
	}
	a, b := build(7), build(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed built different schedules")
	}
	if c := build(8); reflect.DeepEqual(a.insts, c.insts) {
		t.Fatal("different seeds built the same arrivals")
	}
	// The 31 s session lasts 1.94 s at 16x; at 4x (7.75 s) it would
	// take more than half the window.
	if a.longest != 31000*time.Second/16000 {
		t.Errorf("longest session %v", a.longest)
	}
	slow := *w
	slow.pace = 4
	if _, err := slow.buildSchedule(p, 7, window, 2); err == nil {
		t.Error("a session longer than half the window was scheduled")
	}
	if len(a.insts) < 100 {
		t.Fatalf("only %d sessions offered", len(a.insts))
	}
	var sends int
	for s, items := range a.items {
		for i, it := range items {
			if int(it.inst)%2 != s {
				t.Fatalf("instance %d on sender %d", it.inst, s)
			}
			if i > 0 && it.due < items[i-1].due {
				t.Fatalf("sender %d sends out of due order at %d", s, i)
			}
			if it.due > int64(window) {
				t.Fatalf("send due at %v, after the window", time.Duration(it.due))
			}
		}
		sends += len(items)
	}
	var chunks int
	for _, in := range a.insts {
		chunks += len(p.sessions[in.pool].chunks)
	}
	if sends != chunks {
		t.Fatalf("%d sends scheduled for %d chunks", sends, chunks)
	}
	// Offered rate over the arrival span is near the configured rate.
	span := float64(a.insts[len(a.insts)-1].arrival) / 1e9
	if got := float64(a.samples) / span; got < 0.7*w.rate || got > 1.3*w.rate {
		t.Errorf("offered %.0f samples/s, want about %.0f", got, w.rate)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{start: 0, end: 100, parent: -1},   // 0: root
		{start: 10, end: 30, parent: 0},    // 1
		{start: 20, end: 40, parent: 0},    // 2: overlaps 1
		{start: 90, end: 120, parent: 0},   // 3: runs past the root
		{start: 12, end: 18, parent: 1},    // 4: grandchild
		{start: 200, end: 250, parent: -1}, // 5: another root
	}
	want := []int64{100 - 30 - 10, 20 - 6, 20, 30, 6, 50}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("self times = %v, want %v", got, want)
	}
	spans[0].layer, spans[5].layer = "a", "a"
	for i := 1; i < 5; i++ {
		spans[i].layer = "b"
	}
	got := layerSelf([]*tracer{{spans: spans}, nil})
	if got["a"] != 60+50 || got["b"] != 14+20+30+6 {
		t.Fatalf("layer self = %v", got)
	}
}

func TestScoreCountsEveryMismatch(t *testing.T) {
	ses := &session{fs: 1000, samples: make([]float64, 10), payloads: []string{"10", "00"},
		ref: []refEvent{{bits: "10", start: 1, end: 5}, {bits: "00", start: 6, end: 9}}}
	ses.chunks = [][]float64{ses.samples}
	r := &rig{w: &workload{}, pool: &pool{sessions: []*session{ses}}, log: &eventLog{}}
	d := &drive{insts: []*instance{{handoff: []int64{10, 20}}, {handoff: []int64{10, 20}}}}
	r.log.recs = []eventRec{
		{key: 1, t: 30, bits: "10", start: 1, end: 5}, // match
		{key: 1, t: 30, bits: "01", start: 6, end: 9}, // differs: extra, and "00" missing
		{key: 2, t: 40, bits: "10", start: 1, end: 5}, // match
		{key: 2, t: 40, bits: "00", start: 6, end: 9}, // match
		{key: 2, t: 40, bits: "00", start: 6, end: 9}, // duplicate: extra
		{key: 9, t: 40, bits: "00", start: 6, end: 9}, // unknown session: extra
	}
	sc := r.score(d)
	if sc.refs != 4 || sc.matched != 3 || sc.extra != 3 {
		t.Fatalf("refs %d matched %d extra %d, want 4 3 3", sc.refs, sc.matched, sc.extra)
	}
	if sc.packets != 4 || sc.packetsOK != 3 {
		t.Fatalf("packets %d ok %d, want 4 3", sc.packets, sc.packetsOK)
	}
	if !reflect.DeepEqual(sc.latMs, []float64{20e-6, 30e-6, 30e-6}) {
		t.Fatalf("latencies %v", sc.latMs)
	}
}

func TestPeakOverlap(t *testing.T) {
	// [0,10) [5,15) [10,20) [12,13): at 12 three are open; an interval
	// ending at 10 is closed when the next starts at 10.
	if got := peakOverlap([]int64{10, 0, 12, 5}, []int64{20, 10, 13, 15}); got != 3 {
		t.Fatalf("peak = %d, want 3", got)
	}
	if got := peakOverlap(nil, nil); got != 0 {
		t.Fatalf("empty peak = %d", got)
	}
}
