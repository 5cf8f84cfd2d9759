package stream

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"passivelight/internal/decoder"
)

// epochEnd is one OnSessionEnd callback.
type epochEnd struct {
	samples int64
	reason  string
}

// detKey is the part of a detection the model compares.
type detKey struct {
	bits       string
	start, end int64
	failed     bool
}

func keyOf(d Detection) detKey {
	return detKey{d.BitString(), d.Start, d.End, d.Err != nil}
}

// TestEngineModel checks the engine against a model of standalone
// Decoders. Seeded random sequences of Feed, FlushSession, FlushAll,
// EndSession and idle gaps (so the janitor evicts) run on 2 shards and
// end with Close. Each session id's stream splits into epochs at the
// sample counts its OnSessionEnd callbacks report. A fresh Decoder per
// epoch, fed that epoch's samples with Flush at the positions where the
// engine flushed, must yield the same detections as the engine. With
// one worker per shard, the releases of one id reach the hook in epoch
// order.
func TestEngineModel(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { runEngineModel(t, seed) })
	}
}

func runEngineModel(t *testing.T, seed int64) {
	const (
		ids  = 4
		ops  = 160
		idle = 20 * time.Millisecond
	)
	cfg := Config{Fs: 1000, Decode: decoder.Options{ExpectedSymbols: 12}}
	var mu sync.Mutex
	releases := make(map[uint64][]epochEnd)
	e, err := NewEngine(EngineConfig{
		Session:      cfg,
		Workers:      2,
		Shards:       2,
		QueueSamples: 1 << 15, // above any source length: nothing can drop
		IdleTimeout:  idle,
		OnSessionEnd: func(id uint64, st SessionStats, reason string) {
			mu.Lock()
			releases[id] = append(releases[id], epochEnd{st.Samples, reason})
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[uint64][]detKey)
	collected := make(chan struct{})
	go func() {
		defer close(collected)
		for batch := range e.Batches() {
			for _, d := range batch {
				got[d.Session] = append(got[d.Session], keyOf(d))
			}
			RecycleBatch(batch)
		}
	}()

	rng := rand.New(rand.NewSource(seed))
	payloads := []string{"1001", "0110", "1100", "0011"}
	src := make([][]float64, ids)
	for i := range src {
		src[i] = sessionStream(payloads, 1000, 0.05, 2.0, 0.3, seed*10+int64(i))
	}
	fed := make([]int, ids)       // samples fed per id, across epochs
	flushes := make([][]int, ids) // stream positions the engine flushed at
	ends := make([]int, ids)      // successful EndSession calls per id
	for n := 0; n < ops; n++ {
		id := rng.Intn(ids)
		switch op := rng.Intn(20); {
		case op < 12:
			if fed[id] == len(src[id]) {
				continue
			}
			hi := min(fed[id]+50+rng.Intn(750), len(src[id]))
			if err := e.Feed(uint64(id), 0, src[id][fed[id]:hi]); err != nil {
				t.Fatal(err)
			}
			fed[id] = hi
		case op < 15:
			// A session the janitor just evicted is not flushed; the
			// flush would have fallen on its epoch end anyway.
			if err := e.FlushSession(uint64(id)); err == nil {
				flushes[id] = append(flushes[id], fed[id])
			} else if !errors.Is(err, ErrSessionEvicted) {
				t.Fatal(err)
			}
		case op < 16:
			// Sessions FlushAll misses were not registered, so their
			// recorded position is an epoch end, where a flush before
			// the final one decodes nothing.
			e.FlushAll()
			for i := range flushes {
				flushes[i] = append(flushes[i], fed[i])
			}
		case op < 18:
			if err := e.EndSession(uint64(id)); err == nil {
				ends[id]++
			} else if !errors.Is(err, ErrSessionEvicted) {
				t.Fatal(err)
			}
		default:
			time.Sleep(2 * idle)
		}
	}
	e.Close()
	<-collected

	st := e.Stats()
	if st.DroppedSamples != 0 || st.DroppedDetections != 0 {
		t.Fatalf("dropped %d samples, %d detections", st.DroppedSamples, st.DroppedDetections)
	}
	if st.Sessions != 0 {
		t.Fatalf("%d sessions left after Close", st.Sessions)
	}
	var idles int64
	for id := 0; id < ids; id++ {
		rel := releases[uint64(id)]
		var want []detKey
		pos, endCalls := 0, 0
		for _, r := range rel {
			if r.samples <= 0 {
				t.Fatalf("session %d released an epoch of %d samples: %v", id, r.samples, rel)
			}
			switch r.reason {
			case "end":
				endCalls++
			case "idle":
				idles++
			}
			lo, hi := pos, pos+int(r.samples)
			if hi > fed[id] {
				t.Fatalf("session %d releases cover %d samples, fed %d: %v", id, hi, fed[id], rel)
			}
			want = append(want, modelEpoch(t, cfg, src[id][lo:hi], lo, flushes[id])...)
			pos = hi
		}
		if pos != fed[id] {
			t.Fatalf("session %d releases cover %d samples, fed %d: %v", id, pos, fed[id], rel)
		}
		if endCalls != ends[id] {
			t.Fatalf("session %d: %d \"end\" releases for %d EndSession calls", id, endCalls, ends[id])
		}
		if a, b := sortKeys(got[uint64(id)]), sortKeys(want); fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("session %d (%d epochs):\n engine %v\n model  %v", id, len(rel), a, b)
		}
	}
	if st.Evicted != idles {
		t.Fatalf("Stats.Evicted %d, \"idle\" releases %d", st.Evicted, idles)
	}
	t.Logf("%d detections, %d idle evictions", st.Detections+st.DecodeErrors, idles)
}

// modelEpoch decodes one epoch (stream positions [base, base+len))
// with a fresh Decoder, flushing at every recorded position inside it
// and once more at its end.
func modelEpoch(t *testing.T, cfg Config, samples []float64, base int, flushAt []int) []detKey {
	d, err := NewDecoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out []detKey
	take := func(dets []Detection) {
		for _, det := range dets {
			out = append(out, keyOf(det))
		}
	}
	at := 0
	for _, p := range flushAt {
		if p <= base || p > base+len(samples) {
			continue
		}
		take(d.Feed(samples[at : p-base]))
		at = p - base
		take(d.Flush())
	}
	take(d.Feed(samples[at:]))
	take(d.Flush())
	return out
}

func sortKeys(keys []detKey) []detKey {
	out := append([]detKey(nil), keys...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].start != out[j].start {
			return out[i].start < out[j].start
		}
		if out[i].end != out[j].end {
			return out[i].end < out[j].end
		}
		return out[i].bits < out[j].bits
	})
	return out
}

// TestEngineCloseReleasesWaiters freezes one shard's worker inside
// OnSessionEnd, queues FlushAll, EndSession, FlushSession and an
// oversized Feed behind it, and then closes the engine. Every call
// must return within 1 s of Close starting, and every session must be
// released exactly once.
func TestEngineCloseReleasesWaiters(t *testing.T) {
	gate := make(chan struct{})
	entered := make(chan struct{})
	var mu sync.Mutex
	reasons := make(map[uint64][]string)
	var gateID uint64
	e, err := NewEngine(EngineConfig{
		Session:      Config{Fs: 1000},
		Workers:      2,
		Shards:       2,
		QueueSamples: 1024,
		IdleTimeout:  -1,
		OnSessionEnd: func(id uint64, _ SessionStats, reason string) {
			mu.Lock()
			reasons[id] = append(reasons[id], reason)
			mu.Unlock()
			if id == gateID {
				close(entered)
				<-gate
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for batch := range e.Batches() {
			RecycleBatch(batch)
		}
	}()
	// Five ids on one shard: the gate, one per waiting call, and one
	// more for FlushAll; two on the other shard.
	var frozen, other []uint64
	for id := uint64(1); len(frozen) < 5 || len(other) < 2; id++ {
		if e.shardOf(id) == e.shards[0] {
			frozen = append(frozen, id)
		} else {
			other = append(other, id)
		}
	}
	other = other[:2]
	gateID = frozen[0]
	endID, flushID, feedID := frozen[1], frozen[2], frozen[3]
	chunk := sessionStream([]string{"10"}, 1000, 0.2, 0.5, 0.3, 3)[:200]
	for _, id := range append(frozen[:5:5], other...) {
		if err := e.Feed(id, 0, chunk); err != nil {
			t.Fatal(err)
		}
	}
	go e.EndSession(gateID)
	<-entered // shard 0's worker now sits in the hook

	type result struct {
		name string
		err  error
	}
	done := make(chan result, 4)
	go func() { e.FlushAll(); done <- result{"FlushAll", nil} }()
	go func() { done <- result{"EndSession", e.EndSession(endID)} }()
	go func() { done <- result{"FlushSession", e.FlushSession(flushID)} }()
	go func() {
		// The ring holds 200 samples, so the first 1024-sample
		// sub-chunk waits for ring space the frozen worker never frees.
		done <- result{"oversized Feed", e.Feed(feedID, 0, make([]float64, 8*1024))}
	}()
	time.Sleep(20 * time.Millisecond)
	select {
	case r := <-done:
		t.Fatalf("%s returned (%v) while its shard was frozen", r.name, r.err)
	default:
	}

	start := time.Now()
	closed := make(chan struct{})
	go func() { e.Close(); close(closed) }()
	// Open the gate only once Close has stopped the shard, so the
	// frozen calls are left for Close to serve.
	for sh := e.shards[0]; ; time.Sleep(time.Millisecond) {
		sh.mu.Lock()
		stopped := sh.stopped
		sh.mu.Unlock()
		if stopped {
			break
		}
	}
	close(gate)
	deadline := time.After(time.Second - time.Since(start))
	for i := 0; i < 4; i++ {
		select {
		case r := <-done:
			if r.err != nil && !errors.Is(r.err, ErrEngineClosed) {
				t.Fatalf("%s: %v", r.name, r.err)
			}
		case <-deadline:
			t.Fatalf("only %d of 4 waiting calls returned within 1 s of Close", i)
		}
	}
	select {
	case <-closed:
	case <-deadline:
		t.Fatal("Close did not return within 1 s")
	}

	mu.Lock()
	defer mu.Unlock()
	want := map[uint64]string{gateID: "end", endID: "end", flushID: "close", feedID: "close", frozen[4]: "close", other[0]: "close", other[1]: "close"}
	for id, reason := range want {
		if got := reasons[id]; len(got) != 1 || got[0] != reason {
			t.Fatalf("session %d released %v, want once with %q", id, got, reason)
		}
	}
	if len(reasons) != len(want) {
		t.Fatalf("released %d sessions, want %d: %v", len(reasons), len(want), reasons)
	}
}
