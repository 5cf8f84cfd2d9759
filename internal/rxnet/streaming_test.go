package rxnet_test

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"passivelight"
	"passivelight/internal/rxnet"
)

// packetStream synthesizes one quiet-packet-quiet observation sampled
// at fs, with symbolDur seconds per symbol and gapSec of quiet on each
// side.
func packetStream(payload string, fs, symbolDur, gapSec float64, seed int64) []float64 {
	const high, low, baseline = 90.0, 12.0, 10.0
	rng := rand.New(rand.NewSource(seed))
	var out []float64
	quiet := func(n int) {
		for i := 0; i < n; i++ {
			out = append(out, baseline+0.3*rng.NormFloat64())
		}
	}
	quiet(int(gapSec * fs))
	for _, s := range passivelight.MustPacket(payload).Symbols() {
		level := low
		if s == passivelight.High {
			level = high
		}
		for i := 0; i < int(symbolDur*fs); i++ {
			out = append(out, level+0.3*rng.NormFloat64())
		}
	}
	quiet(int(gapSec * fs))
	return out
}

// streamDecoder is the server side of raw-sample streaming as
// plnet -mode stream runs it: a ChunkListener-backed NetSource feeding
// a streaming Pipeline. It records every successful decode.
type streamDecoder struct {
	addr string
	pipe *passivelight.Pipeline

	mu      sync.Mutex
	decoded []passivelight.Event
}

func startStreamDecoder(t *testing.T, symbols int) *streamDecoder {
	t.Helper()
	src, err := passivelight.ListenSource("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	d := &streamDecoder{addr: src.Addr()}
	d.pipe, err = passivelight.NewPipeline(src, passivelight.Threshold(),
		passivelight.WithExpectedSymbols(symbols),
		passivelight.WithSink(func(ev passivelight.Event) {
			if ev.Err != nil {
				t.Logf("session %d segment [%d,%d): %v", ev.Session, ev.Start, ev.End, ev.Err)
				return
			}
			d.mu.Lock()
			d.decoded = append(d.decoded, ev)
			d.mu.Unlock()
		}),
	)
	if err != nil {
		src.Close()
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	events, err := d.pipe.Stream(ctx)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	drained := make(chan struct{})
	go func() {
		for range events { // the sink does the work
		}
		close(drained)
	}()
	// Stop the pipeline before the test returns, so its sink never
	// runs against a finished test.
	t.Cleanup(func() {
		cancel()
		<-drained
	})
	return d
}

// waitIngest blocks until the pipeline has taken in want samples.
func (d *streamDecoder) waitIngest(t *testing.T, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for d.pipe.Stats().SamplesIn < want {
		if time.Now().After(deadline) {
			t.Fatalf("ingested %d, want %d", d.pipe.Stats().SamplesIn, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitDecoded flushes open segments and blocks until payload has been
// decoded, returning the first event that carries it.
func (d *streamDecoder) waitDecoded(t *testing.T, payload string) passivelight.Event {
	t.Helper()
	d.pipe.Flush()
	deadline := time.Now().Add(10 * time.Second)
	for {
		d.mu.Lock()
		got := append([]passivelight.Event(nil), d.decoded...)
		d.mu.Unlock()
		var bits []string
		for _, ev := range got {
			if ev.BitString() == payload {
				return ev
			}
			bits = append(bits, ev.BitString())
		}
		if time.Now().After(deadline) {
			t.Fatalf("payload %s not decoded; decoded %q", payload, bits)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStreamingReconnectResetsSession: a node whose connection dies
// mid-packet redials and resends its stream from the start. The
// restart reaches the decoder as a session reset, so the full resend
// decodes instead of being spliced onto two-thirds of a packet.
func TestStreamingReconnectResetsSession(t *testing.T) {
	const payload = "10"
	d := startStreamDecoder(t, 4+2*len(payload))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	samples := packetStream(payload, 1000, 0.2, 1.5, 4)
	const gap = 1500                    // 1.5 s of quiet at 1 kHz on each side
	cut := gap + (len(samples)-2*gap)/2 // the middle of the packet
	connect := func() *rxnet.Node {
		n, err := rxnet.Dial(ctx, d.addr, rxnet.Hello{NodeID: 9, Name: "pole"})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	// First connection dies mid-packet.
	n1 := connect()
	if err := n1.StreamChunk(0, 1000, samples[:cut]); err != nil {
		t.Fatal(err)
	}
	n1.Close()
	d.waitIngest(t, int64(cut))
	// Reconnect and replay the whole stream from the start. Nothing of
	// the resend may pass for a duplicate of the first connection.
	n2 := connect()
	if err := n2.StreamChunk(0, 1000, samples); err != nil {
		t.Fatal(err)
	}
	n2.Close()
	d.waitIngest(t, int64(cut+len(samples)))
	// The restart began a fresh decode session: the packet's offsets
	// count from the resend's first sample, not from the cut prefix.
	if ev := d.waitDecoded(t, payload); ev.End > int64(len(samples)) {
		t.Fatalf("packet decoded at [%d,%d), past the %d-sample resend: the restart was spliced onto the cut prefix",
			ev.Start, ev.End, len(samples))
	}
}

// TestStreamingReconnectResumesSession is the lossless counterpart of
// the reset test: a node that saves its stream state and resumes after
// redialing continues the SAME decode session — the packet cut by the
// connection loss still decodes, no sample is duplicated and none is
// lost.
func TestStreamingReconnectResumesSession(t *testing.T) {
	const payload = "10"
	d := startStreamDecoder(t, 4+2*len(payload))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	samples := packetStream(payload, 1000, 0.2, 1.5, 4)
	const gap = 1500                    // 1.5 s of quiet at 1 kHz on each side
	cut := gap + (len(samples)-2*gap)/2 // the middle of the packet

	n1, err := rxnet.Dial(ctx, d.addr, rxnet.Hello{NodeID: 9, Name: "pole"})
	if err != nil {
		t.Fatal(err)
	}
	if err := n1.StreamChunk(0, 1000, samples[:cut]); err != nil {
		t.Fatal(err)
	}
	seq, start := n1.StreamState(0)
	n1.Close()
	d.waitIngest(t, int64(cut))

	n2, err := rxnet.Dial(ctx, d.addr, rxnet.Hello{NodeID: 9, Name: "pole"})
	if err != nil {
		t.Fatal(err)
	}
	n2.ResumeStream(0, seq, start)
	if err := n2.StreamChunk(0, 1000, samples[cut:]); err != nil {
		t.Fatal(err)
	}
	n2.Close()
	d.waitIngest(t, int64(len(samples)))
	d.waitDecoded(t, payload)
	// Exactly the stream's samples were fed: a duplicate (full replay)
	// would show cut+len, a gap fewer.
	if got := d.pipe.Stats().SamplesIn; got != int64(len(samples)) {
		t.Fatalf("pipeline saw %d samples, want exactly %d", got, len(samples))
	}
}
