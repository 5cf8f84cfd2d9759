package rxnet

import (
	"context"
	"net"
	"testing"
	"time"

	"passivelight/internal/telemetry"
)

// collectChunks drains n chunk events with a deadline.
func collectChunks(t *testing.T, l *ChunkListener, n int) []ChunkEvent {
	t.Helper()
	var out []ChunkEvent
	deadline := time.After(5 * time.Second)
	for len(out) < n {
		select {
		case ev, ok := <-l.Chunks():
			if !ok {
				t.Fatalf("chunk channel closed after %d of %d events", len(out), n)
			}
			out = append(out, ev)
		case <-deadline:
			t.Fatalf("timed out after %d of %d events", len(out), n)
		}
	}
	return out
}

func TestChunkListenerDeliversAndResets(t *testing.T) {
	l, err := ListenChunks("127.0.0.1:0", t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	hello := Hello{NodeID: 7, PosX: 12.5, Height: 0.75, Name: "pole-7"}
	node, err := Dial(ctx, l.Addr(), hello)
	if err != nil {
		t.Fatal(err)
	}
	samples := make([]float64, 2048)
	for i := range samples {
		samples[i] = float64(i % 100)
	}
	if err := node.StreamChunk(3, 2000, samples[:1024]); err != nil {
		t.Fatal(err)
	}
	if err := node.StreamChunk(3, 2000, samples[1024:]); err != nil {
		t.Fatal(err)
	}
	evs := collectChunks(t, l, 2)
	wantKey := uint64(7)<<32 | 3
	total := 0
	for i, ev := range evs {
		if ev.Session != wantKey || ev.NodeID != 7 || ev.StreamID != 3 {
			t.Fatalf("event %d keyed (%d, %d, %d), want session %d", i, ev.Session, ev.NodeID, ev.StreamID, wantKey)
		}
		if ev.Fs != 2000 {
			t.Fatalf("event %d fs %g", i, ev.Fs)
		}
		if ev.Reset {
			t.Fatalf("contiguous chunk %d flagged as reset", i)
		}
		total += len(ev.Samples)
	}
	if total != len(samples) {
		t.Fatalf("delivered %d samples, want %d", total, len(samples))
	}

	// Hello surfaced on the side channel.
	select {
	case h := <-l.Hellos():
		if h.NodeID != 7 || h.Name != "pole-7" {
			t.Fatalf("hello %+v", h)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no hello surfaced")
	}
	node.Close()

	// A reconnecting node restarts its per-stream numbering: the
	// first chunk of the new connection must arrive flagged Reset so
	// the decode session cannot splice epochs. That holds whether the
	// restart is shorter than what the stream already delivered (it
	// falls inside the old cursor and must not pass for a duplicate) or
	// runs past it (a connection cut mid-stream, then a full resend).
	for _, n := range []int{512, len(samples)} {
		node2, err := Dial(ctx, l.Addr(), hello)
		if err != nil {
			t.Fatal(err)
		}
		if err := node2.StreamChunk(3, 2000, samples[:n]); err != nil {
			t.Fatal(err)
		}
		evs = collectChunks(t, l, 1)
		node2.Close()
		if !evs[0].Reset || len(evs[0].Samples) != n {
			t.Fatalf("restart of %d samples delivered %d samples, reset=%v; want a reset", n, len(evs[0].Samples), evs[0].Reset)
		}
	}
}

// TestChunkListenerDropOnFull locks in the bounded-ingest contract: a
// DropOnFull listener with a full queue discards chunks instead of
// blocking the connection reader, counts every discard, and records
// the ingest series in the attached registry.
func TestChunkListenerDropOnFull(t *testing.T) {
	reg := telemetry.NewRegistry()
	l, err := ListenChunksConfig("127.0.0.1:0", ChunkListenerConfig{
		Logf:       t.Logf,
		QueueDepth: 1,
		DropOnFull: true,
		Metrics:    reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	node, err := Dial(ctx, l.Addr(), Hello{NodeID: 4, Name: "pole-4"})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	const sent = 16
	samples := make([]float64, 256)
	for i := 0; i < sent; i++ {
		if err := node.StreamChunk(1, 2000, samples); err != nil {
			t.Fatal(err)
		}
	}

	// Nobody consumes Chunks: the first chunk fills the depth-1 queue
	// and the listener must drop the remaining sent-1 as it reads them.
	deadline := time.Now().Add(5 * time.Second)
	for l.DroppedChunks() < sent-1 {
		if time.Now().After(deadline) {
			t.Fatalf("dropped %d chunks, want %d", l.DroppedChunks(), sent-1)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got := l.DroppedChunks(); got != sent-1 {
		t.Fatalf("dropped %d chunks, want exactly %d", got, sent-1)
	}

	snap := reg.Snapshot()
	if got := snap.Counters["pl_rxnet_dropped_chunks_total"]; got != sent-1 {
		t.Fatalf("pl_rxnet_dropped_chunks_total = %d, want %d", got, sent-1)
	}
	if got := snap.Counters[`pl_rxnet_ingest_bytes_total{node="4"}`]; got <= 0 {
		t.Fatalf("pl_rxnet_ingest_bytes_total = %d, want > 0", got)
	}
	if got := snap.Gauges["pl_rxnet_queue_depth"]; got != 1 {
		t.Fatalf("pl_rxnet_queue_depth = %g, want 1 (queue full)", got)
	}

	// The queued chunk is still deliverable; the connection survived.
	evs := collectChunks(t, l, 1)
	if evs[0].NodeID != 4 || len(evs[0].Samples) != len(samples) {
		t.Fatalf("surviving chunk %+v", evs[0])
	}
}

// TestChunkListenerCloseDrainsQueued locks in the close accounting
// contract (delivered + dropped == received): closing the listener
// while chunks sit in the ingest queue must not strand them — the
// consumer can still drain the channel, and anything truly
// undeliverable is counted, never silently abandoned.
func TestChunkListenerCloseDrainsQueued(t *testing.T) {
	l, err := ListenChunksConfig("127.0.0.1:0", ChunkListenerConfig{
		Logf:       t.Logf,
		QueueDepth: 4,
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	node, err := Dial(ctx, l.Addr(), Hello{NodeID: 9, Name: "pole-9"})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	const sent = 16
	samples := make([]float64, 128)
	for i := 0; i < sent; i++ {
		if err := node.StreamChunk(1, 2000, samples); err != nil {
			t.Fatal(err)
		}
	}

	// Nobody consumes: the reader fills the queue (4) and blocks with
	// one chunk in hand. Wait for ingestion to stall there.
	deadline := time.Now().Add(5 * time.Second)
	for l.ReceivedChunks() < 5 {
		if time.Now().After(deadline) {
			t.Fatalf("received %d chunks, want at least 5", l.ReceivedChunks())
		}
		time.Sleep(2 * time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // let ingestion settle

	closeDone := make(chan error, 1)
	go func() { closeDone <- l.Close() }()

	var delivered int64
	for range l.Chunks() {
		delivered++
	}
	select {
	case err := <-closeDone:
		if err != nil {
			t.Fatalf("close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("close did not finish")
	}

	received, dropped := l.ReceivedChunks(), l.DroppedChunks()
	if delivered+dropped != received {
		t.Fatalf("delivered %d + dropped %d != received %d: chunks abandoned on close",
			delivered, dropped, received)
	}
	if delivered < 4 {
		t.Fatalf("only %d of the 4 queued chunks survived close", delivered)
	}
}

// TestNodeResumeStreamReconnect proves the lossless reconnect path: a
// node that saves its stream state, redials, and resumes continues
// the same session with no Reset — no duplicate, no gap — including
// when the resumed remainder is split across several wire chunks.
func TestNodeResumeStreamReconnect(t *testing.T) {
	l, err := ListenChunks("127.0.0.1:0", t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	hello := Hello{NodeID: 3, Name: "pole-3"}
	for i, tc := range []struct{ total, cut, chunks int }{
		{total: 300, cut: 200, chunks: 1},
		{total: 2*MaxChunkSamples + 200, cut: 100, chunks: 3},
	} {
		stream := uint32(5 + i)
		samples := make([]float64, tc.total)
		node, err := Dial(ctx, l.Addr(), hello)
		if err != nil {
			t.Fatal(err)
		}
		if err := node.StreamChunk(stream, 1000, samples[:tc.cut]); err != nil {
			t.Fatal(err)
		}
		first := collectChunks(t, l, 1) // cursor established before the reconnect
		seq, start := node.StreamState(stream)
		if seq != 1 || start != uint64(tc.cut) {
			t.Fatalf("stream state (%d, %d), want (1, %d)", seq, start, tc.cut)
		}
		node.Close()

		node2, err := Dial(ctx, l.Addr(), hello)
		if err != nil {
			t.Fatal(err)
		}
		node2.ResumeStream(stream, seq, start)
		if err := node2.StreamChunk(stream, 1000, samples[tc.cut:]); err != nil {
			t.Fatal(err)
		}
		got := 0
		for _, ev := range append(first, collectChunks(t, l, tc.chunks)...) {
			if ev.Reset {
				t.Fatalf("case %d: resumed stream flagged reset", i)
			}
			got += len(ev.Samples)
		}
		node2.Close()
		if got != tc.total {
			t.Fatalf("case %d: delivered %d samples across reconnect, want %d", i, got, tc.total)
		}
	}
}

// readFrameWithin reads one frame off a raw connection with a deadline.
func readFrameWithin(t *testing.T, c net.Conn, d time.Duration) (FrameType, []byte) {
	t.Helper()
	if err := c.SetReadDeadline(time.Now().Add(d)); err != nil {
		t.Fatal(err)
	}
	ft, body, err := ReadFrame(c)
	if err != nil {
		t.Fatalf("read frame: %v", err)
	}
	return ft, body
}

// TestChunkListenerDrainRefusesNewStreams covers the drain admission
// contract: draining notifies peers, NACKs new streams (replay from
// the beginning), keeps in-flight streams flowing, and announces the
// drain to late-connecting peers.
func TestChunkListenerDrainRefusesNewStreams(t *testing.T) {
	reg := telemetry.NewRegistry()
	l, err := ListenChunksConfig("127.0.0.1:0", ChunkListenerConfig{Logf: t.Logf, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	node, err := Dial(ctx, l.Addr(), Hello{NodeID: 1, Name: "pole-1"})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	samples := make([]float64, 64)
	if err := node.StreamChunk(1, 1000, samples); err != nil {
		t.Fatal(err)
	}
	collectChunks(t, l, 1) // stream (1,1) is now in flight

	l.Drain()
	l.Drain() // idempotent
	if !l.Draining() {
		t.Fatal("Draining() false after Drain")
	}
	ft, body := readFrameWithin(t, node.conn, 5*time.Second)
	if ft != FrameDrain {
		t.Fatalf("peer got frame %d after Drain, want FrameDrain", ft)
	}
	if d, err := UnmarshalDrain(body); err != nil || !d.Draining {
		t.Fatalf("drain notice %+v, %v", d, err)
	}

	// A NEW stream is refused with a replay-from-start NACK...
	if err := node.StreamChunk(2, 1000, samples); err != nil {
		t.Fatal(err)
	}
	ft, body = readFrameWithin(t, node.conn, 5*time.Second)
	if ft != FrameStreamNack {
		t.Fatalf("new stream got frame %d while draining, want FrameStreamNack", ft)
	}
	nack, err := UnmarshalStreamNack(body)
	if err != nil {
		t.Fatal(err)
	}
	if nack.Session != uint64(1)<<32|2 || nack.LastSeq != 0 {
		t.Fatalf("nack %+v, want session (1,2) lastSeq 0", nack)
	}
	// ...and its follow-up chunks are discarded without a second NACK.
	if err := node.StreamChunk(2, 1000, samples); err != nil {
		t.Fatal(err)
	}

	// The in-flight stream keeps flowing.
	if err := node.StreamChunk(1, 1000, samples); err != nil {
		t.Fatal(err)
	}
	evs := collectChunks(t, l, 1)
	if evs[0].StreamID != 1 || evs[0].Reset {
		t.Fatalf("in-flight stream event %+v during drain", evs[0])
	}

	deadline := time.Now().Add(5 * time.Second)
	for l.RefusedChunks() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("refused %d chunks, want 2", l.RefusedChunks())
		}
		time.Sleep(2 * time.Millisecond)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["pl_cluster_stream_nacks_sent_total"]; got != 1 {
		t.Fatalf("pl_cluster_stream_nacks_sent_total = %d, want 1", got)
	}
	if got := snap.Counters["pl_cluster_refused_chunks_total"]; got != 2 {
		t.Fatalf("pl_cluster_refused_chunks_total = %d, want 2", got)
	}

	// A peer connecting mid-drain is told immediately.
	late, err := Dial(ctx, l.Addr(), Hello{NodeID: 2, Name: "pole-2"})
	if err != nil {
		t.Fatal(err)
	}
	defer late.Close()
	if ft, _ := readFrameWithin(t, late.conn, 5*time.Second); ft != FrameDrain {
		t.Fatalf("late peer got frame %d, want FrameDrain", ft)
	}
}

// TestChunkListenerForceRedirectAndStreamEnd covers the two handoff
// primitives: ForceRedirect (engine evicts an in-flight stream — End
// event locally, NACK with the consumed Seq to the peer) and
// FrameStreamEnd (router orders a flush+release — End event locally).
func TestChunkListenerForceRedirectAndStreamEnd(t *testing.T) {
	l, err := ListenChunks("127.0.0.1:0", t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	node, err := Dial(ctx, l.Addr(), Hello{NodeID: 8, Name: "pole-8"})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	samples := make([]float64, 64)
	for i := 0; i < 3; i++ {
		if err := node.StreamChunk(1, 1000, samples); err != nil {
			t.Fatal(err)
		}
	}
	collectChunks(t, l, 3)

	session := uint64(8)<<32 | 1
	if !l.ForceRedirect(session) {
		t.Fatal("ForceRedirect did not know the in-flight stream")
	}
	if l.ForceRedirect(session) {
		t.Fatal("second ForceRedirect claims the stream is still here")
	}
	evs := collectChunks(t, l, 1)
	if !evs[0].End || evs[0].Session != session || len(evs[0].Samples) != 0 {
		t.Fatalf("redirect event %+v, want empty End for session %d", evs[0], session)
	}
	ft, body := readFrameWithin(t, node.conn, 5*time.Second)
	if ft != FrameStreamNack {
		t.Fatalf("redirect sent frame %d, want FrameStreamNack", ft)
	}
	nack, err := UnmarshalStreamNack(body)
	if err != nil {
		t.Fatal(err)
	}
	if nack.Session != session || nack.LastSeq != 3 {
		t.Fatalf("redirect nack %+v, want session %d lastSeq 3 (3 chunks consumed)", nack, session)
	}

	// A router-ordered StreamEnd also surfaces as an End event.
	endSession := uint64(8)<<32 | 9
	if err := WriteFrame(node.conn, FrameStreamEnd, MarshalStreamEnd(StreamEnd{Session: endSession})); err != nil {
		t.Fatal(err)
	}
	evs = collectChunks(t, l, 1)
	if !evs[0].End || evs[0].Session != endSession {
		t.Fatalf("stream-end event %+v, want End for session %d", evs[0], endSession)
	}

	// And a FrameDrainRequest surfaces on the DrainRequests channel.
	if err := WriteFrame(node.conn, FrameDrainRequest, nil); err != nil {
		t.Fatal(err)
	}
	select {
	case <-l.DrainRequests():
	case <-time.After(5 * time.Second):
		t.Fatal("drain request not surfaced")
	}
}

// TestChunkListenerShedCursorEndsSession drives admit past the real
// cursor-table bound: the stream whose cursor is shed to make room
// gets an End event, so its decode session cannot outlive the cursor
// and splice its next chunk on with continuity unchecked.
func TestChunkListenerShedCursorEndsSession(t *testing.T) {
	l, err := ListenChunks("127.0.0.1:0", t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	one := []float64{1}
	for sid := 0; sid < maxStreamCursors; sid++ {
		c := SampleChunk{NodeID: 1, StreamID: uint32(sid), Seq: 1, Fs: 1000, Samples: one}
		if accept, _, _, _, _, shed := l.admit(c, nil, false); !accept || shed {
			t.Fatalf("stream %d: accept=%v shed=%v below the bound", sid, accept, shed)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	node, err := Dial(ctx, l.Addr(), Hello{NodeID: 2, Name: "pole-2"})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	if err := node.StreamChunk(0, 1000, one); err != nil {
		t.Fatal(err)
	}
	evs := collectChunks(t, l, 2)
	if !evs[0].End || evs[0].NodeID != 1 {
		t.Fatalf("first event %+v, want the End of a shed node-1 stream", evs[0])
	}
	if evs[1].End || evs[1].NodeID != 2 || len(evs[1].Samples) != 1 {
		t.Fatalf("second event %+v, want node 2's chunk", evs[1])
	}
	if n := len(l.Sessions()); n != maxStreamCursors {
		t.Fatalf("%d cursors after shedding, want %d", n, maxStreamCursors)
	}
}
