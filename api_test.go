package passivelight

import (
	"testing"
)

func TestQuickstartEndToEnd(t *testing.T) {
	bench := IndoorBench{
		Height:      0.20,
		SymbolWidth: 0.03,
		Speed:       0.08,
		Payload:     "10",
		Seed:        42,
	}
	link, packet, err := bench.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunEndToEnd(link, packet, DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success {
		t.Fatalf("decoded %s", res.Decode.SymbolString())
	}
	if res.Decode.Packet.BitString() != "10" {
		t.Fatalf("payload %q", res.Decode.Packet.BitString())
	}
}

func TestFacadePacketHelpers(t *testing.T) {
	p, err := NewPacket("0110")
	if err != nil {
		t.Fatal(err)
	}
	if p.SymbolString() != "HLHL.HLLHLHHL" {
		t.Fatalf("symbol string %q", p.SymbolString())
	}
	if MustPacket("1").BitString() != "1" {
		t.Fatal("MustPacket")
	}
	if _, err := NewPacket("abc"); err == nil {
		t.Fatal("invalid payload should fail")
	}
}

func TestFacadeCodebook(t *testing.T) {
	cb, err := NewCodebook(6, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if cb.Len() != 4 {
		t.Fatalf("codebook size %d", cb.Len())
	}
	w, err := cb.Encode(2)
	if err != nil {
		t.Fatal(err)
	}
	idx, dist := cb.Decode(w)
	if idx != 2 || dist != 0 {
		t.Fatalf("decode %d (dist %d)", idx, dist)
	}
}

func TestFacadeReceiverSelection(t *testing.T) {
	dev, err := SelectReceiver(6200)
	if err != nil {
		t.Fatal(err)
	}
	if dev.Name != "rx-led" {
		t.Fatalf("6200 lux -> %s", dev.Name)
	}
	pd := PDReceiver(GainG1)
	if pd.SaturationLux != 450 {
		t.Fatalf("pd-g1 saturation %v", pd.SaturationLux)
	}
	led := RXLEDReceiver()
	if led.SaturationLux != 35000 {
		t.Fatalf("rx-led saturation %v", led.SaturationLux)
	}
}

func TestFacadeOutdoorCarPass(t *testing.T) {
	pass := OutdoorCarPass{
		Payload:        "00",
		NoiseFloorLux:  6200,
		ReceiverHeight: 0.75,
		Seed:           5,
	}
	link, packet, err := pass.Build()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := link.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	two, err := DecodeCarPass(tr, DecodeOptions{ExpectedSymbols: 8})
	if err != nil {
		t.Fatal(err)
	}
	if two.Decode.Packet.BitString() != packet.BitString() {
		t.Fatalf("decoded %q, want %q", two.Decode.Packet.BitString(), packet.BitString())
	}
}

func TestFacadeStreaming(t *testing.T) {
	bench := IndoorBench{
		Height:      0.20,
		SymbolWidth: 0.03,
		Speed:       0.08,
		Payload:     "10",
		Seed:        42,
	}
	link, packet, err := bench.Build()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := link.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewStreamDecoder(StreamConfig{Fs: tr.Fs, Decode: DecodeOptions{ExpectedSymbols: 8}})
	if err != nil {
		t.Fatal(err)
	}
	var dets []StreamDetection
	for chunk := range tr.Chunks(500) {
		dets = append(dets, dec.Feed(chunk)...)
	}
	dets = append(dets, dec.Flush()...)
	var got []string
	for _, d := range dets {
		if d.Err == nil {
			got = append(got, d.BitString())
		}
	}
	if len(got) != 1 || got[0] != packet.BitString() {
		t.Fatalf("streamed decode %v, want [%s]", got, packet.BitString())
	}

	eng, err := NewStreamEngine(StreamEngineConfig{Session: StreamConfig{Fs: tr.Fs, Decode: DecodeOptions{ExpectedSymbols: 8}}})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.Feed(1, 0, tr.Samples); err != nil {
		t.Fatal(err)
	}
	if err := eng.FlushSession(1); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.Sessions != 1 || st.SamplesIn != int64(tr.Len()) || st.Detections != 1 {
		t.Fatalf("engine stats %+v", st)
	}
	det := (<-eng.Batches())[0]
	if det.Err != nil || det.BitString() != packet.BitString() {
		t.Fatalf("engine detection %q (err %v)", det.BitString(), det.Err)
	}
}

func TestFacadeCollisionAnalysis(t *testing.T) {
	// Re-decode a trace through the facade collision API.
	pass := OutdoorCarPass{Payload: "00", NoiseFloorLux: 6200, ReceiverHeight: 0.75, Seed: 5}
	link, _, err := pass.Build()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := link.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := AnalyzeCollision(tr, CollisionOptions{MaxFreq: 100})
	if err != nil {
		t.Fatal(err)
	}
	// A single packet: one dominant symbol-rate region.
	if rep.DominantFreq <= 0 {
		t.Fatal("no dominant frequency found")
	}
}
