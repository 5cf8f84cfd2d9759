package rxnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
)

// This file is the zero-copy half of the wire protocol: a reusable
// frame read buffer (one allocation per connection instead of one per
// frame) and a reference-counted pooled sample buffer, so the path
// from the wire into a session ring buffer costs exactly one copy
// (decode into the pooled buffer) instead of three (frame body,
// samples, ring).

// frameReader reads frames from one connection into a single growing
// buffer. The body returned by next is valid only until the following
// next call — callers must copy anything they retain, which every
// Unmarshal* in this package already does.
type frameReader struct {
	r   io.Reader
	buf []byte
}

// next reads one frame, returning its type and body. The body aliases
// the reader's internal buffer.
func (fr *frameReader) next() (FrameType, []byte, error) {
	var hdr [7]byte
	if _, err := io.ReadFull(fr.r, hdr[:]); err != nil {
		return 0, nil, err
	}
	if hdr[0] != MagicByte {
		return 0, nil, ErrBadMagic
	}
	if hdr[1] != Version {
		return 0, nil, ErrBadVersion
	}
	n := binary.BigEndian.Uint32(hdr[3:])
	if n > MaxFrameSize {
		return 0, nil, ErrFrameTooBig
	}
	if cap(fr.buf) < int(n) {
		fr.buf = make([]byte, n)
	}
	body := fr.buf[:n]
	if _, err := io.ReadFull(fr.r, body); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, nil, ErrTruncated
		}
		return 0, nil, err
	}
	return FrameType(hdr[2]), body, nil
}

// SampleBuf is a reference-counted, pooled sample buffer. The listener
// decodes each wire chunk into one and threads it through ChunkEvent
// and SourceChunk down to Engine.Feed; whoever holds the last
// reference calls Release after the samples have been consumed (copied
// into a session ring), returning the buffer to the pool. A nil
// SampleBuf is valid everywhere and makes Retain/Release no-ops, so
// sources whose chunks are not pooled (trace subslices, caller-owned
// slices) need no special casing.
type SampleBuf struct {
	refs    atomic.Int32
	samples []float64
}

var sampleBufPool = sync.Pool{
	New: func() any { return &SampleBuf{samples: make([]float64, MaxChunkSamples)} },
}

// getSampleBuf returns a buffer sized for n samples with one
// outstanding reference.
func getSampleBuf(n int) *SampleBuf {
	sb := sampleBufPool.Get().(*SampleBuf)
	if cap(sb.samples) < n {
		sb.samples = make([]float64, n)
	}
	sb.samples = sb.samples[:n]
	sb.refs.Store(1)
	return sb
}

// Samples is the buffer's sample slice. Valid until the last Release.
func (sb *SampleBuf) Samples() []float64 {
	if sb == nil {
		return nil
	}
	return sb.samples
}

// Retain adds a reference, for handing the buffer to an additional
// consumer.
func (sb *SampleBuf) Retain() {
	if sb != nil {
		sb.refs.Add(1)
	}
}

// Release drops one reference; the last one returns the buffer to the
// pool. The samples must not be touched afterwards.
func (sb *SampleBuf) Release() {
	if sb == nil {
		return
	}
	if n := sb.refs.Add(-1); n == 0 {
		sampleBufPool.Put(sb)
	} else if n < 0 {
		panic("rxnet: SampleBuf over-released")
	}
}

// unmarshalSampleChunkPooled decodes a SampleChunk body into a pooled
// SampleBuf instead of a fresh allocation; c.Samples aliases the
// returned buffer, which carries one reference the consumer must
// Release. Validation is identical to UnmarshalSampleChunk. On error
// the buffer is already released and the returned SampleBuf is nil.
func unmarshalSampleChunkPooled(b []byte) (SampleChunk, *SampleBuf, error) {
	const fixed = 4 + 4 + 4 + 8 + 8 + 2
	if len(b) < fixed {
		return SampleChunk{}, nil, ErrTruncated
	}
	c := SampleChunk{
		NodeID:   binary.BigEndian.Uint32(b[0:4]),
		StreamID: binary.BigEndian.Uint32(b[4:8]),
		Seq:      binary.BigEndian.Uint32(b[8:12]),
		Fs:       getF64(b[12:20]),
		Start:    binary.BigEndian.Uint64(b[20:28]),
	}
	n := int(binary.BigEndian.Uint16(b[28:30]))
	if n > MaxChunkSamples {
		return SampleChunk{}, nil, fmt.Errorf("rxnet: %d samples exceeds chunk limit %d", n, MaxChunkSamples)
	}
	if len(b) < fixed+8*n {
		return SampleChunk{}, nil, ErrTruncated
	}
	if c.Fs <= 0 || math.IsNaN(c.Fs) || math.IsInf(c.Fs, 0) {
		return SampleChunk{}, nil, fmt.Errorf("rxnet: chunk has invalid sample rate %g", c.Fs)
	}
	sb := getSampleBuf(n)
	out := sb.samples
	for i := range out {
		v := getF64(b[fixed+8*i : fixed+8*i+8])
		if math.IsNaN(v) || math.IsInf(v, 0) {
			// One NaN would wedge the server-side noise-floor tracker
			// permanently; reject the frame at the wire instead.
			sb.Release()
			return SampleChunk{}, nil, fmt.Errorf("rxnet: chunk sample %d is not finite", i)
		}
		out[i] = v
	}
	c.Samples = out
	return c, sb, nil
}
