package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
)

// span is one timed interval recorded by the benchmark around a call
// into a layer. Parent indexes the causing span in the same tracer
// (-1 for a root); Sess is the session instance the work belongs to
// (-1 when it belongs to none).
type span struct {
	name       string
	layer      string
	start, end int64
	parent     int32
	sess       int32
}

// tracer records spans for one goroutine. A nil tracer records
// nothing, so untraced runs pay one nil check per span.
type tracer struct {
	clk   clock
	name  string
	spans []span
}

func newTracer(clk clock, name string) *tracer { return &tracer{clk: clk, name: name} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name, layer string, parent, sess int32) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, layer: layer, start: t.clk.now(), end: -1, parent: parent, sess: sess})
	return int32(len(t.spans) - 1)
}

// end closes the span opened by begin.
func (t *tracer) end(i int32) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].end = t.clk.now()
}

// add records a span whose bounds were measured by the caller.
func (t *tracer) add(name, layer string, start, end int64, parent, sess int32) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, layer: layer, start: start, end: end, parent: parent, sess: sess})
	return int32(len(t.spans) - 1)
}

// selfTimes returns each span's self time: its duration minus the
// part of its interval covered by its children (overlapping children
// are counted once; children reaching outside the parent are clipped).
func selfTimes(spans []span) []int64 {
	children := make([][]int32, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.end - s.start - covered(s, spans, children[i])
	}
	return self
}

// covered is the length of the union of the child intervals, clipped
// to the parent interval.
func covered(parent span, spans []span, kids []int32) int64 {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(spans[k].start, parent.start), min(spans[k].end, parent.end)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var total, curLo, curHi int64
	for i, v := range ivs {
		switch {
		case i == 0:
			curLo, curHi = v.lo, v.hi
		case v.lo > curHi:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		default:
			curHi = max(curHi, v.hi)
		}
	}
	if len(ivs) > 0 {
		total += curHi - curLo
	}
	return total
}

// layerSelf sums self time per layer over every tracer.
func layerSelf(tracers []*tracer) map[string]int64 {
	out := map[string]int64{}
	for _, t := range tracers {
		if t == nil {
			continue
		}
		for i, d := range selfTimes(t.spans) {
			out[t.spans[i].layer] += d
		}
	}
	return out
}

// writeSpans writes every span as one CSV line:
// tracer,index,name,layer,start_ns,end_ns,parent,session.
func writeSpans(path string, tracers []*tracer) (int, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "tracer,index,name,layer,start_ns,end_ns,parent,session")
	n := 0
	for _, t := range tracers {
		if t == nil {
			continue
		}
		for i, s := range t.spans {
			fmt.Fprintf(w, "%s,%d,%s,%s,%d,%d,%d,%d\n", t.name, i, s.name, s.layer, s.start, s.end, s.parent, s.sess)
			n++
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return n, err
	}
	return n, f.Close()
}
