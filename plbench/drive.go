package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"passivelight"
)

// instOf recovers the session instance from a pipeline session key:
// instance i travels as rxnet stream i+1 (the low half of the
// NetSource session key).
func instOf(key uint64) int32 { return int32(uint32(key)) - 1 }

// eventRec is one event as the sink saw it.
type eventRec struct {
	key        uint64
	t          int64
	start, end int64
	bits       string
	failed     bool
}

// eventLog is the pipeline sink. The pipeline calls it from one
// forwarding goroutine; recs is read only after the pipeline drained.
type eventLog struct {
	clk  clock
	recs []eventRec
	n    atomic.Int64
	tr   *tracer
}

func newEventLog(clk clock, traced bool) *eventLog {
	l := &eventLog{clk: clk}
	if traced {
		l.tr = newTracer(clk, "sink")
	}
	return l
}

func (l *eventLog) record(ev passivelight.Event) {
	t := l.clk.now()
	l.recs = append(l.recs, eventRec{key: ev.Session, t: t, start: ev.Start, end: ev.End,
		bits: bitString(ev.Bits), failed: ev.Err != nil})
	l.tr.add("emit", "pipeline", t, l.clk.now(), -1, instOf(ev.Session))
	l.n.Add(1)
}

// await polls until at least want events arrived or the deadline (on
// the run clock) passed; it reports whether the count was reached.
func (l *eventLog) await(want, deadline int64) bool {
	for l.n.Load() < want {
		if l.clk.now() > deadline {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
	return true
}

// timedSource wraps the pipeline's source to time the pull loop from
// outside: the interval between handing out a chunk and the next Next
// call is the pipeline's work on that chunk (Engine.Feed, or the
// synchronous EndSession of an empty Reset chunk, which ends a session;
// a NetSource also flags each stream's first chunk Reset, and that one
// counts as a feed).
type timedSource struct {
	passivelight.Source
	clk clock
	tr  *tracer

	first, lastRet, lastCall int64
	lastSess                 int32
	lastReset                bool
	lastN                    int
	busy                     int64
	feedNs, feedSamples      int64
	endSession               []float64 // ns
}

func newTimedSource(clk clock, src passivelight.Source) *timedSource {
	return &timedSource{Source: src, clk: clk, tr: newTracer(clk, "pull"), first: -1}
}

func (s *timedSource) Next(ctx context.Context) (passivelight.SourceChunk, error) {
	t := s.clk.now()
	if s.first >= 0 {
		d := t - s.lastRet
		s.busy += d
		s.tr.add("pull", "stream", s.lastRet, t, -1, s.lastSess)
		switch {
		case s.lastReset:
			s.endSession = append(s.endSession, float64(d))
		case s.lastN > 0:
			s.feedNs += d
			s.feedSamples += int64(s.lastN)
		}
	}
	c, err := s.Source.Next(ctx)
	ret := s.clk.now()
	s.lastSess = instOf(c.Session)
	s.tr.add("next", "source", t, ret, -1, s.lastSess)
	if err == nil {
		if s.first < 0 {
			s.first = ret
		}
		s.lastRet, s.lastCall = ret, t
		s.lastReset, s.lastN = c.Reset && len(c.Samples) == 0, len(c.Samples)
	}
	return c, err
}

// busyShare is the share of the pull loop's wall time spent outside
// Next, from the first chunk handed out to the last Next call.
func (s *timedSource) busyShare() float64 {
	if s.first < 0 || s.lastCall <= s.first {
		return 0
	}
	return float64(s.busy) / float64(s.lastCall-s.first)
}

// instance is one driven session: a pool session sent under its own
// session id.
type instance struct {
	pool int32
	// handoff holds when each chunk was handed to the program, then
	// when the session ended (the last chunk's hand-off plus the idle
	// timeout): in a closed loop when the program accepted each chunk,
	// in an open loop when each send began.
	handoff []int64
	// arrival is, in an open loop, the session's scheduled start
	// relative to the schedule origin.
	arrival int64
}

// senderStats is what one sender goroutine measured.
type senderStats struct {
	insts       map[int32]*instance
	sent        int64
	first       int64
	last        int64
	late        []float64 // ns
	blocked     int64
	chunkNs     []float64 // StreamChunk durations, ns
	err         error
	tr          *tracer
	prevHandoff int64
}

// drive is the outcome of one timed drive of a rig.
type drive struct {
	// senders is how many sender goroutines ran.
	senders int
	insts   []*instance
	sent    int64
	first   int64
	last    int64
	late    []float64
	blocked int64
	chunkNs []float64
	tracers []*tracer
	err     error
	origin  int64 // open loop: schedule origin on the run clock
}

func mergeSenders(stats []*senderStats) *drive {
	d := &drive{senders: len(stats), first: -1}
	n := int32(0)
	for _, st := range stats {
		for id := range st.insts {
			n = max(n, id+1)
		}
	}
	d.insts = make([]*instance, n)
	for _, st := range stats {
		for id, in := range st.insts {
			d.insts[id] = in
		}
		d.sent += st.sent
		if st.first >= 0 && (d.first < 0 || st.first < d.first) {
			d.first = st.first
		}
		d.last = max(d.last, st.last)
		d.late = append(d.late, st.late...)
		d.blocked += st.blocked
		d.chunkNs = append(d.chunkNs, st.chunkNs...)
		d.tracers = append(d.tracers, st.tr)
		if d.err == nil {
			d.err = st.err
		}
	}
	return d
}

// checkFanout asserts that the drive ran at most nproc sender
// goroutines over at most nproc node connections.
func (r *rig) checkFanout(d *drive) error {
	if nproc := runtime.NumCPU(); d.senders > nproc || len(r.nodes) > nproc {
		return fmt.Errorf("%d sender goroutines and %d node connections, nproc %d", d.senders, len(r.nodes), nproc)
	}
	return nil
}

// send hands one chunk of instance id to the program, as sender s.
func (r *rig) send(st *senderStats, s int, id int32, fs float64, c []float64) (t0, t1 int64, err error) {
	t0 = r.clk.now()
	sp := st.tr.begin("send", "loadgen", -1, id)
	h := st.tr.begin("stream_chunk", "rxnet", sp, id)
	err = r.nodes[s].StreamChunk(uint32(id+1), fs, c)
	st.tr.end(h)
	st.tr.end(sp)
	t1 = r.clk.now()
	if st.first < 0 {
		st.first = t0
	}
	st.last = t1
	st.sent += int64(len(c))
	st.blocked += t1 - t0
	st.chunkNs = append(st.chunkNs, float64(t1-t0))
	return t0, t1, err
}

func (r *rig) newSender(name string) *senderStats {
	st := &senderStats{insts: map[int32]*instance{}, first: -1}
	if r.traced {
		st.tr = newTracer(r.clk, name)
	}
	return st
}

// closedLoop sends pool sessions from the senders, each chunk as soon
// as the program accepted the previous one. There are k slots, k the
// pool size; slot i is served by sender i%senders, and a sender
// interleaves its slots chunk by chunk. Slot i sends sequence numbers
// i, i+k, i+2k, ...: sequence q is instance q, a send of pool session
// q%k. When a slot's session has sent its last chunk, the slot leaves
// it to the idle timeout and, with repeat and while the run clock is
// before until, starts its next sequence number, so the number of
// sessions in flight stays k.
func (r *rig) closedLoop(repeat bool, until int64) *drive {
	stats := make([]*senderStats, r.senders)
	var wg sync.WaitGroup
	for s := range stats {
		st := r.newSender(fmt.Sprintf("sender%d", s))
		stats[s] = st
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			st.err = r.closedSender(st, s, repeat, until)
		}(s)
	}
	wg.Wait()
	return mergeSenders(stats)
}

func (r *rig) closedSender(st *senderStats, s int, repeat bool, until int64) error {
	type slot struct {
		pos, cycle int
		id         int32
		in         *instance
		ses        *session
		next       int // next chunk to send
	}
	n := len(r.pool.sessions)
	start := func(sl *slot) {
		q := sl.cycle*n + sl.pos
		sl.ses = r.pool.sessions[q%n]
		sl.id = int32(q)
		sl.in = &instance{pool: int32(q % n), handoff: make([]int64, len(sl.ses.chunks)+1)}
		sl.next = 0
		st.insts[sl.id] = sl.in
	}
	var active []*slot
	for i := s; i < n; i += r.senders {
		sl := &slot{pos: i}
		start(sl)
		active = append(active, sl)
	}
	st.prevHandoff = -1
	for len(active) > 0 {
		kept := active[:0]
		for _, sl := range active {
			if sl.next < len(sl.ses.chunks) {
				t0, t1, err := r.send(st, s, sl.id, sl.ses.fs, sl.ses.chunks[sl.next])
				if err != nil {
					return err
				}
				if st.prevHandoff >= 0 {
					st.late = append(st.late, float64(t0-st.prevHandoff))
				}
				st.prevHandoff = t1
				sl.in.handoff[sl.next] = t1
				sl.next++
				kept = append(kept, sl)
				continue
			}
			// handoff[end] is the session's end: the idle timeout after
			// the last chunk.
			end := len(sl.ses.chunks)
			sl.in.handoff[end] = sl.in.handoff[end-1] + int64(r.w.idle)
			if repeat && r.clk.now() < until {
				sl.cycle++
				start(sl)
				kept = append(kept, sl)
			}
		}
		active = kept
	}
	return nil
}

// sendItem is one scheduled chunk send of an open loop.
type sendItem struct {
	due   int64 // ns after the schedule origin
	inst  int32
	chunk int32
}

// schedule is an open loop's seeded plan: session instances with
// their arrival times, and each sender's sends in due order.
type schedule struct {
	insts   []*instance
	items   [][]sendItem
	lastDue int64
	samples int64
	// longest is the pool's longest session at the workload's pace,
	// and peakLive the most sessions live at once: from arrival to
	// the last chunk's due time plus the idle timeout.
	longest  time.Duration
	peakLive int
}

// chunkDue is when chunk j of a session is due, relative to the
// session's arrival: the moment its last sample has been acquired on
// a stream clock running pace times real time.
func chunkDue(ses *session, chunk int, j int, pace float64) int64 {
	end := min((j+1)*chunk, len(ses.samples))
	return int64(float64(end) / (ses.fs * pace) * 1e9)
}

// buildSchedule draws the open-loop plan from seed. Session arrivals
// are stratified: arrival i falls uniformly at random within the i-th
// slot of length mean-session-samples / w.rate, so the offered rate is
// w.rate with little run-to-run spread. Arrivals walk the pool in
// seeded random order, a fresh order for every pass, so each pool
// session is offered equally often. Each session is paced at w.pace
// times its stream clock, and arrivals stop early enough that the
// longest pool session's last chunk is still due within window. It
// fails when that session lasts more than half the window: arrivals
// would then cover less than half the run. Instance i goes to sender
// i%senders.
func (w *workload) buildSchedule(p *pool, seed int64, window time.Duration, senders int) (*schedule, error) {
	rng := rand.New(rand.NewSource(seed))
	meanSamples := float64(p.samples) / float64(len(p.sessions))
	gap := meanSamples / w.rate * 1e9
	var longest int64
	for _, ses := range p.sessions {
		longest = max(longest, chunkDue(ses, w.chunk, len(ses.chunks)-1, w.pace))
	}
	if 2*longest > int64(window) {
		return nil, fmt.Errorf("the longest session lasts %v at %g× its stream clock, more than half the %v window",
			time.Duration(longest), w.pace, window)
	}
	sc := &schedule{items: make([][]sendItem, senders), longest: time.Duration(longest)}
	var starts, ends []int64
	var order []int
	for i := 0; ; i++ {
		arrival := int64((float64(i) + rng.Float64()) * gap)
		if arrival+longest > int64(window) {
			break
		}
		if len(order) == 0 {
			order = rng.Perm(len(p.sessions))
		}
		k := order[0]
		order = order[1:]
		ses := p.sessions[k]
		id := int32(len(sc.insts))
		sc.insts = append(sc.insts, &instance{pool: int32(k), arrival: arrival})
		s := int(id) % senders
		for j := range ses.chunks {
			due := arrival + chunkDue(ses, w.chunk, j, w.pace)
			sc.items[s] = append(sc.items[s], sendItem{due: due, inst: id, chunk: int32(j)})
			sc.lastDue = max(sc.lastDue, due)
		}
		sc.samples += int64(len(ses.samples))
		starts = append(starts, arrival)
		ends = append(ends, arrival+chunkDue(ses, w.chunk, len(ses.chunks)-1, w.pace)+int64(w.idle))
	}
	for _, items := range sc.items {
		sort.SliceStable(items, func(a, b int) bool { return items[a].due < items[b].due })
	}
	sc.peakLive = peakOverlap(starts, ends)
	return sc, nil
}

// peakOverlap is the most of the [start, end) intervals open at once.
func peakOverlap(starts, ends []int64) int {
	starts, ends = slices.Sorted(slices.Values(starts)), slices.Sorted(slices.Values(ends))
	var open, peak, j int
	for _, t := range starts {
		for j < len(ends) && ends[j] <= t {
			open--
			j++
		}
		open++
		peak = max(peak, open)
	}
	return peak
}

// openLoop sends the schedule: every sender sleeps until each send is
// due and records how late it actually sent.
func (r *rig) openLoop(sc *schedule, origin int64) *drive {
	stats := make([]*senderStats, r.senders)
	var wg sync.WaitGroup
	for s := range stats {
		st := r.newSender(fmt.Sprintf("sender%d", s))
		stats[s] = st
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for _, it := range sc.items[s] {
				in := sc.insts[it.inst]
				st.insts[it.inst] = in
				ses := r.pool.sessions[in.pool]
				if in.handoff == nil {
					in.handoff = make([]int64, len(ses.chunks)+1)
				}
				due := origin + it.due
				if wait := due - r.clk.now(); wait > 0 {
					time.Sleep(time.Duration(wait))
				}
				t0, _, err := r.send(st, s, it.inst, ses.fs, ses.chunks[it.chunk])
				st.late = append(st.late, float64(t0-due))
				if err != nil {
					st.err = err
					return
				}
				in.handoff[it.chunk] = t0
				if last := len(ses.chunks) - 1; int(it.chunk) == last {
					in.handoff[last+1] = t0 + int64(r.w.idle)
				}
			}
		}(s)
	}
	wg.Wait()
	d := mergeSenders(stats)
	d.origin = origin
	return d
}

// anchorTime is when a reference event's latency clock starts: the
// time of the chunk after which the reference decoder emitted it, or
// for an event the reference emitted only at Flush (emit == nChunks),
// the session's end time (the end marker's hand-off, or the last
// chunk's time plus the idle timeout that ends the session).
func anchorTime(emit, nChunks int, chunkTime func(j int) int64, endTime int64) int64 {
	if emit < nChunks {
		return chunkTime(emit)
	}
	return endTime
}

// anchor returns the latency anchor of a reference event of instance
// in, for a closed (hand-off times) or open (due times) drive.
func (r *rig) anchor(d *drive, in *instance, ses *session, ev refEvent) int64 {
	if !r.w.open {
		return sentAnchor(in, ses, ev)
	}
	n := len(ses.chunks)
	due := func(j int) int64 { return d.origin + in.arrival + chunkDue(ses, r.w.chunk, j, r.w.pace) }
	return anchorTime(ev.emit, n, due, due(n-1)+int64(r.w.idle))
}

// sentAnchor is the latency anchor on the times the chunks were
// actually handed to the program. In a closed loop it is the anchor;
// in an open loop it differs from the anchor by how late the sender
// sent the anchoring chunk.
func sentAnchor(in *instance, ses *session, ev refEvent) int64 {
	n := len(ses.chunks)
	return anchorTime(ev.emit, n, func(j int) int64 { return in.handoff[j] }, in.handoff[n])
}

// score is a drive's events checked against the reference.
type score struct {
	refs, matched, extra int
	packets, packetsOK   int
	latMs                []float64
	// sentLatMs is latMs timed from sentAnchor instead: without the
	// open-loop sender's lateness.
	sentLatMs []float64
	lastEvent int64
}

// score matches every event against its instance's reference decode
// (bits, Start and End; missing, extra and differing events all fail)
// and counts sent packets whose payload some event decoded.
func (r *rig) score(d *drive) score {
	var sc score
	byInst := make([][]eventRec, len(d.insts))
	for _, e := range r.log.recs {
		sc.lastEvent = max(sc.lastEvent, e.t)
		i := instOf(e.key)
		if i < 0 || int(i) >= len(d.insts) || d.insts[i] == nil {
			sc.extra++
			continue
		}
		byInst[i] = append(byInst[i], e)
	}
	for i, in := range d.insts {
		if in == nil {
			continue
		}
		ses := r.pool.sessions[in.pool]
		evs := byInst[i]
		used := make([]bool, len(evs))
		for _, ref := range ses.ref {
			sc.refs++
			for j, e := range evs {
				if !used[j] && e.start == ref.start && e.end == ref.end && e.bits == ref.bits && e.failed == ref.failed {
					used[j] = true
					sc.matched++
					sc.latMs = append(sc.latMs, float64(e.t-r.anchor(d, in, ses, ref))/1e6)
					sc.sentLatMs = append(sc.sentLatMs, float64(e.t-sentAnchor(in, ses, ref))/1e6)
					break
				}
			}
		}
		for _, u := range used {
			if !u {
				sc.extra++
			}
		}
		ok := make([]bool, len(evs))
		for _, want := range ses.payloads {
			sc.packets++
			for j, e := range evs {
				if !ok[j] && !e.failed && e.bits == want {
					ok[j] = true
					sc.packetsOK++
					break
				}
			}
		}
	}
	return sc
}

// expectedEvents is how many events the reference decode predicts for
// the drive's instances.
func (r *rig) expectedEvents(insts []*instance) int64 {
	var n int64
	for _, in := range insts {
		if in != nil {
			n += int64(len(r.pool.sessions[in.pool].ref))
		}
	}
	return n
}
