package rxnet

import (
	"errors"
	"net"
	"sync"
	"time"
)

// idleTimeout is how long a served connection may stay silent before
// its next read fails. Peers with nothing to say (router peer links,
// idle nodes) must speak more often than this.
const idleTimeout = 2 * time.Minute

// Conn is one connection accepted by a Server. Reads belong to the
// connection's handler; writes are serialized, so control frames
// (drain notices, NACKs, throttle relays) can be sent from any
// goroutine. State is the per-connection data the owning server keeps
// beside it (struct{} when it needs none).
type Conn[S any] struct {
	net.Conn
	State S

	wmu sync.Mutex
	fr  frameReader
}

// WriteFrame writes one frame under the connection's write lock, with
// a 10 s deadline so a stalled peer cannot wedge the writer.
func (c *Conn[S]) WriteFrame(t FrameType, body []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := c.SetWriteDeadline(time.Now().Add(10 * time.Second)); err != nil {
		return err
	}
	return WriteFrame(c.Conn, t, body)
}

// ReadFrame reads the next frame, failing if the peer stays silent for
// idleTimeout. The body aliases a per-connection buffer and is valid
// only until the next ReadFrame; callers copy anything they retain.
func (c *Conn[S]) ReadFrame() (FrameType, []byte, error) {
	if err := c.SetReadDeadline(time.Now().Add(idleTimeout)); err != nil {
		return 0, nil, err
	}
	return c.fr.next()
}

// Server owns a listener and every connection it accepted. Each
// connection is registered before its handler starts, and none is
// registered after Close begins, so Close can close them all and wait
// for their handlers without racing the accept loop.
type Server[S any] struct {
	ln     net.Listener
	handle func(*Conn[S]) error
	logf   func(format string, args ...any)

	mu    sync.Mutex
	conns map[*Conn[S]]struct{}
	// done is closed under mu when Close begins; no connection is
	// registered after that.
	done chan struct{}

	wg        sync.WaitGroup
	closeOnce sync.Once
	closeErr  error
}

// Serve accepts connections on ln and runs handle on its own goroutine
// for each one. The connection is closed when handle returns; a
// non-nil error is logged unless the server is closing. The Server
// owns ln from here on.
func Serve[S any](ln net.Listener, logf func(format string, args ...any), handle func(*Conn[S]) error) *Server[S] {
	s := &Server[S]{
		ln:     ln,
		handle: handle,
		logf:   logf,
		conns:  make(map[*Conn[S]]struct{}),
		done:   make(chan struct{}),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

func (s *Server[S]) acceptLoop() {
	defer s.wg.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.done:
				return
			default:
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			s.logf("rxnet: accept: %v", err)
			return
		}
		c := &Conn[S]{Conn: nc, fr: frameReader{r: nc}}
		s.mu.Lock()
		select {
		case <-s.done:
			s.mu.Unlock()
			nc.Close()
			return
		default:
		}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serve(c)
	}
}

func (s *Server[S]) serve(c *Conn[S]) {
	defer s.wg.Done()
	err := s.handle(c)
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	c.Close()
	select {
	case <-s.done:
	default:
		if err != nil {
			s.logf("%v", err)
		}
	}
}

// Addr returns the bound listen address.
func (s *Server[S]) Addr() string { return s.ln.Addr().String() }

// Conns snapshots the open connections.
func (s *Server[S]) Conns() []*Conn[S] {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Conn[S], 0, len(s.conns))
	for c := range s.conns {
		out = append(out, c)
	}
	return out
}

// Close stops accepting, closes every open connection and waits for
// the accept loop and all handlers to return. Idempotent; concurrent
// callers all wait.
func (s *Server[S]) Close() error {
	s.closeOnce.Do(func() {
		s.mu.Lock()
		close(s.done)
		s.mu.Unlock()
		s.closeErr = s.ln.Close()
		for _, c := range s.Conns() {
			c.Close()
		}
		s.wg.Wait()
	})
	return s.closeErr
}
