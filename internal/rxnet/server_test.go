package rxnet_test

import (
	"net"
	"sync"
	"testing"
	"time"

	"passivelight/internal/cluster"
	"passivelight/internal/rxnet"
)

// TestServerCloseWithPeers checks every server built on rxnet.Server
// stops promptly: with idle peers connected and more dialing while
// Close runs, Close returns within 1 s. A connection the server never
// closes would hold Close until the 2-minute idle read deadline.
func TestServerCloseWithPeers(t *testing.T) {
	servers := []struct {
		name  string
		start func(t *testing.T) (addr string, close func() error)
	}{
		{"aggregator", func(t *testing.T) (string, func() error) {
			a := rxnet.NewAggregator(rxnet.AggregatorOptions{Logf: t.Logf})
			addr, err := a.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			return addr, a.Close
		}},
		{"chunk-listener", func(t *testing.T) (string, func() error) {
			l, err := rxnet.ListenChunks("127.0.0.1:0", t.Logf)
			if err != nil {
				t.Fatal(err)
			}
			return l.Addr(), l.Close
		}},
		{"router", func(t *testing.T) (string, func() error) {
			r, err := cluster.NewRouter(cluster.RouterConfig{AutoAdmit: true, Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			addr, err := r.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			return addr, r.Close
		}},
	}
	for _, srv := range servers {
		t.Run(srv.name, func(t *testing.T) {
			addr, closeSrv := srv.start(t)
			closeWithPeers(t, addr, closeSrv, 8, 4)
		})
	}
}

// closeWithPeers connects idle peers to addr, starts dialers that keep
// connecting until Close, and fails unless closeSrv returns within 1 s.
func closeWithPeers(t *testing.T, addr string, closeSrv func() error, idle, dialers int) {
	t.Helper()
	var (
		mu    sync.Mutex
		conns []net.Conn
		wg    sync.WaitGroup
	)
	dial := func() bool {
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err != nil {
			return false
		}
		mu.Lock()
		conns = append(conns, c)
		mu.Unlock()
		return true
	}
	stop := make(chan struct{})
	defer func() {
		close(stop)
		wg.Wait()
		for _, c := range conns {
			c.Close()
		}
	}()
	for i := 0; i < idle; i++ {
		if !dial() {
			t.Fatalf("dial %s", addr)
		}
	}
	for i := 0; i < dialers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if !dial() {
					return
				}
				time.Sleep(time.Millisecond)
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	done := make(chan error, 1)
	go func() { done <- closeSrv() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("close: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Close blocked for more than 1 s")
	}
}
