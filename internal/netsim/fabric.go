// Package netsim is an in-memory network for real byte-stream code: a Fabric
// of named endpoints joined by net.Pipe connections, with a deterministic
// seeded one-way delay per ordered link, settable delays (a "hung" peer) and
// cuttable links (a partition). A whole auditd cluster, its client pools and
// a fault schedule run over it in one process — cluster/fabric_test.go does
// exactly that, and cmd/loadgen's chaos plan bridges it to real daemons.
package netsim

import (
	"fmt"
	"io"
	mathrand "math/rand/v2"
	"net"
	"sync"
	"time"
)

// Fabric is the network: in-memory net.Listener / dialer pairs over
// net.Pipe, with a deterministic asymmetric latency per ordered (from, to)
// endpoint pair and cuttable links, no sockets involved.
//
// Endpoints are names: a listener is registered under the name it Listens
// on, and each dialer is constructed with the name of the principal doing
// the dialing, so the (from, to) link a connection crosses is explicit.
// Same seed, same latency topology.
//
// Safe for concurrent use.
type Fabric struct {
	seed     uint64
	maxDelay time.Duration

	mu        sync.Mutex
	listeners map[string]*fabListener
	cut       map[[2]string]bool
	conns     map[[2]string][]io.Closer
	delays    map[[2]string]time.Duration
}

// NewFabric returns a fabric whose links carry a seeded one-way delay in
// [0, maxDelay] per ordered endpoint pair (zero maxDelay: instant links).
func NewFabric(seed uint64, maxDelay time.Duration) *Fabric {
	if maxDelay < 0 {
		maxDelay = 0
	}
	return &Fabric{
		seed:      seed,
		maxDelay:  maxDelay,
		listeners: make(map[string]*fabListener),
		cut:       make(map[[2]string]bool),
		conns:     make(map[[2]string][]io.Closer),
		delays:    make(map[[2]string]time.Duration),
	}
}

// linkDelay returns the current delay of the ordered link (from, to):
// a SetDelay override if one is in force, else the seeded draw, memoized.
// Asymmetry is the point: the two directions of a pair draw independently,
// like real paths.
func (f *Fabric) linkDelay(from, to string) time.Duration {
	key := [2]string{from, to}
	f.mu.Lock()
	defer f.mu.Unlock()
	if d, ok := f.delays[key]; ok {
		return d
	}
	if f.maxDelay == 0 {
		return 0
	}
	h1, h2 := f.seed^0x66616272, uint64(0x6963) // "fabr", "ic"
	for _, s := range []string{from, "\x00", to} {
		for _, b := range []byte(s) {
			h1 = (h1 ^ uint64(b)) * 0x100000001b3
		}
	}
	r := mathrand.New(mathrand.NewPCG(h1, h2))
	d := time.Duration(r.Int64N(int64(f.maxDelay) + 1))
	f.delays[key] = d
	return d
}

// SetDelay overrides the one-way delay of the ordered link (from, to) from
// now on, replacing the seeded draw. Unlike the frozen-at-first-use seeded
// delays, the override takes effect on LIVE connections: pumps consult the
// fabric per chunk, and a chunk already sleeping re-checks the delay every
// few milliseconds, so revising a huge delay back down releases it promptly.
// A huge delay is the fabric's "hung node": bytes stall indefinitely while
// the connection stays open — no RST, exactly the failure a crash detector
// cannot see. Negative d clamps to zero. Call once per direction to stall a
// pair both ways.
func (f *Fabric) SetDelay(from, to string, d time.Duration) {
	if d < 0 {
		d = 0
	}
	f.mu.Lock()
	f.delays[[2]string{from, to}] = d
	f.mu.Unlock()
}

// Partition cuts both directions between two endpoint names: established
// connections across the cut are severed immediately (both sides see the
// connection die, exactly like a pulled cable) and new dials fail until
// Heal. Listeners and other links are untouched.
func (f *Fabric) Partition(a, b string) {
	f.mu.Lock()
	f.cut[[2]string{a, b}] = true
	f.cut[[2]string{b, a}] = true
	doomed := append([]io.Closer(nil), f.conns[[2]string{a, b}]...)
	doomed = append(doomed, f.conns[[2]string{b, a}]...)
	delete(f.conns, [2]string{a, b})
	delete(f.conns, [2]string{b, a})
	f.mu.Unlock()
	for _, c := range doomed {
		c.Close()
	}
}

// Heal removes the cut between two endpoint names; subsequent dials succeed.
func (f *Fabric) Heal(a, b string) {
	f.mu.Lock()
	delete(f.cut, [2]string{a, b})
	delete(f.cut, [2]string{b, a})
	f.mu.Unlock()
}

// Listen registers a listener under name. The returned net.Listener plugs
// straight into server.Serve.
func (f *Fabric) Listen(name string) (net.Listener, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.listeners[name]; ok {
		return nil, fmt.Errorf("netsim: fabric address %q already in use", name)
	}
	ln := &fabListener{f: f, name: name, ch: make(chan net.Conn), done: make(chan struct{})}
	f.listeners[name] = ln
	return ln, nil
}

// Dialer returns the dial function of the named endpoint — the value a
// cluster test hands to client.WithDialer. Each successful dial crosses the
// (from, addr) link: its two directions carry their seeded delays, and a
// Partition covering the pair kills it.
func (f *Fabric) Dialer(from string) func(addr string, timeout time.Duration) (net.Conn, error) {
	return func(addr string, timeout time.Duration) (net.Conn, error) {
		f.mu.Lock()
		ln := f.listeners[addr]
		severed := f.cut[[2]string{from, addr}]
		f.mu.Unlock()
		if severed {
			return nil, fmt.Errorf("netsim: dial %s from %s: link partitioned", addr, from)
		}
		if ln == nil {
			return nil, fmt.Errorf("netsim: dial %s from %s: connection refused", addr, from)
		}

		// Two pipes bridged by delay pumps: the client end and the server
		// end never touch directly, so each direction's latency is imposed
		// by its pump.
		cliEnd, cliFab := net.Pipe()
		srvFab, srvEnd := net.Pipe()
		go pump(cliFab, srvFab, func() time.Duration { return f.linkDelay(from, addr) })
		go pump(srvFab, cliFab, func() time.Duration { return f.linkDelay(addr, from) })

		f.mu.Lock()
		key := [2]string{from, addr}
		f.conns[key] = append(f.conns[key], cliFab, srvFab)
		f.mu.Unlock()

		timer := time.NewTimer(timeout)
		defer timer.Stop()
		select {
		case ln.ch <- &fabConn{Conn: srvEnd, local: addr, remote: from}:
			return &fabConn{Conn: cliEnd, local: from, remote: addr}, nil
		case <-ln.done:
			cliFab.Close()
			return nil, fmt.Errorf("netsim: dial %s from %s: connection refused (listener closed)", addr, from)
		case <-timer.C:
			cliFab.Close()
			return nil, fmt.Errorf("netsim: dial %s from %s: timeout", addr, from)
		}
	}
}

// pump relays one direction, imposing the link's current delay per chunk —
// re-read from the fabric each time so SetDelay reaches live connections.
// Closing either pipe end unblocks it; it closes the far side so connection
// death propagates both ways, like a TCP reset.
func pump(src, dst net.Conn, delay func() time.Duration) {
	defer dst.Close()
	defer src.Close()
	buf := make([]byte, 32<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			// Sleep in short slices, re-consulting the delay each time: a
			// chunk caught under a huge "hung link" override is released as
			// soon as the override is revised down, instead of serving out
			// the original sentence.
			for start := time.Now(); ; {
				d := delay()
				elapsed := time.Since(start)
				if elapsed >= d {
					break
				}
				if rem := d - elapsed; rem < 10*time.Millisecond {
					time.Sleep(rem)
				} else {
					time.Sleep(10 * time.Millisecond)
				}
			}
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

// fabListener is a fabric listening endpoint.
type fabListener struct {
	f    *Fabric
	name string
	ch   chan net.Conn
	done chan struct{}
	once sync.Once
}

func (l *fabListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.ch:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *fabListener) Close() error {
	l.once.Do(func() {
		close(l.done)
		l.f.mu.Lock()
		if l.f.listeners[l.name] == l {
			delete(l.f.listeners, l.name)
		}
		l.f.mu.Unlock()
	})
	return nil
}

func (l *fabListener) Addr() net.Addr { return fabAddr(l.name) }

// fabConn tags a pipe end with its fabric endpoints.
type fabConn struct {
	net.Conn
	local, remote string
}

func (c *fabConn) LocalAddr() net.Addr  { return fabAddr(c.local) }
func (c *fabConn) RemoteAddr() net.Addr { return fabAddr(c.remote) }

// fabAddr is a fabric endpoint name as a net.Addr.
type fabAddr string

func (a fabAddr) Network() string { return "fabric" }
func (a fabAddr) String() string  { return string(a) }
