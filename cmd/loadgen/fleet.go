package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"

	"auditreg/internal/netsim"
)

// daemonTuning carries the auditd tuning flags loadgen forwards to the
// daemons it spawns (zero values: the daemon's defaults).
type daemonTuning struct {
	shards     int    // execution shards (-shards)
	walStripes int    // WAL stripe groups (-wal-stripes)
	shardQueue int    // per-shard queue depth (-shard-queue)
	nodeID     uint32 // the daemon's -node-id; a restart reuses it
}

// fleet owns the auditd processes a spawning cell runs against: one for
// -durable, -cluster-n for -cluster. Every node is durable (-fsync always
// over its own data dir) and keeps its address across a restart, so one
// client pool spans the kill. Nodes are added during single-goroutine setup;
// after that mu guards each node's proc, because the fault plan kills and
// restarts nodes while the cell's teardown may be reaping them.
type fleet struct {
	bin     string
	readers int
	nodes   []*node
	mu      sync.Mutex
}

// node is one fleet member; proc is nil while it is down.
type node struct {
	addr string
	args []string
	proc *exec.Cmd
}

// add reserves a loopback port and boots a node on it against dataDir.
func (f *fleet) add(dataDir string, seed uint64, tune daemonTuning) error {
	addr, err := freePort()
	if err != nil {
		return err
	}
	args := []string{
		"-addr", addr,
		"-seed", fmt.Sprint(seed),
		"-readers", fmt.Sprint(f.readers),
		"-data-dir", dataDir,
		"-fsync", "always",
		"-poolinterval", "2ms",
	}
	if tune.shards != 0 {
		args = append(args, "-shards", fmt.Sprint(tune.shards))
	}
	if tune.walStripes != 0 {
		args = append(args, "-wal-stripes", fmt.Sprint(tune.walStripes))
	}
	if tune.shardQueue != 0 {
		args = append(args, "-shard-queue", fmt.Sprint(tune.shardQueue))
	}
	if tune.nodeID != 0 {
		args = append(args, "-node-id", fmt.Sprint(tune.nodeID))
	}
	f.nodes = append(f.nodes, &node{addr: addr, args: args})
	return f.start(len(f.nodes)-1, false)
}

// start execs node i from its data dir — recovery is the daemon replaying
// its own WAL — and waits for its "listening on" line. corrupt adds
// -corrupt-shares: the bit-flipping share server that is the chaos plan's
// Byzantine positive control.
func (f *fleet) start(i int, corrupt bool) error {
	args := f.nodes[i].args
	if corrupt {
		args = append(args[:len(args):len(args)], "-corrupt-shares")
	}
	cmd := exec.Command(f.bin, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err == nil {
		err = cmd.Start()
	}
	if err != nil {
		return fmt.Errorf("start node %d: %w", i+1, err)
	}
	listening := make(chan struct{}, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if strings.HasPrefix(sc.Text(), "auditd: listening on ") {
				select {
				case listening <- struct{}{}:
				default:
				}
			}
		}
	}()
	select {
	case <-listening:
		f.mu.Lock()
		f.nodes[i].proc = cmd
		f.mu.Unlock()
		return nil
	case <-time.After(15 * time.Second):
		cmd.Process.Kill()
		cmd.Wait()
		return fmt.Errorf("start node %d: auditd did not report listening within 15s", i+1)
	}
}

// kill delivers SIGKILL to node i and reaps it: the crash the WAL must
// survive. A node already down is left alone.
func (f *fleet) kill(i int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if p := f.nodes[i].proc; p != nil {
		p.Process.Signal(syscall.SIGKILL)
		p.Wait()
		f.nodes[i].proc = nil
	}
}

// killAll is the teardown of a cell that did not reach drain.
func (f *fleet) killAll() {
	for i := range f.nodes {
		f.kill(i)
	}
}

// drain stops every live node gracefully; a node that cannot drain lost
// state, which fails the cell.
func (f *fleet) drain() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, n := range f.nodes {
		if n.proc == nil {
			continue
		}
		n.proc.Process.Signal(syscall.SIGTERM)
		err := n.proc.Wait()
		n.proc = nil
		if err != nil {
			return fmt.Errorf("drain node %d: %w", i+1, err)
		}
	}
	return nil
}

// addrs returns the nodes' TCP addresses, in membership order.
func (f *fleet) addrs() []string {
	out := make([]string, len(f.nodes))
	for i, n := range f.nodes {
		out[i] = n.addr
	}
	return out
}

// bridge registers one fabric listener per node, named node1..nodeN, and
// forwards every accepted fabric connection to the node's real TCP address —
// the seam that lets fabric partitions and stalls act on traffic to a real
// daemon process. A daemon that is down refuses the TCP dial; the bridge then
// closes the fabric side, which the client sees as a dead connection (exactly
// a crashed peer). The bridges live until the process exits; their
// per-connection goroutines die with their connections. It returns the
// fabric names: the addresses a client dialing through the fabric uses.
func (f *fleet) bridge(fab *netsim.Fabric) ([]string, error) {
	names := make([]string, 0, len(f.nodes))
	for i, tcpAddr := range f.addrs() {
		name := fmt.Sprintf("node%d", i+1)
		ln, err := fab.Listen(name)
		if err != nil {
			return nil, err
		}
		names = append(names, name)
		go func() {
			for {
				c, err := ln.Accept()
				if err != nil {
					return
				}
				go func() {
					tc, err := net.DialTimeout("tcp", tcpAddr, 2*time.Second)
					if err != nil {
						c.Close()
						return
					}
					go func() {
						io.Copy(tc, c)
						tc.Close()
						c.Close()
					}()
					io.Copy(c, tc)
					c.Close()
					tc.Close()
				}()
			}
		}()
	}
	return names, nil
}

// freePort reserves an ephemeral loopback port and releases it for a daemon.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr, nil
}
