package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"auditreg/cluster"
	"auditreg/server"
)

// startNodes boots n in-process auditd servers with the positional node ids
// and seeded keys auditctl expects, returning the comma-joined address list.
// corrupt, when ≥ 0, plants the Byzantine test hook on that node index.
func startNodes(t *testing.T, n, f int, seed uint64, corrupt int) (string, cluster.Membership) {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	m := cluster.SeededMembership(addrs, f, seed)
	if err := m.Validate(); err != nil {
		t.Fatalf("membership: %v", err)
	}
	for i := 0; i < n; i++ {
		srv, err := server.New(server.Config{
			Key:           m.Nodes[i].Key,
			Readers:       4,
			NodeID:        m.Nodes[i].ID,
			PoolInterval:  time.Millisecond,
			CorruptShares: i == corrupt,
		})
		if err != nil {
			t.Fatalf("server.New node %d: %v", i+1, err)
		}
		done := make(chan error, 1)
		ln := lns[i]
		go func() { done <- srv.Serve(ln) }()
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
			<-done
		})
	}
	return strings.Join(addrs, ","), m
}

func runCtl(t *testing.T, args ...string) (int, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	if stderr.Len() > 0 {
		t.Logf("stderr: %s", stderr.String())
	}
	return code, stdout.String()
}

func TestRunHealthy(t *testing.T) {
	nodes, _ := startNodes(t, 4, 1, 11, -1)
	code, out := runCtl(t, "-nodes", nodes, "-f", "1", "-seed", "11")
	if code != exitHealthy {
		t.Fatalf("exit = %d, want %d\n%s", code, exitHealthy, out)
	}
	if !strings.Contains(out, "HEALTHY") {
		t.Fatalf("verdict missing HEALTHY:\n%s", out)
	}
}

// TestRunSuspect drives real share traffic through a cluster whose node 2 is
// corrupting, then asserts auditctl renders the per-node SUSPECT status and
// exits with the dedicated code: the quorum holds (the cluster serves) but
// the verdict must not read as clean.
func TestRunSuspect(t *testing.T) {
	const seed = 12
	nodes, m := startNodes(t, 4, 1, seed, 1)

	cc, err := cluster.Dial(m)
	if err != nil {
		t.Fatalf("cluster.Dial: %v", err)
	}
	defer cc.Close()
	obj, err := cc.Open("acct/suspect")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := obj.Write(77); err != nil {
		t.Fatalf("Write: %v", err)
	}
	// A read asks a quorum and the position that sits out moves one a read:
	// n reads have asked every node, the corruptor included.
	for i := 0; i < m.N(); i++ {
		if v, err := obj.Read(0); err != nil || v != 77 {
			t.Fatalf("Read = %d, %v; want 77, nil", v, err)
		}
	}

	code, out := runCtl(t, "-nodes", nodes, "-f", "1", "-seed", fmt.Sprint(seed))
	if code != exitSuspect {
		t.Fatalf("exit = %d, want %d\n%s", code, exitSuspect, out)
	}
	if !strings.Contains(out, "SUSPECT: 1 node(s)") {
		t.Fatalf("verdict missing SUSPECT:\n%s", out)
	}
	// The per-node row names node 2 as the suspect.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "2 ") && !strings.Contains(line, "SUSPECT") {
			t.Fatalf("node 2 row not marked SUSPECT: %q", line)
		}
	}
}

func TestRunBadFlags(t *testing.T) {
	if code, _ := runCtl(t); code != exitUnavailable {
		t.Fatalf("missing -nodes: exit = %d, want %d", code, exitUnavailable)
	}
	// n=3 with f=1 violates n >= 2f+2.
	if code, _ := runCtl(t, "-nodes", "a:1,b:1,c:1", "-f", "1"); code != exitUnavailable {
		t.Fatalf("invalid membership: exit = %d, want %d", code, exitUnavailable)
	}
}
