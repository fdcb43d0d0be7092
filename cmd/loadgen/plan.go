package main

import (
	"fmt"
	"slices"
	"time"

	"auditreg/internal/netsim"
)

// opDeadline is the per-op retry budget of an op-paced cell: generous next
// to a daemon restart (exec, WAL replay, redial), so only an op the system
// really lost runs it out.
const opDeadline = 90 * time.Second

// plan is the fault schedule that runs beside a cell's workers. The zero
// run is the plan "none".
type plan struct {
	// paced: the plan, not the op count, ends the cell — workers keep the
	// traffic up until run returns.
	paced bool
	// opDeadline bounds one op, retries included; an op past it is lost.
	opDeadline time.Duration
	// run injects the faults and reports what it did: how many processes
	// it SIGKILLed. A plan that returns without having fired fails the
	// cell: a fault cell that crashed nothing proved nothing.
	run func(traffic) (kills uint64, err error)
}

// traffic is a plan's view of the workers.
type traffic struct {
	ops     func() uint64   // operations completed so far
	quarter uint64          // a quarter of an op-paced cell's operations: the crash trigger
	done    <-chan struct{} // closed once op-paced workers have finished
}

// killRestart is the crash plan of the -durable and -cluster cells: once
// roughly a quarter of the cell's ops have completed (or a deadline passes —
// the cell must never hang on an op count that will not arrive), SIGKILL
// node idx, hold the outage for degrade — on a cluster, a stretch in which
// every surviving node is quorum-critical — and restart the node from its
// own data dir on the same address, while the workers' retries ride out the
// outage through their redialing client pools (which drop their silent-read
// caches on the new boot epoch).
func killRestart(fl *fleet, idx int, degrade time.Duration) func(traffic) (uint64, error) {
	return func(tr traffic) (uint64, error) {
		for deadline := time.Now().Add(2 * time.Minute); tr.ops() < tr.quarter && time.Now().Before(deadline); {
			select {
			case <-tr.done:
				return 0, nil
			case <-time.After(2 * time.Millisecond):
			}
		}
		fl.kill(idx)
		select {
		case <-tr.done:
		case <-time.After(degrade):
		}
		return 1, fl.start(idx, false)
	}
}

// Chaos phase pacing. Each fault is held long enough for real traffic to
// cross it (the stretch also requires a minimum op count, so an idle phase
// can never vacuously pass), then healed and given a settle window before
// the next fault — one fault at a time, so every assertion isolates one
// failure mode against the f=1 budget.
const (
	chaosFaultHold    = 1200 * time.Millisecond
	chaosSettle       = 600 * time.Millisecond
	chaosMinPhaseOps  = 40
	chaosOpDeadline   = 45 * time.Second // per-op retry budget; an op past this is a lost acked op
	chaosReqTimeout   = 2 * time.Second  // client request timeout: bounds every round against a hung node
	chaosDetectWindow = 20 * time.Second // Byzantine phase: detection must fire within this
)

// chaosPlan is the E20 fault schedule over a fleet reached through a
// netsim.Fabric bridge (so links can be cut, stalled, and healed from the
// driver; kills go to the processes directly), one failure mode at a time:
//
//  1. CRASH — SIGKILL a node, run degraded, restart it from its own WAL.
//  2. PARTITION — cut the driver's link to a node via the fabric, heal it.
//  3. HANG — stall the node's link (bytes park, no RST: the failure a crash
//     detector cannot see); the client's request timeout bounds every round.
//  4. BYZANTINE — restart a node with -corrupt-shares (the daemon's
//     bit-flipping positive control); the plan blocks until the client's
//     verified reconstruction flags it in a ReadTrace, quarantines it, and
//     the node's own share-corrupts-served STATS counter confesses; then the
//     node restarts honest and the plan waits for the quarantine to clear.
//
// Fault assignments are distinct nodes, fixed for reproducibility; the
// Byzantine one is ct.byzantine (the cluster target must know it too, to
// tell a detection from a mislabeled honest node).
func chaosPlan(fl *fleet, fab *netsim.Fabric, links []string, ct *clusterTarget) func(traffic) (uint64, error) {
	crashIdx, partIdx, hungIdx := 1, 2, len(links)-1
	byzID := ct.byzantine
	byz := int(byzID) - 1
	return func(tr traffic) (kills uint64, err error) {
		// stretch holds the current cluster state for d while requiring
		// fresh completions — proof the cluster stayed live through the
		// window.
		stretch := func(what string, d time.Duration) error {
			from := tr.ops()
			end := time.Now().Add(d)
			for deadline := end.Add(30 * time.Second); ; time.Sleep(20 * time.Millisecond) {
				if time.Now().After(end) && tr.ops()-from >= chaosMinPhaseOps {
					return nil
				}
				if err := ct.check(); err != nil {
					return err
				}
				if time.Now().After(deadline) {
					return fmt.Errorf("phase %s: traffic stalled (%d ops in %v, need %d) — liveness lost", what, tr.ops()-from, d, chaosMinPhaseOps)
				}
			}
		}
		kill := func(i int) {
			fl.kill(i)
			kills++
		}
		if err := stretch("warmup", 300*time.Millisecond); err != nil {
			return kills, err
		}

		// Phase 1: CRASH. Zero lost acked ops is the claim; the workers'
		// retry loops absorb the outage and the WAL restart rejoins the node.
		kill(crashIdx)
		if err := stretch("crash", chaosFaultHold); err != nil {
			return kills, err
		}
		if err := fl.start(crashIdx, false); err != nil {
			return kills, err
		}
		if err := stretch("crash-heal", chaosSettle); err != nil {
			return kills, err
		}

		// Phase 2: PARTITION. The fabric cuts the driver↔node link both
		// ways: established bridges die like a pulled cable, dials refuse.
		fab.Partition("driver", links[partIdx])
		if err := stretch("partition", chaosFaultHold); err != nil {
			return kills, err
		}
		fab.Heal("driver", links[partIdx])
		if err := stretch("partition-heal", chaosSettle); err != nil {
			return kills, err
		}

		// Phase 3: HANG. Bytes park in the link with the connection open —
		// no RST, no error, just silence. The client's request timeout is
		// the only thing that unsticks a round including this node.
		fab.SetDelay("driver", links[hungIdx], time.Hour)
		fab.SetDelay(links[hungIdx], "driver", time.Hour)
		if err := stretch("hang", chaosFaultHold); err != nil {
			return kills, err
		}
		fab.SetDelay("driver", links[hungIdx], 0)
		fab.SetDelay(links[hungIdx], "driver", 0)
		if err := stretch("hang-heal", chaosSettle); err != nil {
			return kills, err
		}

		// Phase 4: BYZANTINE. Restart one node with the bit-flipping share
		// server and require the whole detection chain to fire: a ReadTrace
		// naming the corruptor, the client quarantine, and the node's own
		// STATS confession — while every read stays correct and the journals
		// stay honest (both asserted by the end-of-cell verifier).
		kill(byz)
		if err := fl.start(byz, true); err != nil {
			return kills, err
		}
		for detectBy := time.Now().Add(chaosDetectWindow); ; time.Sleep(50 * time.Millisecond) {
			if ct.corruptedReads.Load() > 0 && slices.Contains(ct.cc.Suspects(), byzID) && nodeConfessed(ct, byzID) {
				break
			}
			if err := ct.check(); err != nil {
				return kills, err
			}
			if time.Now().After(detectBy) {
				return kills, fmt.Errorf("byzantine node %d ran undetected for %v: corrupted-reads=%d suspects=%v",
					byzID, chaosDetectWindow, ct.corruptedReads.Load(), ct.cc.Suspects())
			}
		}
		// Heal: restart honest and wait for the quarantine to lift — the
		// node's shares decode cleanly again, so the client clears it.
		kill(byz)
		if err := fl.start(byz, false); err != nil {
			return kills, err
		}
		for clearBy := time.Now().Add(chaosDetectWindow); len(ct.cc.Suspects()) > 0; time.Sleep(50 * time.Millisecond) {
			if time.Now().After(clearBy) {
				return kills, fmt.Errorf("quarantine never cleared after honest restart: suspects=%v", ct.cc.Suspects())
			}
		}
		return kills, stretch("byzantine-heal", chaosSettle)
	}
}

// nodeConfessed reports whether the node's own STATS counter
// share-corrupts-served is nonzero — the daemon-side half of the detection
// chain (what auditctl's SUSPECT verdict keys on).
func nodeConfessed(ct *clusterTarget, id uint32) bool {
	stats, err := ct.cc.NodeStats()
	if err != nil {
		return false
	}
	for _, ns := range stats {
		if ns.Node != id || ns.Err != nil {
			continue
		}
		for _, p := range ns.Resp.Pairs {
			if p.Name == "share-corrupts-served" && p.Value > 0 {
				return true
			}
		}
	}
	return false
}
