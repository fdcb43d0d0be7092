// Package awake keeps the machine's CPUs from halting while a wall-clock
// measurement runs.
//
// A halted virtual CPU takes tens of microseconds to wake, and how long the
// hypervisor polls before it really halts one adapts to the recent past. A
// timing game that compares "a poller runs" against "nothing else runs" then
// measures the halt regime, not the server: with CPUs allowed to halt, a
// tight-loop poller keeps them awake and makes the victim's round trips
// FASTER; with CPUs kept awake it occupies a core and makes them slower.
// Which of the two a run sees depends on the host's last few hundred
// milliseconds, so a classifier trained on one half of the trials can meet
// the opposite polarity in the other (accuracy 0.22: anti-correlated, not
// noisy). Keep removes the variable the way benchmark/idle.go does for the
// ladder (a tuned host boots with idle=poll; this is the same from user
// space): one child process per CPU, pinned to it, spinning under
// SCHED_IDLE. Such a task runs only when its CPU has nothing else to do and
// is preempted the moment anything wakes, so it takes no time from the
// measured program; it only keeps the CPU out of the halted state.
//
// The children are re-executions of the calling binary. Linking this package
// is what makes that safe: its init recognizes a child by its environment
// and never returns there, so no binary that can call Keep can run its own
// main (or its tests) a second time.
package awake

// spinEnv, when set, turns this process into the spinner for that CPU.
const spinEnv = "AUDITREG_AWAKE_SPIN_CPU"
