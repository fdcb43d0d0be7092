package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// A halted virtual CPU takes tens of microseconds to wake, and how long the
// hypervisor polls before it really halts one adapts to the recent past, so a
// closed loop over loopback TCP — whose every hop wakes a goroutine on a CPU
// that just went idle — runs in regimes: on the reference VM the same boot of
// remote-read moved between 27 000 and 105 000 ops/s from one 100 ms slice to
// the next, and that, not the program, was the run-to-run spread. A tuned
// host boots with idle=poll; the benchmark does the same from user space: one
// child process per CPU, pinned to it, spinning under SCHED_IDLE. Such a task
// runs only when its CPU has nothing else to do and is preempted the moment
// anything wakes, so it takes no time from the program; it only keeps the CPU
// out of the halted state. The children are separate processes so that their
// time is not in the benchmark's own getrusage (cpu_us_per_op).

// spinEnv, when set, turns this process into the spinner for that CPU.
const spinEnv = "LADDER_IDLE_SPIN_CPU"

const schedIdle = 5 // SCHED_IDLE in <linux/sched.h>

// spinIfChild never returns in a spinner child.
func spinIfChild() {
	v := os.Getenv(spinEnv)
	if v == "" {
		return
	}
	cpu, err := strconv.Atoi(v)
	if err != nil || cpu < 0 || cpu >= 1024 {
		os.Exit(2)
	}
	runtime.LockOSThread()
	var mask [1024 / 64]uint64
	mask[cpu/64] = 1 << (cpu % 64)
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); e != 0 {
		os.Exit(3)
	}
	var prio int32 // struct sched_param{0}
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&prio))); e != 0 {
		os.Exit(3)
	}
	fmt.Println("spinning")
	// Pdeathsig ends the child with its parent; the getppid check is for the
	// case Go documents, that the signal follows the forking thread.
	parent := os.Getppid()
	for i := uint64(1); ; i++ {
		if i&(1<<24-1) == 0 && os.Getppid() != parent {
			os.Exit(0)
		}
	}
}

// allowedCPUs lists the CPUs this process may run on.
func allowedCPUs() []int {
	var mask [1024 / 64]uint64
	n, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
	if e != 0 {
		return nil
	}
	var cpus []int
	for i := 0; i < int(n)*8 && i < 1024; i++ {
		if mask[i/64]&(1<<(i%64)) != 0 {
			cpus = append(cpus, i)
		}
	}
	return cpus
}

// keepAwake starts the spinners and returns how many run and a function that
// kills them and waits until each has ended. Where SCHED_IDLE or the re-exec
// is not to be had it starts none: the run still measures, only less steadily,
// and the header says so.
func keepAwake() (int, func()) {
	exe, err := os.Executable()
	if err != nil {
		return 0, func() {}
	}
	var kids []*exec.Cmd
	stop := func() {
		for _, k := range kids {
			_ = k.Process.Kill()
		}
		for _, k := range kids {
			_ = k.Wait()
		}
	}
	for _, cpu := range allowedCPUs() {
		k := exec.Command(exe)
		k.Env = append(os.Environ(), spinEnv+"="+strconv.Itoa(cpu), "GOMAXPROCS=1")
		k.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		out, err := k.StdoutPipe()
		if err != nil {
			continue
		}
		if err := k.Start(); err != nil {
			continue
		}
		ready := make(chan bool, 1)
		go func() {
			line, _ := bufio.NewReader(out).ReadString('\n')
			ready <- line == "spinning\n"
		}()
		ok := false
		select {
		case ok = <-ready:
		case <-time.After(5 * time.Second):
		}
		if !ok {
			_ = k.Process.Kill()
			_ = k.Wait()
			continue
		}
		kids = append(kids, k)
	}
	return len(kids), stop
}
