package awake

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

const schedIdle = 5 // SCHED_IDLE in <linux/sched.h>

type cpuMask [1024 / 64]uint64

// init never returns in a spinner child.
func init() {
	v := os.Getenv(spinEnv)
	if v == "" {
		return
	}
	cpu, err := strconv.Atoi(v)
	if err != nil || cpu < 0 || cpu >= 1024 {
		os.Exit(2)
	}
	runtime.LockOSThread()
	var mask cpuMask
	mask[cpu/64] = 1 << (cpu % 64)
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); e != 0 {
		os.Exit(3)
	}
	var prio int32 // struct sched_param{0}
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&prio))); e != 0 {
		os.Exit(3)
	}
	os.Stdout.WriteString("spinning\n")
	// Pdeathsig ends the child with its parent; the getppid check is for the
	// case Go documents, that the signal follows the forking thread.
	parent := os.Getppid()
	for i := uint64(1); ; i++ {
		if i&(1<<24-1) == 0 && os.Getppid() != parent {
			os.Exit(0)
		}
	}
}

// Keep starts one spinner per CPU this process may run on and returns how
// many run and a function that kills them and waits until each has ended.
// Where SCHED_IDLE, the affinity call or the re-exec is not to be had it
// starts none and says nothing: the measurement still runs, only in
// whatever regime the host happens to be in.
func Keep() (int, func()) {
	exe, err := os.Executable()
	if err != nil {
		return 0, func() {}
	}
	var mask cpuMask
	n, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
	if e != 0 {
		return 0, func() {}
	}
	var kids []*exec.Cmd
	for cpu := 0; cpu < int(n)*8 && cpu < 1024; cpu++ {
		if mask[cpu/64]&(1<<(cpu%64)) == 0 {
			continue
		}
		k := exec.Command(exe)
		k.Env = append(os.Environ(), spinEnv+"="+strconv.Itoa(cpu), "GOMAXPROCS=1")
		k.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		out, err := k.StdoutPipe()
		if err != nil || k.Start() != nil {
			continue
		}
		ready := make(chan bool, 1)
		go func() {
			line, _ := bufio.NewReader(out).ReadString('\n')
			ready <- line == "spinning\n"
		}()
		select {
		case ok := <-ready:
			if ok {
				kids = append(kids, k)
				continue
			}
		case <-time.After(5 * time.Second):
		}
		k.Process.Kill()
		k.Wait()
	}
	return len(kids), func() {
		for _, k := range kids {
			k.Process.Kill()
		}
		for _, k := range kids {
			k.Wait()
		}
	}
}
