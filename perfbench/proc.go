package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// platformFlags are the command-line flags that put a shipped binary on
// the benchmark's platform.
func platformFlags() []string {
	return []string{
		"-cus", strconv.Itoa(platCUs),
		"-scale", strconv.FormatFloat(platScale, 'g', -1, 64),
		"-apps", strings.Join(platApps, ","),
		"-j", strconv.Itoa(runtime.NumCPU()),
	}
}

// server is one pcstall-serve process under test.
type server struct {
	cmd  *exec.Cmd
	base string
	// drained is closed once the process's stdout has reached EOF.
	drained chan struct{}
}

var listenRE = regexp.MustCompile(`listening on (http://\S+)`)

// startServer launches pcstall-serve on a free port with its result
// cache in dir and returns once /healthz answers 200.
func startServer(bin, dir string) (*server, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	stderr, err := os.Create(filepath.Join(dir, "stderr"))
	if err != nil {
		return nil, err
	}
	defer stderr.Close()
	// stdout is read through a pipe, so the listening line is seen the
	// moment it is written rather than at the next poll of a file.
	r, w, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	args := append([]string{"-addr", "127.0.0.1:0", "-cache-dir", filepath.Join(dir, "cache")}, platformFlags()...)
	cmd := exec.Command(filepath.Join(bin, "pcstall-serve"), args...)
	cmd.Stdout, cmd.Stderr = w, stderr
	err = cmd.Start()
	w.Close() // the child holds its own copy
	if err != nil {
		r.Close()
		return nil, fmt.Errorf("starting pcstall-serve: %w", err)
	}
	s := &server{cmd: cmd, drained: make(chan struct{})}
	listening := make(chan string, 1)
	go func() {
		defer close(s.drained)
		defer r.Close()
		sc := bufio.NewScanner(r)
		for sc.Scan() {
			if m := listenRE.FindStringSubmatch(sc.Text()); m != nil {
				listening <- m[1]
				break
			}
		}
		// Keep draining, so the server never blocks on a full pipe.
		_, _ = io.Copy(io.Discard, r)
	}()
	if err := s.waitReady(listening, 30*time.Second); err != nil {
		s.kill()
		return nil, err
	}
	return s, nil
}

// readyPoll is how often set-up polls /healthz once the server listens.
const readyPoll = 200 * time.Microsecond

// waitReady waits for the listening line, then polls for /healthz 200.
func (s *server) waitReady(listening <-chan string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	select {
	case s.base = <-listening:
	case <-s.drained:
		return fmt.Errorf("pcstall-serve closed its stdout without printing a listening line")
	case <-time.After(timeout):
		return fmt.Errorf("pcstall-serve printed no listening line within %v", timeout)
	}
	for {
		resp, err := http.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("pcstall-serve /healthz not ready within %v (last error %v)", timeout, err)
		}
		time.Sleep(readyPoll)
	}
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// stop drains the server with SIGTERM and waits for it to exit; a
// server that does not exit 0 within the drain budget is killed and
// reported.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.kill()
		return fmt.Errorf("signalling pcstall-serve: %w", err)
	}
	done := make(chan error, 1)
	go func() { done <- s.cmd.Wait() }()
	select {
	case err := <-done:
		<-s.drained
		if err != nil {
			return fmt.Errorf("pcstall-serve drain: %w", err)
		}
		return nil
	case <-time.After(40 * time.Second):
		_ = s.cmd.Process.Kill() // already failing; the wait below reaps it
		<-done
		<-s.drained
		return fmt.Errorf("pcstall-serve did not exit within 40s of SIGTERM")
	}
}

// kill ends the process without a drain and reaps it.
func (s *server) kill() {
	_ = s.cmd.Process.Kill() // the process may already have exited
	_ = s.cmd.Wait()
	<-s.drained
}

// procCPU returns the user+system CPU time a live process has used,
// read from its process CPU clock (clock_gettime on the clock ID that
// clock_getcpuclockid(3) gives for pid) with nanosecond resolution; the
// /proc/<pid>/stat fields count 10 ms ticks, too coarse for a server
// that uses a fraction of a core.
func procCPU(pid int) (time.Duration, error) {
	// The kernel's encoding of a process CPU clock ID: the negated pid
	// shifted past the 3-bit clock type, here CPUCLOCK_SCHED (2).
	clock := uintptr(^pid<<3 | 2)
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clock, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, fmt.Errorf("reading the CPU clock of pid %d: %w", pid, errno)
	}
	return time.Duration(ts.Nano()), nil
}

// procPeakRSS returns a live process's peak resident set (VmHWM) in MiB.
func procPeakRSS(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// cpuSegments reads a process's CPU at the end of each of n equal
// segments of the window that began at start (when the process had used
// cpu0), and returns the CPU each segment used. It returns once the last
// segment has ended.
func cpuSegments(pid int, start time.Time, cpu0 time.Duration, window time.Duration, n int) ([]time.Duration, error) {
	segs := make([]time.Duration, n)
	prev := cpu0
	for k := range segs {
		time.Sleep(time.Until(start.Add(window * time.Duration(k+1) / time.Duration(n))))
		cpu, err := procCPU(pid)
		if err != nil {
			return nil, err
		}
		segs[k], prev = cpu-prev, cpu
	}
	return segs, nil
}
