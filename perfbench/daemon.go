package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/freq/server"
)

// daemon is one freqd process started by the benchmark.
type daemon struct {
	args []string
	addr string
	cmd  *exec.Cmd
	// logDone closes when the stderr reader has seen EOF, which happens
	// once the process has exited; only then may cmd.Wait run.
	logDone chan struct{}
	mu      sync.Mutex
	log     []string // last stderr lines, for error reports
}

// startDaemon runs freqd with args on an ephemeral loopback port and
// returns once it answers STATS.
func startDaemon(bin string, args []string) (*daemon, error) {
	full := append([]string{"-listen", "127.0.0.1:0", "-drain-timeout", "2s"}, args...)
	cmd := exec.Command(bin, full...)
	// A benchmark killed mid-run must not leave its daemons behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start freqd: %w", err)
	}
	d := &daemon{args: args, cmd: cmd, logDone: make(chan struct{})}
	addrc := make(chan string, 1)
	go d.readLog(stderr, addrc)
	select {
	case d.addr = <-addrc:
	case <-d.logDone:
		d.stop()
		return nil, fmt.Errorf("freqd %v exited before listening: %s", args, d.lastLog())
	case <-time.After(20 * time.Second):
		d.stop()
		return nil, fmt.Errorf("freqd %v did not report its address: %s", args, d.lastLog())
	}
	c, err := server.Dial[int64](d.addr, server.WithDialTimeout(5*time.Second), server.WithIOTimeout(5*time.Second))
	if err == nil {
		_, _, err = c.Stats()
		c.Close()
	}
	if err != nil {
		d.stop()
		return nil, fmt.Errorf("freqd %v not ready: %w", args, err)
	}
	return d, nil
}

// readLog consumes freqd's stderr, passing the listen address on once.
func (d *daemon) readLog(r io.Reader, addrc chan<- string) {
	defer close(d.logDone)
	sc := bufio.NewScanner(r)
	sent := false
	for sc.Scan() {
		line := sc.Text()
		d.mu.Lock()
		d.log = append(d.log, line)
		if len(d.log) > 20 {
			d.log = d.log[1:]
		}
		d.mu.Unlock()
		if _, rest, ok := strings.Cut(line, "listening on "); ok && !sent {
			addrc <- strings.Fields(rest)[0]
			sent = true
		}
	}
}

func (d *daemon) lastLog() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.log, " | ")
}

// stop drains the daemon with SIGTERM, kills it if the drain does not
// finish within ten seconds, and waits for the process to end.
func (d *daemon) stop() error {
	if d.cmd.ProcessState != nil {
		return nil
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.logDone:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.logDone
	}
	err := d.cmd.Wait()
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return fmt.Errorf("freqd %v: %v: %s", d.args, err, d.lastLog())
	}
	return err
}

// cpuSample is this machine's CPU time since boot from /proc/stat:
// the time its CPUs ran (user, nice, system, irq and softirq) and the
// time the hypervisor took from them for other guests (steal). Both
// are 0 where the kernel does not report them. A run whose steal grew
// a lot shared its CPUs with other guests.
type cpuSample struct{ busy, steal time.Duration }

func hostCPU() cpuSample {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuSample{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuSample{}
	}
	ticks := func(cols ...int) time.Duration {
		var n int64
		for _, c := range cols {
			v, _ := strconv.ParseInt(f[c], 10, 64)
			n += v
		}
		return time.Duration(n) * 10 * time.Millisecond
	}
	return cpuSample{busy: ticks(1, 2, 3, 6, 7), steal: ticks(8)}
}

// procSample is what /proc reports about a process: CPU time, resident
// set and its peak.
type procSample struct {
	cpu          time.Duration
	rssKB, hwmKB int64
}

// sampleProc reads pid's user+system CPU time and VmHWM from /proc.
func sampleProc(pid int) (procSample, error) {
	var s procSample
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return s, err
	}
	// The command field may hold spaces; the fields after it start past
	// its closing parenthesis. utime and stime are fields 14 and 15.
	i := strings.LastIndexByte(string(stat), ')')
	f := strings.Fields(string(stat[i+1:]))
	if len(f) < 13 {
		return s, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return s, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	// Linux reports these in USER_HZ ticks, 100 per second on every
	// architecture Go supports.
	s.cpu = time.Duration(utime+stime) * 10 * time.Millisecond
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return s, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		key, rest, _ := strings.Cut(line, ":")
		kb := strings.Fields(rest)
		if len(kb) == 0 {
			continue
		}
		switch key {
		case "VmRSS":
			s.rssKB, _ = strconv.ParseInt(kb[0], 10, 64)
		case "VmHWM":
			s.hwmKB, _ = strconv.ParseInt(kb[0], 10, 64)
		}
	}
	return s, nil
}
