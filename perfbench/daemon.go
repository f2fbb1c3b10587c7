package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one running amatchd process.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://host:port
	done chan struct{}
}

// daemons tracks every started process so the harness can stop them all on
// any exit path.
var daemons struct {
	sync.Mutex
	live map[*daemon]bool
}

// startDaemon execs amatchd with args plus a loopback ephemeral -addr,
// appending its log to logPath, and returns once /healthz answers 200 with
// the exec-to-ready time.
func startDaemon(bin, logPath string, args []string) (*daemon, time.Duration, error) {
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	off, err := logf.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// Linux: the daemon dies with the harness even if the harness is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start amatchd: %w", err)
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	go func() { _ = cmd.Wait(); close(d.done) }() // exit status is irrelevant: every stop is a kill
	daemons.Lock()
	if daemons.live == nil {
		daemons.live = map[*daemon]bool{}
	}
	daemons.live[d] = true
	daemons.Unlock()

	deadline := start.Add(60 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-d.done:
			return nil, 0, fmt.Errorf("amatchd exited during start-up; see %s", logPath)
		default:
		}
		if d.base == "" {
			if addr := servingAddr(logPath, off); addr != "" {
				d.base = "http://" + addr
			}
		}
		if d.base != "" {
			if resp, err := http.Get(d.base + "/healthz"); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return d, time.Since(start), nil
				}
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	d.kill()
	return nil, 0, fmt.Errorf("amatchd not ready within 60s; see %s", logPath)
}

// servingAddr scans the log from off for the "serving" line's bound address.
func servingAddr(logPath string, off int64) string {
	f, err := os.Open(logPath)
	if err != nil {
		return ""
	}
	defer f.Close()
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		return ""
	}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var line struct {
			Msg  string `json:"msg"`
			Addr string `json:"addr"`
		}
		if json.Unmarshal(sc.Bytes(), &line) == nil && line.Msg == "serving" {
			return line.Addr
		}
	}
	return ""
}

// kill sends SIGKILL and waits for the process to be reaped.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // fails only if already exited; done still closes
	<-d.done
	daemons.Lock()
	delete(daemons.live, d)
	daemons.Unlock()
}

func killAll() {
	daemons.Lock()
	var all []*daemon
	for d := range daemons.live {
		all = append(all, d)
	}
	daemons.Unlock()
	for _, d := range all {
		d.kill()
	}
}

// peakRSSMB reads the process's VmHWM (peak resident set) in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", d.cmd.Process.Pid)
}

// cpuSeconds returns the CPU time the process's threads have run so far
// (user and system), summed from /proc/<pid>/task/*/schedstat in
// nanoseconds. Unlike wall time it does not grow while a noisy neighbour
// holds the host's CPUs.
func (d *daemon) cpuSeconds() (float64, error) {
	dir := fmt.Sprintf("/proc/%d/task", d.cmd.Process.Pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var ns float64
	for _, t := range tasks {
		b, err := os.ReadFile(dir + "/" + t.Name() + "/schedstat")
		if err != nil {
			continue // the thread exited between the listing and the read
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			continue
		}
		v, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return 0, fmt.Errorf("%s/schedstat: %w", t.Name(), err)
		}
		ns += v
	}
	return ns / 1e9, nil
}

// stealSeconds reads the host's cumulative CPU steal time from /proc/stat:
// time this VM's CPUs were runnable but given to other tenants. Its change
// over a window tells a noisy-neighbour slowdown from a program one.
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100 // USER_HZ
}

// promSample maps "name{labels}" to its value from a /metrics scrape.
type promSample map[string]float64

func (d *daemon) scrape(c *http.Client) (promSample, error) {
	_, body, err := get(c, d.base+"/metrics")
	if err != nil {
		return nil, err
	}
	out := promSample{}
	for _, line := range bytes.Split(body, []byte("\n")) {
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		i := bytes.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(string(line[i+1:]), 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[string(line[:i])] = v
	}
	return out, nil
}

// delta returns after-before for one series (missing series read as 0).
func delta(before, after promSample, series string) float64 {
	return after[series] - before[series]
}

func get(c *http.Client, url string) (int, []byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

func post(c *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// newClient returns an HTTP client holding at most conns loopback
// connections.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 2 * time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}
