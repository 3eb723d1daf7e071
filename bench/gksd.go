package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// gksd is one running server process.
type gksd struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	log  *os.File
	done chan error
}

// startGksd executes bin with args on a free loopback port and waits for
// the first 200 from /healthz; the returned duration is exec to that
// answer. The process's stderr (its log) is appended to logPath.
func startGksd(bin string, args []string, logPath string) (*gksd, time.Duration, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := ln.Addr().String()
	ln.Close()
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stderr = logf
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(runtime.NumCPU()))
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, err
	}
	g := &gksd{cmd: cmd, base: "http://" + addr, log: logf, done: make(chan error, 1)}
	go func() { g.done <- cmd.Wait() }()

	probe := &http.Client{Timeout: time.Second}
	for {
		resp, err := probe.Get(g.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				probe.CloseIdleConnections()
				return g, time.Since(start), nil
			}
		}
		select {
		case err := <-g.done:
			logf.Close()
			return nil, 0, fmt.Errorf("gksd exited during boot (%v); see %s", err, logPath)
		case <-time.After(time.Millisecond):
		}
		if time.Since(start) > 60*time.Second {
			g.stop(syscall.SIGKILL)
			return nil, 0, fmt.Errorf("gksd not healthy after 60s; see %s", logPath)
		}
	}
}

// stop signals the process and waits until it has ended. SIGTERM drains
// and takes the final checkpoint; SIGKILL is the crash.
func (g *gksd) stop(sig syscall.Signal) error {
	defer g.log.Close()
	if err := g.cmd.Process.Signal(sig); err != nil {
		return err
	}
	select {
	case err := <-g.done:
		if sig == syscall.SIGKILL {
			return nil
		}
		return err
	case <-time.After(60 * time.Second):
		g.cmd.Process.Kill()
		<-g.done
		return fmt.Errorf("gksd did not exit within 60s of %v", sig)
	}
}

// scrape reads /metrics into series -> value, the series written exactly
// as exposed, labels included.
func (g *gksd) scrape() (map[string]float64, error) {
	resp, err := http.Get(g.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// procUsage is the kernel's account of the process: memory in KiB from
// /proc/<pid>/status, CPU as user+system time from /proc/<pid>/stat.
type procUsage struct {
	hwmKiB, rssKiB int64
	cpu            time.Duration
}

func (g *gksd) usage() (procUsage, error) {
	var u procUsage
	pid := strconv.Itoa(g.cmd.Process.Pid)
	status, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return u, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		f := strings.Fields(line)
		if len(f) < 2 {
			continue
		}
		switch f[0] {
		case "VmHWM:":
			u.hwmKiB, _ = strconv.ParseInt(f[1], 10, 64)
		case "VmRSS:":
			u.rssKiB, _ = strconv.ParseInt(f[1], 10, 64)
		}
	}
	stat, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return u, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th of the line, in clock ticks of 1/100 s on Linux.
	rest := string(stat[strings.LastIndexByte(string(stat), ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return u, fmt.Errorf("short /proc/%s/stat", pid)
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	u.cpu = time.Duration(ut+st) * 10 * time.Millisecond
	return u, nil
}

// sampleRSS reads the process's resident set every 100 ms, from now until
// the returned function is called; that function returns the samples, in
// MiB, once the sampling has ended.
func (g *gksd) sampleRSS() (stop func() []float64) {
	path := "/proc/" + strconv.Itoa(g.cmd.Process.Pid) + "/statm"
	quit, done := make(chan struct{}), make(chan []float64, 1)
	go func() {
		var samples []float64
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				done <- samples
				return
			case <-tick.C:
			}
			data, err := os.ReadFile(path)
			if err != nil {
				continue
			}
			// The second field is the resident set in pages.
			if f := strings.Fields(string(data)); len(f) > 1 {
				pages, _ := strconv.ParseInt(f[1], 10, 64)
				samples = append(samples, mib(pages*int64(os.Getpagesize())))
			}
		}
	}()
	return func() []float64 {
		close(quit)
		return <-done
	}
}

// selfCPU is the harness's own user+system CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// dirBytes sums the sizes of the regular files directly inside dir (a WAL
// directory is flat); a missing directory counts as empty.
func dirBytes(dir string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n
}

func fileBytes(path string) int64 {
	info, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return info.Size()
}
