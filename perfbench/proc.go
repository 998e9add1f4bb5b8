package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Server is one running conserve child process.
type Server struct {
	Name string
	URL  string // http://host:port
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{}
	err  error
}

// ServerConfig describes how to start a conserve process.
type ServerConfig struct {
	Bin        string
	Name       string
	Addr       string
	Args       []string // flags besides -addr
	LogPath    string
	GOMAXPROCS int
}

// freePort reserves an ephemeral loopback port and releases it for a
// child to bind.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// StartServer execs conserve. The caller must Stop it.
func StartServer(cfg ServerConfig) (*Server, error) {
	logf, err := os.OpenFile(cfg.LogPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	args := append([]string{"-addr", cfg.Addr}, cfg.Args...)
	cmd := exec.Command(cfg.Bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// Should this process die without stopping its children, the
	// kernel kills them.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(cfg.GOMAXPROCS), "GOGC="+gogc())
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", cfg.Name, err)
	}
	s := &Server{Name: cfg.Name, URL: "http://" + cfg.Addr, cmd: cmd, log: logf, done: make(chan struct{})}
	go func() {
		s.err = cmd.Wait()
		close(s.done)
	}()
	return s, nil
}

// Pid is the child's process ID.
func (s *Server) Pid() int { return s.cmd.Process.Pid }

// Stop ends the process: SIGTERM (conserve drains), then SIGKILL if it
// has not exited within the grace period. It returns once the process
// has been reaped.
func (s *Server) Stop() {
	select {
	case <-s.done:
	default:
		_ = s.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-s.done:
		case <-time.After(5 * time.Second):
			_ = s.cmd.Process.Kill()
			<-s.done
		}
	}
	s.log.Close()
}

// Exited reports whether the process has ended, with its error.
func (s *Server) Exited() (bool, error) {
	select {
	case <-s.done:
		return true, s.err
	default:
		return false, nil
	}
}

var probeClient = &http.Client{Timeout: 2 * time.Second}

// WaitHealthy polls /healthz until it answers 200; it fails if the
// process exits first or the deadline passes.
func (s *Server) WaitHealthy(ctx context.Context, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		if exited, err := s.Exited(); exited {
			return fmt.Errorf("%s exited during start-up: %v (log: %s)", s.Name, err, s.log.Name())
		}
		resp, err := probeClient.Get(s.URL + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not healthy after %s: %v", s.Name, limit, err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(500 * time.Microsecond):
		}
	}
}

// Metrics scrapes and parses GET /metrics.
func (s *Server) Metrics() (map[string]float64, error) {
	resp, err := probeClient.Get(s.URL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s /metrics: %s", s.Name, resp.Status)
	}
	return ParseMetrics(resp.Body)
}

// ParseMetrics parses Prometheus text exposition: "name value" lines,
// comments skipped. Labelled series keep their labels in the name.
func ParseMetrics(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: line %q: %w", line, err)
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out, sc.Err()
}

// Delta subtracts two scrapes, name by name.
func Delta(before, after map[string]float64) map[string]float64 {
	d := make(map[string]float64, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// ProcStat is what /proc says about a process.
type ProcStat struct {
	CPU   time.Duration // utime + stime
	HWMKB int64         // VmHWM, peak resident set
}

// clockTicks is USER_HZ, which Linux fixes at 100 for /proc/<pid>/stat.
const clockTicks = 100

// ReadProc reads /proc/<pid>/stat and /proc/<pid>/status ("self" for
// this process).
func ReadProc(pid string) (ProcStat, error) {
	var ps ProcStat
	stat, err := os.ReadFile(filepath.Join("/proc", pid, "stat"))
	if err != nil {
		return ps, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(stat)
	rest := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(rest) < 13 {
		return ps, errors.New("proc: short stat line")
	}
	ut, err1 := strconv.ParseInt(rest[11], 10, 64)
	st, err2 := strconv.ParseInt(rest[12], 10, 64)
	if err1 != nil || err2 != nil {
		return ps, fmt.Errorf("proc: bad stat times: %v %v", err1, err2)
	}
	ps.CPU = time.Duration(ut+st) * time.Second / clockTicks
	status, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return ps, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(v)
			if len(f) > 0 {
				ps.HWMKB, _ = strconv.ParseInt(f[0], 10, 64)
			}
		}
	}
	return ps, nil
}

// HostCPU is the first line of /proc/stat: cumulative CPU time of the
// whole machine, in clock ticks.
type HostCPU struct{ Total, Steal, IOWait uint64 }

// ReadHostCPU reads /proc/stat. Steal and iowait show how much of a
// window the hypervisor and the disk took: figures from a window with
// much of either measure the host, not the code.
func ReadHostCPU() (HostCPU, error) {
	var h HostCPU
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return h, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return h, errors.New("proc: unexpected /proc/stat")
	}
	// user nice system idle iowait irq softirq steal
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseUint(f[i], 10, 64)
		if err != nil {
			return h, fmt.Errorf("proc: /proc/stat: %w", err)
		}
		h.Total += v
		switch i {
		case 5:
			h.IOWait = v
		case 8:
			h.Steal = v
		}
	}
	return h, nil
}

// Since returns the steal and iowait shares between two readings.
func (h HostCPU) Since(before HostCPU) (steal, iowait float64) {
	d := float64(h.Total - before.Total)
	if d == 0 {
		return 0, 0
	}
	return float64(h.Steal-before.Steal) / d, float64(h.IOWait-before.IOWait) / d
}

// DirSize is the total size of the regular files under dir (0 if it
// does not exist).
func DirSize(dir string) int64 {
	var total int64
	filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return total
}

// FileSize is the size of one file (0 if absent).
func FileSize(path string) int64 {
	info, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return info.Size()
}

func gogc() string {
	if v := os.Getenv("GOGC"); v != "" {
		return v
	}
	return "100"
}
