package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// cliRun is one finished mithrilsim invocation.
type cliRun struct {
	stdout []byte
	wall   time.Duration
	cpu    time.Duration // user + system
	rssKB  int64         // peak resident set
}

// runCLI runs mithrilsim to completion and measures it. A non-zero exit
// is an error carrying the tail of its standard error.
func runCLI(ctx context.Context, bin string, args ...string) (cliRun, error) {
	cmd := exec.CommandContext(ctx, bin, args...)
	var out, errBuf bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errBuf
	start := time.Now()
	err := cmd.Run()
	r := cliRun{stdout: out.Bytes(), wall: time.Since(start)}
	if st := cmd.ProcessState; st != nil {
		r.cpu = st.UserTime() + st.SystemTime()
		if ru, ok := st.SysUsage().(*syscall.Rusage); ok {
			r.rssKB = ru.Maxrss
		}
	}
	if err != nil {
		return r, fmt.Errorf("mithrilsim %s: %w: %s", strings.Join(args, " "), err, tail(errBuf.String()))
	}
	return r, nil
}

func tail(s string) string {
	s = strings.TrimSpace(s)
	if len(s) > 400 {
		s = "..." + s[len(s)-400:]
	}
	return s
}

// server is a running `mithrilsim serve` process.
type server struct {
	cmd     *exec.Cmd
	url     string
	setup   time.Duration // process start until /v1/healthz answered
	drained chan struct{} // closed when its stderr reaches EOF
	mu      sync.Mutex
	log     []string // last stderr lines, for diagnostics
}

// startServer starts `mithrilsim serve` on a kernel-assigned port and
// returns once /v1/healthz answers 200.
func startServer(ctx context.Context, bin string, args ...string) (*server, error) {
	cmd := exec.CommandContext(ctx, bin, append([]string{"serve", "-addr", "127.0.0.1:0"}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, drained: make(chan struct{})}
	urls := make(chan string, 1) // one announce line per server
	go s.readLog(stderr, urls)
	select {
	case s.url = <-urls:
	case <-s.drained:
		s.stop()
		return nil, fmt.Errorf("mithrilsim serve exited before serving: %s", s.lastLog())
	case <-ctx.Done():
		s.stop()
		return nil, ctx.Err()
	}
	client := &http.Client{Timeout: 2 * time.Second}
	for {
		resp, err := client.Get(s.url + "/v1/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if ctx.Err() != nil || time.Since(start) > 30*time.Second {
			s.stop()
			return nil, fmt.Errorf("mithrilsim serve never became healthy: %v %s", err, s.lastLog())
		}
		time.Sleep(200 * time.Microsecond)
	}
	s.setup = time.Since(start)
	client.CloseIdleConnections()
	return s, nil
}

// readLog scans the server's stderr: the announce line yields the base
// URL, later lines are kept for diagnostics. It returns at EOF.
func (s *server) readLog(r io.Reader, urls chan<- string) {
	defer close(s.drained)
	sc := bufio.NewScanner(r)
	announced := false
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, "serving on "); i >= 0 && !announced {
			u := line[i+len("serving on "):]
			if j := strings.IndexByte(u, ' '); j >= 0 {
				u = u[:j]
			}
			announced = true
			urls <- u
		}
		s.mu.Lock()
		s.log = append(s.log, line)
		if len(s.log) > 20 {
			s.log = s.log[1:]
		}
		s.mu.Unlock()
	}
}

func (s *server) lastLog() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return tail(strings.Join(s.log, " | "))
}

// cpu reports the process's user + system CPU time so far.
func (s *server) cpu() time.Duration { return procCPU(s.cmd.Process.Pid) }

// stop terminates the server gracefully and waits for it and its log
// reader. It returns the process's CPU time and peak RSS.
func (s *server) stop() (cpu time.Duration, rssKB int64) {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		_ = s.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-done
	}
	<-s.drained
	if st := s.cmd.ProcessState; st != nil {
		cpu = st.UserTime() + st.SystemTime()
		if ru, ok := st.SysUsage().(*syscall.Rusage); ok {
			rssKB = ru.Maxrss
		}
	}
	return cpu, rssKB
}

// clkTck is the kernel's USER_HZ, the unit of /proc/<pid>/stat times.
const clkTck = 100

// procCPU reads a live process's user + system time from /proc.
func procCPU(pid int) time.Duration {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(data)
	if i := strings.LastIndexByte(s, ')'); i >= 0 {
		s = s[i+2:]
	}
	f := strings.Fields(s)
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	return time.Duration(ut+st) * time.Second / clkTck
}

// procRSS reads a live process's resident set size in bytes from /proc.
func procRSS(pid int) int64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/statm", pid))
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseInt(f[1], 10, 64)
	return pages * int64(os.Getpagesize())
}

// sampleRSS records the summed resident set of the servers every 100 ms
// until the returned stop is called, which returns the samples in MB.
func sampleRSS(servers []*server) (stop func() []float64) {
	done := make(chan struct{})
	out := make(chan []float64, 1) // the one result, sent as the sampler exits
	go func() {
		var xs []float64
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-done:
				out <- xs
				return
			case <-t.C:
				var total int64
				for _, s := range servers {
					total += procRSS(s.cmd.Process.Pid)
				}
				xs = append(xs, float64(total)/(1<<20))
			}
		}
	}()
	return func() []float64 {
		close(done)
		return <-out
	}
}

// copyDir copies a flat or nested directory of regular files.
func copyDir(dst, src string) error {
	return filepath.Walk(src, func(path string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if fi.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}
