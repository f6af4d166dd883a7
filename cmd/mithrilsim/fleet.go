package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
)

// fleetConfigured reports whether the invocation named a worker fleet.
func (e env) fleetConfigured() bool { return e.workers != "" || e.spawn > 0 }

// fleet resolves the configured worker set: the -workers URL list
// verbatim, or -spawn N freshly started local worker processes (the
// single-machine smoke path; 0 with no -workers means 2). shutdown
// terminates any spawned workers and must be called when the fleet is
// done — for a -workers fleet it is a no-op (those processes belong to
// someone else).
func (e env) fleet(ctx context.Context) (workers []string, shutdown func(), err error) {
	if e.workers != "" {
		if e.spawn > 0 {
			return nil, nil, fmt.Errorf("-workers and -spawn are mutually exclusive (join an existing fleet or start a local one)")
		}
		var ws []string
		for _, w := range strings.Split(e.workers, ",") {
			if w = strings.TrimSpace(w); w != "" {
				ws = append(ws, w)
			}
		}
		if len(ws) == 0 {
			return nil, nil, fmt.Errorf("-workers: no worker URLs in %q", e.workers)
		}
		return ws, func() {}, nil
	}
	n := e.spawn
	if n <= 0 {
		n = 2
	}
	return spawnWorkers(ctx, n, e.jobs)
}

// spawnWorkers starts n local worker processes (this binary, `serve
// -addr 127.0.0.1:0`) and returns their base URLs once each has
// announced its bound port. Workers get no -store: the disk store is a
// single-process resource, so dedup happens at the coordinator, which
// owns the store and never dispatches a row it already holds.
func spawnWorkers(ctx context.Context, n, jobs int) (workers []string, shutdown func(), err error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, fmt.Errorf("locating own binary to spawn workers: %w", err)
	}
	type spawned struct {
		cmd  *exec.Cmd
		logs chan struct{} // closed once the worker's stderr reaches EOF
	}
	var procs []spawned
	shutdown = func() {
		// TERM first for a graceful drain (the worker's signal context
		// shuts its HTTP server down), then reap; ctx cancellation is
		// the hard-kill backstop via CommandContext. Wait closes the
		// stderr pipe, so let the forwarder reach EOF (the worker has
		// exited) first, or the worker's last log lines are lost.
		for _, p := range procs {
			_ = p.cmd.Process.Signal(syscall.SIGTERM)
		}
		for _, p := range procs {
			<-p.logs
			_ = p.cmd.Wait()
		}
	}
	for i := 0; i < n; i++ {
		args := []string{"serve", "-addr", "127.0.0.1:0"}
		if jobs != 0 {
			args = append(args, "-jobs", strconv.Itoa(jobs))
		}
		cmd := exec.CommandContext(ctx, exe, args...)
		// A coordinator killed outright never runs shutdown: have the
		// kernel TERM the worker when its parent dies.
		dieWithParent(cmd)
		stderr, err := cmd.StderrPipe()
		if err != nil {
			shutdown()
			return nil, nil, err
		}
		if err := cmd.Start(); err != nil {
			shutdown()
			return nil, nil, fmt.Errorf("spawning worker %d: %w", i, err)
		}
		logs := make(chan struct{})
		procs = append(procs, spawned{cmd: cmd, logs: logs})
		buf := bufio.NewReader(stderr)
		url, err := awaitAnnounce(buf)
		// Keep forwarding the worker's log lines until EOF, when the
		// worker exits.
		go func() {
			defer close(logs)
			_, _ = io.Copy(os.Stderr, buf)
		}()
		if err != nil {
			shutdown()
			return nil, nil, fmt.Errorf("worker %d never announced its address: %w", i, err)
		}
		workers = append(workers, url)
	}
	fmt.Fprintf(os.Stderr, "mithrilsim: spawned %d local workers: %s\n", n, strings.Join(workers, " "))
	return workers, shutdown, nil
}

// awaitAnnounce scans a worker's stderr for the serve announce line
// ("mithrilsim: serving on http://HOST:PORT (...)") and extracts the
// base URL — with -addr 127.0.0.1:0 this is the only way to learn the
// kernel-assigned port.
func awaitAnnounce(r *bufio.Reader) (string, error) {
	for {
		line, err := r.ReadString('\n')
		if i := strings.Index(line, "serving on "); i >= 0 {
			url := line[i+len("serving on "):]
			if j := strings.IndexAny(url, " \n"); j >= 0 {
				url = url[:j]
			}
			if url != "" {
				return url, nil
			}
		}
		if err != nil {
			return "", fmt.Errorf("worker exited before serving (%v)", err)
		}
	}
}
