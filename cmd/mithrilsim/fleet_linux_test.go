//go:build linux

package main

import (
	"bufio"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// asCLI makes the test binary behave as the mithrilsim binary, so a test
// can start real coordinator processes, which in turn spawn their
// workers from os.Executable() — this same binary, with the same env.
const asCLI = "MITHRILSIM_TEST_AS_CLI"

func TestMain(m *testing.M) {
	if os.Getenv(asCLI) == "1" {
		os.Exit(run())
	}
	os.Exit(m.Run())
}

// TestSpawnedWorkerDiesWithKilledCoordinator pins the parent-death
// signal: a `serve -coordinator -spawn 1` killed with SIGKILL runs no
// shutdown, yet its worker must exit within 5 s instead of living on
// under PID 1.
func TestSpawnedWorkerDiesWithKilledCoordinator(t *testing.T) {
	coord := exec.Command(os.Args[0], "serve", "-coordinator", "-spawn", "1", "-jobs", "1", "-addr", "127.0.0.1:0")
	coord.Env = append(os.Environ(), asCLI+"=1")
	stderr, err := coord.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Start(); err != nil {
		t.Fatal(err)
	}
	worker := 0
	t.Cleanup(func() {
		// Kill everything this test started, whichever path it took.
		_ = coord.Process.Kill()
		_ = coord.Wait()
		if worker != 0 && !exited(worker) {
			_ = syscall.Kill(worker, syscall.SIGKILL)
		}
	})

	// The coordinator announces itself only after its worker announced.
	ready := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if strings.Contains(sc.Text(), "coordinator for 1 workers") {
				ready <- nil
				break
			}
		}
		ready <- sc.Err()
		for sc.Scan() {
		}
	}()
	select {
	case err := <-ready:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("coordinator never announced itself")
	}
	worker = childOf(t, coord.Process.Pid)

	if err := coord.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	_ = coord.Wait()
	deadline := time.Now().Add(5 * time.Second)
	for !exited(worker) {
		if time.Now().After(deadline) {
			t.Fatalf("worker %d still running 5 s after its coordinator was killed", worker)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// childOf returns the PID of parent's only child process.
func childOf(t *testing.T, parent int) int {
	t.Helper()
	stats, _ := filepath.Glob("/proc/[0-9]*/stat")
	var kids []int
	for _, path := range stats {
		pid, ppid, _, ok := procStat(path)
		if ok && ppid == parent {
			kids = append(kids, pid)
		}
	}
	if len(kids) != 1 {
		t.Fatalf("coordinator %d has children %v, want exactly one worker", parent, kids)
	}
	return kids[0]
}

// exited reports whether pid is gone or a zombie awaiting its reaper.
func exited(pid int) bool {
	_, _, state, ok := procStat("/proc/" + strconv.Itoa(pid) + "/stat")
	return !ok || state == "Z"
}

// procStat reads the pid, parent pid and state of one /proc/PID/stat.
func procStat(path string) (pid, ppid int, state string, ok bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, "", false
	}
	// "pid (comm) state ppid ...": comm may hold spaces, so split after
	// its closing parenthesis.
	s := string(data)
	open, end := strings.IndexByte(s, '('), strings.LastIndexByte(s, ')')
	if open < 0 || end < open {
		return 0, 0, "", false
	}
	fields := strings.Fields(s[end+1:])
	if len(fields) < 2 {
		return 0, 0, "", false
	}
	pid, err1 := strconv.Atoi(strings.TrimSpace(s[:open]))
	ppid, err2 := strconv.Atoi(fields[1])
	return pid, ppid, fields[0], err1 == nil && err2 == nil
}
