//go:build linux

package main

import (
	"os/exec"
	"syscall"
)

// dieWithParent makes the kernel send the spawned worker SIGTERM when
// this process dies, however it dies (SIGKILL included), so no worker
// outlives its coordinator.
func dieWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
}
