//go:build !linux

package main

import "os/exec"

// dieWithParent is a no-op where the kernel offers no parent-death
// signal: spawned workers are stopped by shutdown only.
func dieWithParent(*exec.Cmd) {}
