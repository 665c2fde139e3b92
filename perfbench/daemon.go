package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"roughsurface/internal/par"
)

// daemon is one rrsd process started with its default flags, bound to
// a free loopback port.
type daemon struct {
	cmd      *exec.Cmd
	pid      int
	base     string
	portfile string
	waitc    <-chan error // receives cmd.Wait's result once
	exited   bool
	waitErr  error
}

// startDaemon execs rrsd and returns once /healthz answers 200. Only
// the listen address and the port file are set; every other flag keeps
// its default, access logging included (to /dev/null).
func startDaemon(ctx context.Context, bin, runDir string, n int) (*daemon, error) {
	portfile := filepath.Join(runDir, fmt.Sprintf("rrsd-%d-%d.addr", os.Getpid(), n))
	_ = os.Remove(portfile) // a stale file from a killed run would name a dead port
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-portfile", portfile)
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting rrsd: %w", err)
	}
	d := &daemon{cmd: cmd, pid: cmd.Process.Pid, portfile: portfile, waitc: par.Background(cmd.Wait)}
	if err := d.awaitReady(ctx); err != nil {
		if serr := d.stop(); serr != nil {
			err = fmt.Errorf("%w; stopping rrsd: %v", err, serr)
		}
		return nil, err
	}
	return d, nil
}

// hasExited reports whether rrsd has exited, collecting its status.
func (d *daemon) hasExited() bool {
	if !d.exited {
		select {
		case d.waitErr = <-d.waitc:
			d.exited = true
		default:
		}
	}
	return d.exited
}

// awaitReady polls for the port file, then for a healthy /healthz.
func (d *daemon) awaitReady(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	hc := &http.Client{Transport: &http.Transport{Proxy: nil, DisableKeepAlives: true}}
	for {
		if d.hasExited() {
			return fmt.Errorf("rrsd exited during start-up: %v", d.waitErr)
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("rrsd not healthy: %w", ctx.Err())
		case <-time.After(time.Millisecond):
		}
		if d.base == "" {
			addr, err := os.ReadFile(d.portfile)
			if err != nil || !strings.Contains(string(addr), ":") {
				continue // not written yet, or written only in part
			}
			d.base = "http://" + strings.TrimSpace(string(addr))
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := hc.Do(req)
		if err != nil {
			continue
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return nil
		}
	}
}

// stop sends SIGTERM (rrsd drains and exits 0), kills the process if
// it has not exited within 20 s, and waits for it either way.
func (d *daemon) stop() error {
	defer os.Remove(d.portfile)
	if !d.hasExited() {
		_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
		select {
		case d.waitErr = <-d.waitc:
		case <-time.After(20 * time.Second):
			_ = d.cmd.Process.Kill()
			<-d.waitc
			d.waitErr = errors.New("rrsd ignored SIGTERM for 20 s; killed")
		}
		d.exited = true
	}
	if d.waitErr != nil {
		return fmt.Errorf("rrsd: %w", d.waitErr)
	}
	return nil
}
