package main

import (
	"errors"
	"fmt"
	"io/fs"
	"net"
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

// cleanups holds the undo actions of everything the harness has started
// (child processes, temp dirs). They run on every exit path: normal
// return, fatal error, and SIGINT/SIGTERM.
var cleanups struct {
	mu  sync.Mutex
	fns []func()
}

// onExit registers fn and returns a function that runs and unregisters it.
func onExit(fn func()) (done func()) {
	cleanups.mu.Lock()
	defer cleanups.mu.Unlock()
	cleanups.fns = append(cleanups.fns, fn)
	i := len(cleanups.fns) - 1
	return func() {
		cleanups.mu.Lock()
		var f func()
		if i < len(cleanups.fns) { // not already taken by runCleanups
			f, cleanups.fns[i] = cleanups.fns[i], nil
		}
		cleanups.mu.Unlock()
		if f != nil {
			f()
		}
	}
}

func runCleanups() {
	cleanups.mu.Lock()
	fns := cleanups.fns
	cleanups.fns = nil
	cleanups.mu.Unlock()
	for i := len(fns) - 1; i >= 0; i-- {
		if fns[i] != nil {
			fns[i]()
		}
	}
}

// child is one running ledgerdb-server process.
type child struct {
	cmd     *exec.Cmd
	baseURL string
	exited  chan struct{} // closed once Wait returned
	release func()
}

// freePort asks the kernel for an unused loopback port. The port is
// released before the server binds it, so startServer retries on the
// rare race with another process on a shared host.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startServer launches bin on a free loopback port over dir and waits
// until it answers its health endpoint. It returns the time from exec
// to ready.
func startServer(bin, dir, logPath string, shards int) (*child, time.Duration, error) {
	var lastErr error
	for attempt := 0; attempt < 5; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, 0, fmt.Errorf("pick port: %w", err)
		}
		addr := fmt.Sprintf("127.0.0.1:%d", port)
		args := []string{"-addr", addr, "-uri", benchURI, "-dir", dir}
		if shards > 1 {
			args = append(args, "-shards", strconv.Itoa(shards), "-fold", "1s")
		}
		logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, 0, err
		}
		cmd := exec.Command(bin, args...)
		cmd.Stdout, cmd.Stderr = logf, logf
		start := time.Now()
		err = cmd.Start()
		logf.Close() // the child holds its own descriptor
		if err != nil {
			return nil, 0, fmt.Errorf("start %s: %w", bin, err)
		}
		c := &child{cmd: cmd, baseURL: "http://" + addr, exited: make(chan struct{})}
		c.release = onExit(c.kill)
		go func() {
			_ = cmd.Wait() // exit status is irrelevant: the child is always killed
			close(c.exited)
		}()
		// The router has no /readyz; its /healthz answers once it serves.
		probe := c.baseURL + "/readyz"
		if shards > 1 {
			probe = c.baseURL + "/healthz"
		}
		if err := c.waitReady(probe, 60*time.Second); err != nil {
			c.stop()
			lastErr = err
			continue // most likely lost the port race; pick another
		}
		return c, time.Since(start), nil
	}
	return nil, 0, fmt.Errorf("server did not come up after 5 attempts: %w", lastErr)
}

func (c *child) waitReady(url string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	hc := &http.Client{Timeout: time.Second}
	for time.Now().Before(deadline) {
		select {
		case <-c.exited:
			return errors.New("server exited before becoming ready")
		default:
		}
		resp, err := hc.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("server not ready within %v", timeout)
}

// kill SIGKILLs the child and waits for it to be reaped. The ledger's
// durability contract is "what was flushed survives a kill", so a kill
// is also the honest way to stop it: nothing is tidied up on the way
// out that a crash would not have tidied.
func (c *child) kill() {
	_ = c.cmd.Process.Signal(syscall.SIGKILL) // already-exited is fine
	<-c.exited
}

// stop kills the child and drops its exit hook.
func (c *child) stop() { c.release() }

// cpuTime returns the CPU time the child has used: the on-CPU
// nanoseconds of its threads from /proc/<pid>/task/*/schedstat. The
// utime+stime of /proc/<pid>/stat counts in 10 ms ticks, too coarse for
// a one-second slice of a read workload that uses ~150 ms of server CPU.
// (A thread that exits takes its share with it; the Go runtime parks
// idle threads and does not end them.)
func (c *child) cpuTime() (time.Duration, error) {
	files, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", c.cmd.Process.Pid))
	if err != nil || len(files) == 0 {
		return 0, fmt.Errorf("no schedstat for server pid %d (glob error: %v)", c.cmd.Process.Pid, err)
	}
	var ns uint64
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue // the thread ended between the glob and the read
		}
		fields := strings.Fields(string(b))
		if len(fields) == 0 {
			return 0, fmt.Errorf("unexpected %s: %q", f, b)
		}
		n, err := strconv.ParseUint(fields[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("unexpected %s: %q", f, b)
		}
		ns += n
	}
	return time.Duration(ns), nil
}

// peakRSSMB reads VmHWM, the child's resident-set high-water mark.
func (c *child) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// selfCPU returns this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail with a valid who and pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (uint64, error) {
	var n uint64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			fi, err := d.Info()
			if err != nil {
				return err
			}
			n += uint64(fi.Size())
		}
		return nil
	})
	return n, err
}

// fsTypeOf names the file system holding path (fsync cost depends on it).
func fsTypeOf(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x58465342: "xfs", 0x9123683E: "btrfs", 0x01021994: "tmpfs",
		0x794C7630: "overlayfs", 0x6969: "nfs", 0x2FC12FC1: "zfs", 0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
