package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

// server is one running cmd/serve process on a loopback port.
type server struct {
	cmd    *exec.Cmd
	base   string
	logf   *os.File
	exited chan struct{}
	err    error // the process's exit error, valid once exited is closed
}

// jobsFlags are the flags serve-jobs adds to serve's defaults.
func jobsFlags(dir string) []string {
	return []string{"-jobs-dir", dir, "-jobs-queue", "64"}
}

// startServe execs serve with default flags plus extra, logging into dir,
// and returns once /readyz answers 200 (polled every 1 ms), with the time
// from exec to that answer.
func startServe(e *env, dir string, extra ...string) (*server, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(filepath.Join(dir, "serve.log"))
	if err != nil {
		return nil, 0, err
	}
	s := &server{
		cmd:    exec.Command(e.serveBin, append([]string{"-addr", "127.0.0.1:" + port}, extra...)...),
		base:   "http://127.0.0.1:" + port,
		logf:   logf,
		exited: make(chan struct{}),
	}
	s.cmd.Stdout, s.cmd.Stderr = logf, logf
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("starting %s: %w", e.serveBin, err)
	}
	go func() {
		s.err = s.cmd.Wait()
		close(s.exited)
	}()
	probe := &http.Client{Timeout: time.Second}
	defer probe.CloseIdleConnections()
	for {
		resp, err := probe.Get(s.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		select {
		case <-s.exited:
			logf.Close()
			return nil, 0, fmt.Errorf("serve exited before it was ready (%v): %s", s.err, logTail(logf.Name()))
		case <-time.After(time.Millisecond):
		}
		if time.Since(start) > 30*time.Second {
			_ = s.stop()
			return nil, 0, fmt.Errorf("serve not ready after 30s: %s", logTail(logf.Name()))
		}
	}
}

// stop sends SIGTERM (serve's graceful shutdown), kills the process if it
// has not exited after 20 s, and waits for it.
func (s *server) stop() error {
	defer s.logf.Close()
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
		return fmt.Errorf("serve ignored SIGTERM for 20s; killed")
	}
	if s.err != nil {
		return fmt.Errorf("serve exited with %v: %s", s.err, logTail(s.logf.Name()))
	}
	return nil
}

// logTail returns the end of serve's log, for error messages (the log
// itself lives in a directory the run removes).
func logTail(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return err.Error()
	}
	if len(data) > 2048 {
		data = data[len(data)-2048:]
	}
	return string(bytes.TrimSpace(data))
}

// vm reads one of serve's memory fields in MiB (see vmMB).
func (s *server) vm(field string) (float64, error) {
	return vmMB(strconv.Itoa(s.cmd.Process.Pid), field)
}

func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return strconv.Itoa(ln.Addr().(*net.TCPAddr).Port), nil
}

// serveStart times one cold start of serve: a fresh process (and, for
// serve-jobs, a fresh job directory) from exec to the first 200 on
// /readyz.
func serveStart(withJobs bool) func(e *env) (time.Duration, error) {
	return func(e *env) (time.Duration, error) {
		dir, err := os.MkdirTemp(e.workDir, "coldstart-")
		if err != nil {
			return 0, err
		}
		defer os.RemoveAll(dir)
		var extra []string
		if withJobs {
			extra = jobsFlags(filepath.Join(dir, "jobs"))
		}
		s, d, err := startServe(e, dir, extra...)
		if err != nil {
			return 0, err
		}
		return d, s.stop()
	}
}

// client issues JSON requests to one server over at most two keep-alive
// connections — the benchmark's whole load.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	return &client{
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     2,
			MaxIdleConnsPerHost: 2,
			DisableCompression:  true,
		}},
		base: base,
	}
}

// do sends in (if non-nil) as JSON and decodes a 2xx body into out (if
// non-nil), returning the status code.
func (c *client) do(ctx context.Context, method, path string, in, out any) (int, error) {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return 0, err
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return 0, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, fmt.Errorf("%s %s: reading the response: %w", method, path, err)
	}
	if resp.StatusCode/100 == 2 && out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: decoding the response: %w", method, path, err)
		}
	}
	return resp.StatusCode, nil
}

// scrape reads and parses serve's /metrics.
func (c *client) scrape(ctx context.Context) (exposition, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	return parseExposition(string(data))
}

// countStatus tallies 4xx and 5xx answers for the http.status_* metrics.
func countStatus(code int, s4xx, s5xx *int) {
	switch code / 100 {
	case 4:
		*s4xx++
	case 5:
		*s5xx++
	}
}
