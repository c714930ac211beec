package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	// readyTimeout bounds how long a spawned vmd may take to accept
	// /healthz before the run fails.
	readyTimeout = 15 * time.Second

	// requestTimeout bounds one request.
	requestTimeout = 30 * time.Second
)

// daemon is one vmd process and the benchmark's single connection to
// it.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	stderr bytes.Buffer // written by exec until the process is waited for
	exited chan struct{}
	err    error // Wait's result, valid once exited is closed
	*client
}

// startDaemon spawns vmd with its default flags, plus -cachedir when
// dir is set, on a free loopback port, and returns once /healthz
// answers. vmd logs the -addr flag as given rather than the port it
// bound, so readiness is polled. A port taken between probing and
// binding is retried.
func startDaemon(bin, dir string) (*daemon, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		d, err := spawn(bin, dir)
		if err == nil {
			return d, nil
		}
		lastErr = err
		if !strings.Contains(err.Error(), "address already in use") {
			break
		}
	}
	return nil, lastErr
}

func spawn(bin, dir string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	d := &daemon{addr: "127.0.0.1:" + strconv.Itoa(port), exited: make(chan struct{})}
	d.client = newClient(d.addr)
	args := []string{"-addr", d.addr}
	if dir != "" {
		args = append(args, "-cachedir", dir)
	}
	d.cmd = exec.Command(bin, args...)
	d.cmd.Stderr = &d.stderr
	// vmd dies with the benchmark even if the benchmark is killed.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start vmd: %w", err)
	}
	go func() {
		d.err = d.cmd.Wait()
		close(d.exited)
	}()
	deadline := time.Now().Add(readyTimeout)
	for {
		select {
		case <-d.exited:
			return nil, fmt.Errorf("vmd exited before ready (%v): %s", d.err, d.stderr.String())
		default:
		}
		if status, _, err := d.do("GET", "/healthz", nil); err == nil && status == http.StatusOK {
			return d, nil
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("vmd not ready within %v: %s", readyTimeout, d.stderr.String())
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// stop kills the daemon and waits for it to exit.
func (d *daemon) stop() {
	d.hc.CloseIdleConnections()
	_ = d.cmd.Process.Kill() // fails only if the process already exited
	<-d.exited
}

// failure describes a daemon that misbehaved, with its stderr.
func (d *daemon) failure(err error) error {
	d.stop()
	return fmt.Errorf("%w\nvmd stderr:\n%s", err, d.stderr.String())
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// client sends requests to one vmd over a single kept-alive
// connection.
type client struct {
	hc   *http.Client
	base string
	body bytes.Buffer
}

func newClient(addr string) *client {
	return &client{
		hc: &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
			// Bounds a hung daemon; the slowest request takes milliseconds.
			Timeout: requestTimeout,
		},
		base: "http://" + addr,
	}
}

// do sends one request and returns the status and body. The body is
// valid until the next call.
func (c *client) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, c.body.Bytes(), nil
}

// getJSON fetches path and decodes it into v.
func (c *client) getJSON(path string, v any) error {
	status, body, err := c.do("GET", path, nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, status, body)
	}
	return json.Unmarshal(body, v)
}

// compile posts src to /compile.
func (c *client) compile(src string) error {
	body, _ := json.Marshal(map[string]string{"source": src})
	status, resp, err := c.do("POST", "/compile", body)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("compile: status %d: %s", status, resp)
	}
	return nil
}

// stats is the part of vmd's /stats the self-checks read.
type stats struct {
	Requests          int64            `json:"requests"`
	Completed         int64            `json:"completed"`
	CacheHits         int64            `json:"cache_hits"`
	CacheMisses       int64            `json:"cache_misses"`
	CacheEvictions    int64            `json:"cache_evictions"`
	CacheSize         int64            `json:"cache_size"`
	Errors            map[string]int64 `json:"errors"`
	BatchInputResults map[string]int64 `json:"batch_input_results"`
}

// notOK lists every error class other than ok with a nonzero count, for
// whole requests and for batch inputs.
func (s stats) notOK() []string {
	var out []string
	for class, n := range s.Errors {
		if class != "ok" && n != 0 {
			out = append(out, fmt.Sprintf("%s=%d", class, n))
		}
	}
	for class, n := range s.BatchInputResults {
		if class != "ok" && n != 0 {
			out = append(out, fmt.Sprintf("batch input %s=%d", class, n))
		}
	}
	return out
}

// reply is the part of a /run response the checks read.
type reply struct {
	Class   string        `json:"class"`
	Error   string        `json:"error"`
	Output  string        `json:"output"`
	Stack   []int64       `json:"stack"`
	Results []inputResult `json:"results"`
}

// inputResult is one input's outcome in a batch reply.
type inputResult struct {
	Output string  `json:"output"`
	Stack  []int64 `json:"stack"`
	Class  string  `json:"class"`
	Error  string  `json:"error"`
}

var errMismatch = errors.New("response differs from the expected result")

// check decodes one /run response and compares it with the expected
// results.
func check(status int, body []byte, req *request) error {
	var rp reply
	if err := json.Unmarshal(body, &rp); err != nil {
		return fmt.Errorf("decode response: %w", err)
	}
	if status != http.StatusOK || rp.Class != "" {
		return fmt.Errorf("status %d class %q: %s", status, rp.Class, rp.Error)
	}
	return compare(rp, req)
}

// compare checks a reply against the expected results: one for a
// singleton, one per input for a batch.
func compare(rp reply, req *request) error {
	if !req.isBatch() {
		if rp.Output != req.want[0].Output || !sameStack(rp.Stack, req.want[0].Stack) {
			return fmt.Errorf("%w: got %q %v, want %q %v", errMismatch, rp.Output, rp.Stack, req.want[0].Output, req.want[0].Stack)
		}
		return nil
	}
	if len(rp.Results) != len(req.want) {
		return fmt.Errorf("%w: %d batch results for %d inputs", errMismatch, len(rp.Results), len(req.want))
	}
	for i, res := range rp.Results {
		if res.Class != "ok" {
			return fmt.Errorf("batch input %d: class %q: %s", i, res.Class, res.Error)
		}
		if res.Output != req.want[i].Output || !sameStack(res.Stack, req.want[i].Stack) {
			return fmt.Errorf("%w: batch input %d: got %q %v, want %q %v", errMismatch, i, res.Output, res.Stack, req.want[i].Output, req.want[i].Stack)
		}
	}
	return nil
}

func sameStack(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
