package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	trajcover "github.com/trajcover/trajcover"
	"github.com/trajcover/trajcover/internal/server"
)

// child is one running tqserve process.
type child struct {
	cmd  *exec.Cmd
	base string
	done chan error
}

// startServer launches tqserve and returns once /healthz answers 200,
// with the time from process start to that answer.
func startServer(bin string, args []string, logPath string) (*child, time.Duration, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = logf
	// The server must not outlive the benchmark, however it exits.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		logf.Close()
		return nil, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("start tqserve: %w", err)
	}
	c := &child{cmd: cmd, done: make(chan error, 1)}
	addr := make(chan string, 1)
	go func() {
		// The listen line is the only one parsed; everything the server
		// prints is kept in the log.
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if i := strings.LastIndex(line, " on "); i >= 0 && strings.HasPrefix(line, "tqserve: serving") {
				select {
				case addr <- line[i+4:]:
				default:
				}
			}
		}
		io.Copy(io.Discard, out)
		c.done <- cmd.Wait()
		logf.Close()
	}()
	deadline := time.After(60 * time.Second)
	select {
	case a := <-addr:
		c.base = "http://" + a
	case err := <-c.done:
		return nil, 0, fmt.Errorf("tqserve exited before listening: %v (see %s)", err, logPath)
	case <-deadline:
		c.kill()
		return nil, 0, fmt.Errorf("tqserve did not listen within 60s (see %s)", logPath)
	}
	hc := &http.Client{Timeout: 5 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	for {
		resp, err := hc.Get(c.base + server.PathHealth)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return c, time.Since(start), nil
			}
		}
		select {
		case <-deadline:
			c.kill()
			return nil, 0, fmt.Errorf("tqserve /healthz not ready within 60s (see %s)", logPath)
		case <-time.After(200 * time.Microsecond):
		}
	}
}

// stop drains the server with SIGTERM and waits for it to exit,
// killing it if the drain overruns.
func (c *child) stop() error {
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return c.kill()
	}
	select {
	case err := <-c.done:
		return err
	case <-time.After(30 * time.Second):
		return c.kill()
	}
}

func (c *child) kill() error {
	c.cmd.Process.Kill()
	<-c.done
	return fmt.Errorf("tqserve killed")
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// outcome is one sent request.
type outcome struct {
	kind opKind
	// latency in ms, +Inf when the op failed; late is how far behind its
	// due time the generator dispatched it (open loop only).
	latency, late float64
	// done is when the answer arrived, from the start of its phase.
	done   time.Duration
	status int
	body   []byte
	err    error
}

// send posts one op and judges the answer: a transport error, a non-2xx
// status or a wrong answer fails the op, and a failed op's latency is
// +Inf. Latency runs from `from`.
func send(c *client, o op, from time.Time, check judge) outcome {
	r := outcome{kind: o.kind}
	r.status, r.body, r.err = c.post(o.kind.path(), o.body)
	r.latency = ms(time.Since(from))
	if r.err == nil && r.status/100 != 2 {
		r.err = fmt.Errorf("%s: HTTP %d: %s", o.kind, r.status, bytes.TrimSpace(r.body))
	}
	if r.err == nil && check != nil {
		r.err = check(o, r)
	}
	if r.err != nil {
		r.latency = math.Inf(1)
	}
	return r
}

type client struct {
	base string
	hc   *http.Client
}

func newClient(base string, conns int) *client {
	return &client{base: base, hc: &http.Client{
		Timeout: time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}}
}

func (c *client) post(path string, body []byte) (int, []byte, error) {
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func (c *client) get(path string, v any) error {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// producer runs a generator ahead of the senders so request bodies are
// ready before they are due.
type producer struct {
	ops  chan op
	stop chan struct{}
	wg   sync.WaitGroup
}

func startProducer(g *generator) *producer {
	// A short lookahead keeps body generation off the send path without
	// holding many large bodies in memory.
	p := &producer{ops: make(chan op, 32), stop: make(chan struct{})}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for {
			select {
			case p.ops <- g.next():
			case <-p.stop:
				return
			}
		}
	}()
	return p
}

func (p *producer) close() {
	close(p.stop)
	p.wg.Wait()
}

// judge checks one answered op against what the run expects of it;
// it returns an error for a wrong answer.
type judge func(o op, res outcome) error

// openLoop sends n ops at Poisson arrival times over `conns`
// connections. Each op's latency runs from its due time, so a stall
// also charges the requests queued behind it.
func openLoop(c *client, p *producer, sched []time.Duration, conns int, check judge) []outcome {
	type job struct {
		pos             int
		o               op
		due, dispatched time.Time
	}
	res := make([]outcome, len(sched))
	queue := make(chan job, len(sched)) // sized to the number of sends: dispatch never blocks
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range queue {
				r := send(c, j.o, j.due, check)
				r.late = ms(j.dispatched.Sub(j.due))
				res[j.pos] = r
			}
		}()
	}
	start := time.Now().Add(10 * time.Millisecond)
	for i, off := range sched {
		o := <-p.ops
		due := start.Add(off)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		queue <- job{pos: i, o: o, due: due, dispatched: time.Now()}
	}
	close(queue)
	wg.Wait()
	return res
}

// closedLoop runs `clients` senders back to back for d.
func closedLoop(c *client, p *producer, clients int, d time.Duration, check judge) []outcome {
	var mu sync.Mutex
	var all []outcome
	var wg sync.WaitGroup
	start := time.Now()
	end := start.Add(d)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []outcome
			for time.Now().Before(end) {
				r := send(c, <-p.ops, time.Now(), check)
				r.done = time.Since(start)
				mine = append(mine, r)
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return all
}

// serverArgs is the tqserve command line for a workload.
func serverArgs(w workload, snapshot, walDir string, workers int) []string {
	args := []string{
		"-addr", "127.0.0.1:0",
		"-snapshot", snapshot,
		"-workers", strconv.Itoa(workers),
		"-timeout", "30s",
	}
	if w.wal {
		args = append(args, "-wal-dir", walDir, "-wal-sync", "always")
	}
	if w.maxDelta > 0 {
		args = append(args, "-maxdelta", strconv.Itoa(w.maxDelta))
	}
	return args
}

// writeSnapshot builds the workload's corpus into a live sharded index
// through the public API and stores it as the TQLIVE01 file tqserve
// restores.
func writeSnapshot(w workload, users []*trajcover.Trajectory, path string) error {
	idx, err := trajcover.NewLiveShardedIndex(users, trajcover.LiveShardOptions{
		Shards: w.shards,
		Index:  trajcover.IndexOptions{Ordering: trajcover.ZOrdering},
	})
	if err != nil {
		return err
	}
	defer idx.Close()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := idx.WriteSnapshot(bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// workers is the core count every workload sizes its pool and clients by.
func workers() int { return runtime.NumCPU() }
