package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// The load generator runs as a child process of the benchmark
// ("perfbench --loadgen"): its senders are woken by the kernel instead of
// waiting for the in-process server's goroutines to yield a processor, and
// the server's garbage collector does not stop them. On the reference host
// this cut the generator's lateness p99 from 6–9 ms to 2–3 ms (README.md).
// The benchmark writes one segment per line to the child's standard input
// and reads one result per line from its standard output.

// senders is how many connections and sending goroutines the load generator
// uses: one per CPU, which it shares with the server.
var senders = runtime.NumCPU()

// requestTimeout bounds one request; a timeout counts as a failed op.
const requestTimeout = 30 * time.Second

// segment is one timed segment: its ops sent open-loop at Rate ops/s, or
// closed-loop (Rate 0) by every sender as soon as its last answer is in.
type segment struct {
	Bases []string `json:"bases"`
	Rate  float64  `json:"rate"`
	Ops   []*op    `json:"ops"`
}

type segmentResult struct {
	Samples []sample      `json:"samples"`
	Wall    time.Duration `json:"wall"`
}

// sample is one sent op as the generator saw it. The op itself does not
// travel back from the generator process; the benchmark sets it again.
type sample struct {
	op *op
	// Latency runs from the op's scheduled send time in an open loop, which
	// charges a stalled server for the wait it imposes on later requests,
	// and from the actual send in a closed loop.
	Latency time.Duration
	Service time.Duration // send to answer
	// Late is how long after its scheduled time a sender that slept until
	// then actually sent (Slept set).
	Late    time.Duration
	Slept   bool
	Status  int
	Bytes   int
	Err     string
	Version uint64 // the version the answer reports
	RID     string
}

func (s *sample) ok() bool { return s.Err == "" && s.Status >= 200 && s.Status < 300 }

// generator is a running load-generator process.
type generator struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	enc *json.Encoder
	dec *json.Decoder
}

func startGenerator() (*generator, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "--loadgen")
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start load generator: %w", err)
	}
	return &generator{cmd: cmd, in: in, enc: json.NewEncoder(in), dec: json.NewDecoder(bufio.NewReader(out))}, nil
}

// run has the generator replay ops against the instances at bases (see
// client.replay) and returns their samples and the segment's wall time.
func (g *generator) run(bases []string, ops []*op, rate float64) ([]sample, time.Duration, error) {
	if err := g.enc.Encode(segment{Bases: bases, Rate: rate, Ops: ops}); err != nil {
		return nil, 0, fmt.Errorf("load generator: %w", err)
	}
	var res segmentResult
	if err := g.dec.Decode(&res); err != nil {
		return nil, 0, fmt.Errorf("load generator: %w", err)
	}
	if len(res.Samples) != len(ops) {
		return nil, 0, fmt.Errorf("load generator returned %d samples for %d ops", len(res.Samples), len(ops))
	}
	for i := range res.Samples {
		res.Samples[i].op = ops[i]
	}
	return res.Samples, res.Wall, nil
}

// close ends the generator process and waits for it to exit.
func (g *generator) close() error {
	g.in.Close()
	return g.cmd.Wait()
}

// serveLoadgen is the generator process: segments in on standard input,
// results out on standard output, until standard input closes.
func serveLoadgen() error {
	c := newClient()
	defer c.close()
	dec := json.NewDecoder(bufio.NewReader(os.Stdin))
	enc := json.NewEncoder(os.Stdout)
	for {
		var seg segment
		if err := dec.Decode(&seg); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		samples, wall := c.replay(seg.Bases, seg.Ops, seg.Rate)
		if err := enc.Encode(segmentResult{Samples: samples, Wall: wall}); err != nil {
			return err
		}
	}
}

// client sends requests over loopback HTTP, one connection per sender.
type client struct {
	hc  *http.Client
	ids atomic.Int64
}

func newClient() *client {
	tr := &http.Transport{
		MaxIdleConnsPerHost: senders,
		MaxConnsPerHost:     senders,
		DisableCompression:  true,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: requestTimeout}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// replay sends ops in order from every sender to the instances at bases and
// returns one sample per op and the segment's wall time. With rate > 0 the
// loop is open: op i is due at start + i/rate and waits for a free sender,
// and a sender that is early sleeps until the op is due. With rate 0 every
// sender sends its next op as soon as its last answer is in.
func (c *client) replay(bases []string, ops []*op, rate float64) ([]sample, time.Duration) {
	out := make([]sample, len(ops))
	var interval time.Duration
	if rate > 0 {
		interval = time.Duration(float64(time.Second) / rate)
	}
	t0 := time.Now()
	start := t0.Add(2 * time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				s := &out[i]
				s.op = ops[i]
				due := time.Now()
				if rate > 0 {
					due = start.Add(time.Duration(i) * interval)
					if d := time.Until(due); d > 0 {
						time.Sleep(d)
						s.Slept = true
					}
				}
				sent := time.Now()
				if s.Slept {
					s.Late = sent.Sub(due)
				}
				c.send(bases, s)
				done := time.Now()
				s.Service, s.Latency = done.Sub(sent), done.Sub(due)
			}
		}()
	}
	wg.Wait()
	return out, time.Since(t0)
}

// send issues one op and records its answer.
func (c *client) send(bases []string, s *sample) {
	o := s.op
	s.RID = fmt.Sprintf("pb-%d", c.ids.Add(1))
	var body io.Reader
	if o.Body != nil {
		body = bytes.NewReader(o.Body)
	}
	req, err := http.NewRequest(o.Method, bases[o.Node]+o.Path, body)
	if err != nil {
		s.Err = err.Error()
		return
	}
	req.Header.Set("X-Request-ID", s.RID)
	if o.Body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		s.Err = err.Error()
		return
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.Status, s.Bytes = resp.StatusCode, len(raw)
	if err != nil {
		s.Err = err.Error()
		return
	}
	if !s.ok() {
		return
	}
	if s.Version, err = answerVersion(raw); err != nil {
		s.Err = fmt.Sprintf("%s answer: %v", o.Kind, err)
	}
}

var versionKey = []byte(`"version":`)

// answerVersion reads the top-level version of an answer without decoding
// the rest: every answer the benchmark asks for carries one, and it is the
// first "version" key in each (a batch's nested results come after it).
func answerVersion(raw []byte) (uint64, error) {
	i := bytes.Index(raw, versionKey)
	if i < 0 {
		return 0, errors.New("no version")
	}
	rest := raw[i+len(versionKey):]
	n := 0
	for n < len(rest) && rest[n] >= '0' && rest[n] <= '9' {
		n++
	}
	return strconv.ParseUint(string(rest[:n]), 10, 64)
}

// get fetches one path from one instance and requires a 200.
func (c *client) get(base, path string) ([]byte, error) {
	resp, err := c.hc.Get(base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", path, resp.Status, raw)
	}
	return raw, nil
}

// put sends one JSON body and requires wantStatus.
func (c *client) put(base, path string, v any, wantStatus int) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPut, base+path, bytes.NewReader(b))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != wantStatus {
		return fmt.Errorf("PUT %s: %s: %s", path, resp.Status, raw)
	}
	return nil
}
