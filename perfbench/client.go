package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/service"
)

// apiClient drives the public REST API over at most conns connections.
type apiClient struct {
	hc    *http.Client
	base  string
	conns connCounter
}

func newClient(base string, conns int) *apiClient {
	c := &apiClient{base: base}
	dialer := &net.Dialer{Timeout: 10 * time.Second}
	tr := &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			conn, err := dialer.DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			c.conns.open()
			return &countedConn{Conn: conn, c: &c.conns}, nil
		},
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     time.Minute,
		DisableCompression:  true,
	}
	c.hc = &http.Client{Transport: tr, Timeout: 150 * time.Second}
	return c
}

// connCounter tracks the client's open connections and their peak.
type connCounter struct {
	mu        sync.Mutex
	now, peak int
}

func (c *connCounter) open() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now++
	if c.now > c.peak {
		c.peak = c.now
	}
}

func (c *connCounter) closed() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now--
}

func (c *connCounter) max() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.peak
}

type countedConn struct {
	net.Conn
	c    *connCounter
	once sync.Once
}

func (cc *countedConn) Close() error {
	cc.once.Do(cc.c.closed)
	return cc.Conn.Close()
}

// drain reads a response body to its end and closes it, so the connection
// goes back to the pool instead of being closed.
func drain(resp *http.Response) {
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // the connection is closed on error
	resp.Body.Close()
}

func (c *apiClient) close() { c.hc.CloseIdleConnections() }

func (c *apiClient) do(method, path, key, accept string, body io.Reader) (*http.Response, error) {
	req, err := http.NewRequest(method, c.base+path, body)
	if err != nil {
		return nil, err
	}
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	return c.hc.Do(req)
}

// getJSON fetches path and decodes a 200 response into v.
func (c *apiClient) getJSON(path, key string, v any) error {
	resp, err := c.do(http.MethodGet, path, key, "", nil)
	if err != nil {
		return err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return statusError(resp)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func statusError(resp *http.Response) error {
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	return fmt.Errorf("%s %s: status %d: %s", resp.Request.Method, resp.Request.URL.Path, resp.StatusCode, bytes.TrimSpace(msg))
}

// upload posts one table and returns its handle.
func (c *apiClient) upload(t tableDef) (string, error) {
	resp, err := c.do(http.MethodPost, "/v1/tables?name="+t.Name, t.Key, "", bytes.NewReader(t.CSV))
	if err != nil {
		return "", err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusCreated {
		return "", statusError(resp)
	}
	var info service.TableInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return "", err
	}
	if info.Rows != t.Rows {
		return "", fmt.Errorf("upload %s: stored %d rows, sent %d", t.Name, info.Rows, t.Rows)
	}
	return info.ID, nil
}

// outcome is what the client observed for one job.
type outcome struct {
	ID      string
	Latency time.Duration
	// Err is set when the job failed, or the API answered unexpectedly.
	Err string
	// Status is the terminal snapshot from the event stream.
	Status service.Status
	// LevelEvents counts streamed level events, WarmEvents those seeded from
	// the level index; ComputedKs are the levels the job computed itself.
	LevelEvents, WarmEvents int
	ComputedKs              []int
	// The result body as downloaded: its digest, line count and first
	// bytes.
	BodyHash  string
	BodyLines int
	BodyHead  []byte
}

const headBytes = 1024

// runJob submits one job, follows its event stream to the terminal event
// and downloads its result. Latency runs from sending the submission to
// reading the last byte of the result.
func (c *apiClient) runJob(j jobDef, ids []string) (o outcome) {
	spec := j.Spec
	spec.Table, spec.Aux = ids[j.P], ids[j.Q]
	payload, err := json.Marshal(spec)
	if err != nil {
		o.Err = err.Error()
		return o
	}
	start := time.Now()
	resp, err := c.do(http.MethodPost, "/v1/jobs", j.Key, "", bytes.NewReader(payload))
	if err != nil {
		o.Err = err.Error()
		return o
	}
	var st service.Status
	if resp.StatusCode == http.StatusAccepted {
		err = json.NewDecoder(resp.Body).Decode(&st)
	} else {
		err = statusError(resp) // a refusal (429) fails the job like any error
	}
	drain(resp)
	if err != nil {
		o.Err = err.Error()
		return o
	}
	o.ID = st.ID
	if err := c.followEvents(j.Key, &o); err != nil {
		o.Err = err.Error()
		return o
	}
	if o.Status.State != service.StateDone {
		o.Err = fmt.Sprintf("job %s ended %s: %s", o.ID, o.Status.State, o.Status.Error)
		return o
	}
	if err := c.download(j.Key, &o); err != nil {
		o.Err = err.Error()
		return o
	}
	o.Latency = time.Since(start)
	return o
}

// followEvents reads the job's NDJSON event stream to its terminal status.
func (c *apiClient) followEvents(key string, o *outcome) error {
	resp, err := c.do(http.MethodGet, "/v1/jobs/"+o.ID+"/events", key, "application/x-ndjson", nil)
	if err != nil {
		return err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return statusError(resp)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	terminal := false
	for sc.Scan() {
		var ev service.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return fmt.Errorf("events of %s: %w", o.ID, err)
		}
		switch ev.Type {
		case service.EventLevel:
			o.LevelEvents++
			if ev.Source == "warm" {
				o.WarmEvents++
			} else if ev.Level != nil {
				o.ComputedKs = append(o.ComputedKs, ev.Level.K)
			}
		case service.EventStatus:
			o.Status = *ev.Status
			terminal = true
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("events of %s: %w", o.ID, err)
	}
	if !terminal {
		return fmt.Errorf("events of %s: stream closed without a terminal status", o.ID)
	}
	return nil
}

// download reads the result body, digesting it as it arrives.
func (c *apiClient) download(key string, o *outcome) error {
	resp, err := c.do(http.MethodGet, "/v1/jobs/"+o.ID+"/result", key, "", nil)
	if err != nil {
		return err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return statusError(resp)
	}
	h := sha256.New()
	buf := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(buf)
		chunk := buf[:n]
		h.Write(chunk)
		o.BodyLines += bytes.Count(chunk, []byte{'\n'})
		if room := headBytes - len(o.BodyHead); room > 0 {
			o.BodyHead = append(o.BodyHead, chunk[:minInt(room, n)]...)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("result of %s: %w", o.ID, err)
		}
	}
	o.BodyHash = hex.EncodeToString(h.Sum(nil))
	return nil
}

// fetchResult downloads a result body whole (used off the clock).
func (c *apiClient) fetchResult(key, id string) ([]byte, error) {
	resp, err := c.do(http.MethodGet, "/v1/jobs/"+id+"/result", key, "", nil)
	if err != nil {
		return nil, err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return nil, statusError(resp)
	}
	return io.ReadAll(resp.Body)
}

// closedLoop runs the job list with w.Clients clients, each sending its
// next job only once the previous one has completed. Jobs are dealt in list
// order from a shared counter, in w.Rounds consecutive rounds; a round
// starts when the previous one has completed. It returns each round's wall
// time.
func closedLoop(c *apiClient, w *workload, ids []string) ([]outcome, []time.Duration) {
	outs := make([]outcome, len(w.Jobs))
	walls := make([]time.Duration, w.Rounds)
	for r := range walls {
		lo, hi := roundBounds(len(w.Jobs), w.Rounds, r)
		var next atomic.Int64
		next.Store(int64(lo))
		var wg sync.WaitGroup
		start := time.Now()
		for i := 0; i < w.Clients; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					n := int(next.Add(1) - 1)
					if n >= hi {
						return
					}
					outs[n] = c.runJob(w.Jobs[n], ids)
				}
			}()
		}
		wg.Wait()
		walls[r] = time.Since(start)
	}
	return outs, walls
}

// roundBounds is the job index range [lo, hi) of round r.
func roundBounds(n, rounds, r int) (lo, hi int) {
	return r * n / rounds, (r + 1) * n / rounds
}

// heapSampler records the peak live Go heap — the heap each GC cycle marked
// live — while it runs. Unlike the momentary heap size it does not depend on
// when a cycle happens to run, so retained memory shows and transient
// garbage does not.
type heapSampler struct {
	stop chan struct{}
	done chan uint64
}

func startHeapSampler() *heapSampler {
	hs := &heapSampler{stop: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		var peak uint64
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > peak {
				peak = v
			}
			select {
			case <-tick.C:
			case <-hs.stop:
				hs.done <- peak
				return
			}
		}
	}()
	return hs
}

// peakMB stops the sampler and returns the peak in MB.
func (hs *heapSampler) peakMB() float64 {
	close(hs.stop)
	return float64(<-hs.done) / (1 << 20)
}
