package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// daemon is an in-process gapserved with one solver worker, listening on
// loopback, over a fresh state directory under the process's TMPDIR.
// The directory starts with the given state files (none for an empty
// daemon), as a restart from a copy of another daemon's state would.
type daemon struct {
	dir    string
	srv    *serve.Server
	hs     *http.Server
	url    string
	served chan error
}

func startDaemon(state map[string][]byte) (*daemon, error) {
	dir, err := os.MkdirTemp("", "perfbench-state-")
	if err != nil {
		return nil, err
	}
	for name, data := range state {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
	}
	srv, err := serve.New(serve.Config{
		StateDir: dir, Workers: 1,
		DefaultBudget: 300 * time.Second, MaxBudget: 600 * time.Second,
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	srv.Start()
	d := &daemon{dir: dir, srv: srv, hs: &http.Server{Handler: srv}, url: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// stop shuts the listener and the worker pool down, waits for both, and
// removes the state directory.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	<-d.served
	http.DefaultClient.CloseIdleConnections()
	if serr := d.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	if rerr := os.RemoveAll(d.dir); err == nil {
		err = rerr
	}
	return err
}

// state copies the daemon's durable state files (results store and queue
// ledger; every write to them is an atomic rename, so a copy taken between
// requests is a consistent restart point).
func (d *daemon) state() (map[string][]byte, error) {
	ents, err := os.ReadDir(d.dir)
	if err != nil {
		return nil, err
	}
	out := map[string][]byte{}
	for _, e := range ents {
		if !e.Type().IsRegular() || strings.HasPrefix(e.Name(), ".") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(d.dir, e.Name()))
		if err != nil {
			return nil, err
		}
		out[e.Name()] = data
	}
	return out, nil
}

func (d *daemon) get(path string) ([]byte, error) {
	resp, err := http.Get(d.url + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return body, nil
}

// metric reads one unlabelled sample from the daemon's /metrics page.
func (d *daemon) metric(name string) (float64, error) {
	body, err := d.get("/metrics")
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 2 && f[0] == name {
			return strconv.ParseFloat(f[1], 64)
		}
	}
	return 0, fmt.Errorf("/metrics has no %s", name)
}

// ledgerJobs is the number of jobs the daemon's queue ledger holds, from
// /v1/stats.
func (d *daemon) ledgerJobs() (float64, error) {
	body, err := d.get("/v1/stats")
	if err != nil {
		return 0, err
	}
	var st serve.Stats
	if err := json.Unmarshal(body, &st); err != nil {
		return 0, err
	}
	n := 0
	for _, c := range st.Jobs {
		n += c
	}
	return float64(n), nil
}

// jobEvents reads a finished job's NDJSON event stream.
func (d *daemon) jobEvents(id string) ([]obs.Record, error) {
	body, err := d.get("/v1/jobs/" + id + "/events")
	if err != nil {
		return nil, err
	}
	var out []obs.Record
	dec := json.NewDecoder(bytes.NewReader(body))
	for dec.More() {
		var r obs.Record
		if err := dec.Decode(&r); err != nil {
			return nil, fmt.Errorf("job %s events: %w", id, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// exchange is one HTTP request the sweep client made.
type exchange struct {
	method, path string
	body         string // request body
	start, end   time.Time
	id, state    string // from a job view in the response
	wallSec      string // the stored result's wall_sec, when one came back
}

// recordingTransport is a timing and counting http.RoundTripper for
// sweep.Client.HTTP. It reads each response whole before handing it on, so
// an exchange ends when its answer has arrived.
type recordingTransport struct {
	base http.RoundTripper
	mu   sync.Mutex
	log  []exchange
}

func newRecordingTransport() *recordingTransport {
	return &recordingTransport{base: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}}
}

func (t *recordingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ex := exchange{method: req.Method, path: req.URL.Path}
	if req.GetBody != nil {
		rc, err := req.GetBody()
		if err != nil {
			return nil, err
		}
		b, err := io.ReadAll(rc)
		if err != nil {
			return nil, err
		}
		ex.body = string(b)
	}
	ex.start = time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		ex.end = time.Now()
		t.record(ex)
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	ex.end = time.Now()
	if err != nil {
		t.record(ex)
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(data))
	var v struct {
		ID     string `json:"id"`
		State  string `json:"state"`
		Result *struct {
			WallSec string `json:"wall_sec"`
		} `json:"result"`
	}
	if json.Unmarshal(data, &v) == nil {
		ex.id, ex.state = v.ID, v.State
		if v.Result != nil {
			ex.wallSec = v.Result.WallSec
		}
	}
	t.record(ex)
	return resp, nil
}

func (t *recordingTransport) record(ex exchange) {
	t.mu.Lock()
	t.log = append(t.log, ex)
	t.mu.Unlock()
}

// take returns the exchanges recorded so far and starts a new log.
func (t *recordingTransport) take() []exchange {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.log
	t.log = nil
	return out
}

func (t *recordingTransport) close() {
	if tr, ok := t.base.(*http.Transport); ok {
		tr.CloseIdleConnections()
	}
}
