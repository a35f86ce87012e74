package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"libra"
	"libra/internal/core"
	"libra/internal/jobs"
	"libra/internal/server"
	"libra/internal/store"
)

// deployment is one in-process libra-serve: the components, flag
// defaults and wiring of cmd/libra-serve (access log at info level to a
// file, persistent cache in a fresh directory, engine, job manager,
// internal/server handler), listening on a loopback port. A traced
// deployment additionally routes the handler and the disk tier through
// the benchmark's tracer; nothing inside the program changes.
type deployment struct {
	dir     string
	logFile *os.File
	store   *store.Store
	engine  *core.Engine
	jobs    *jobs.Manager
	srv     *http.Server
	served  chan error
	url     string
}

// boot starts a deployment under workdir and returns once it answers
// GET /readyz. tr may be nil (untraced).
func boot(workdir string, tr *tracer) (*deployment, error) {
	dir, err := os.MkdirTemp(workdir, "deploy-")
	if err != nil {
		return nil, fmt.Errorf("deployment dir: %w", err)
	}
	d := &deployment{dir: dir}
	if err := d.start(tr); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

func (d *deployment) start(tr *tracer) error {
	var err error
	if d.logFile, err = os.Create(filepath.Join(d.dir, "access.log")); err != nil {
		return fmt.Errorf("access log: %w", err)
	}
	// cmd/libra-serve defaults: -log-level info -log-format text.
	logger, err := libra.NewLogger(d.logFile, "info", "text")
	if err != nil {
		return err
	}
	slog.SetDefault(logger)

	// cmd/libra-serve defaults for -cache-dir set: -cache-ttl-optimize 0,
	// -cache-ttl-evaluate 0, -cache-ttl-validate 24h,
	// -cache-compact-bytes 4MiB, -cache-sweep 10m.
	d.store, err = store.Open(store.Config{
		Dir: filepath.Join(d.dir, "cache"),
		TTLs: map[string]time.Duration{
			"optimize": 0,
			"evaluate": 0,
			"validate": 24 * time.Hour,
		},
		CompactBytes:  4 << 20,
		SweepInterval: 10 * time.Minute,
	})
	if err != nil {
		return err
	}
	var rs core.ResultStore = d.store
	if tr != nil {
		rs = tr.wrapStore(d.store)
	}
	// -workers 0 (GOMAXPROCS), -cache 512, -jobs 512, -job-ttl 15m.
	d.engine = libra.NewEngine(libra.EngineConfig{Workers: 0, CacheSize: 512, Store: rs})
	d.jobs = libra.NewJobManager(libra.JobConfig{Engine: d.engine, Capacity: 512, TTL: 15 * time.Minute})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	// -max-body 1MiB.
	var h http.Handler = server.New(server.Options{Engine: d.engine, Jobs: d.jobs, MaxBody: 1 << 20, Logger: logger})
	if tr != nil {
		h = tr.wrapHandler(h)
	}
	d.srv = &http.Server{Handler: h}
	d.served = make(chan error, 1)
	go func() { d.served <- d.srv.Serve(ln) }()
	d.url = "http://" + ln.Addr().String()

	c := newClient(d.url)
	defer c.close()
	res, err := c.do(context.Background(), http.MethodGet, "/readyz", nil, "", "")
	if err != nil {
		return fmt.Errorf("readyz: %w", err)
	}
	if res.status != http.StatusOK {
		return fmt.Errorf("readyz: status %d", res.status)
	}
	return nil
}

// close shuts the deployment down in cmd/libra-serve's order (HTTP
// server, job manager, engine, store) and removes its directory.
func (d *deployment) close() {
	if d.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = d.srv.Shutdown(ctx)
		cancel()
		<-d.served
	}
	if d.jobs != nil {
		d.jobs.Close()
	}
	if d.engine != nil {
		d.engine.Close()
	}
	if d.store != nil {
		_ = d.store.Close()
	}
	if d.logFile != nil {
		_ = d.logFile.Close()
	}
	slog.SetDefault(slog.New(slog.NewTextHandler(io.Discard, nil)))
	_ = os.RemoveAll(d.dir)
}

// client is one closed-loop HTTP client holding exactly one keep-alive
// connection to the deployment.
type client struct {
	base string
	tr   *http.Transport
	http *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{
		Proxy:               nil,
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &client{base: base, tr: tr, http: &http.Client{Transport: tr}}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// response is one finished exchange.
type response struct {
	status int
	etag   string
	body   []byte
}

// do sends one request. reqID becomes X-Request-Id (the key the tracer
// joins on); ifNoneMatch is sent when non-empty.
func (c *client) do(ctx context.Context, method, path string, body []byte, reqID, ifNoneMatch string) (response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return response{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if reqID != "" {
		req.Header.Set("X-Request-Id", reqID)
	}
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return response{}, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return response{}, fmt.Errorf("%s %s: read body: %w", method, path, err)
	}
	return response{status: resp.StatusCode, etag: resp.Header.Get("ETag"), body: data}, nil
}

// post sends a JSON body and fails on any status other than want.
func (c *client) post(ctx context.Context, path string, body []byte, reqID string, want int) (response, error) {
	res, err := c.do(ctx, http.MethodPost, path, body, reqID, "")
	if err != nil {
		return res, err
	}
	if res.status != want {
		return res, statusError(res)
	}
	return res, nil
}

func statusError(res response) error {
	msg := res.body
	if len(msg) > 200 {
		msg = msg[:200]
	}
	return errors.New("status " + strconv.Itoa(res.status) + ": " + string(bytes.TrimSpace(msg)))
}
