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
	"net/http/httptrace"
	"sync/atomic"
	"time"
)

// readSSE parses a Server-Sent-Events stream: `event:` and `data:` lines
// accumulate until a blank line dispatches them to emit. It returns when the
// stream ends or emit returns false. Multi-line data is joined with '\n' as
// the SSE specification says; wvqd never sends it, the parser still must not
// mangle it.
func readSSE(r *bufio.Reader, emit func(name string, data []byte) bool) error {
	var name string
	var data []byte
	for {
		line, err := r.ReadBytes('\n')
		if len(line) > 0 {
			line = bytes.TrimRight(line, "\r\n")
			switch {
			case len(line) == 0:
				if name != "" || data != nil {
					if !emit(name, data) {
						return nil
					}
				}
				name, data = "", nil
			case bytes.HasPrefix(line, []byte("event:")):
				name = string(bytes.TrimSpace(line[len("event:"):]))
			case bytes.HasPrefix(line, []byte("data:")):
				chunk := bytes.TrimPrefix(line[len("data:"):], []byte(" "))
				if data != nil {
					data = append(data, '\n')
				}
				data = append(data, chunk...)
			}
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// sseEvent is one event with the time it was read, from the request write.
type sseEvent struct {
	name string
	at   time.Duration
	data []byte
}

// drain is one /query/stream request as the client saw it. Event payloads
// are kept raw and decoded after the pass, so decoding never sits between
// two requests of the closed loop.
type drain struct {
	start   time.Time
	wrote   time.Duration // request fully written
	headers time.Duration // response headers read
	end     time.Duration // body read to EOF
	events  []sseEvent
	bytes   int
	err     error
}

// client is one keep-alive connection to one server.
type client struct {
	base string
	http *http.Client
	// dials counts connections opened over the client's life; the load
	// shape promises it stays 1.
	dials atomic.Int64
}

func newClient(addr string) *client {
	c := &client{base: "http://" + addr}
	var d net.Dialer
	c.http = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
		DialContext: func(ctx context.Context, network, address string) (net.Conn, error) {
			c.dials.Add(1)
			return d.DialContext(ctx, network, address)
		},
	}}
	return c
}

func (c *client) close() { c.http.CloseIdleConnections() }

// stream posts body to /query/stream and reads events until the stream
// ends. Every event is stamped when its blank line is read.
func (c *client) stream(ctx context.Context, body []byte, explain bool) drain {
	var d drain
	url := c.base + "/query/stream"
	if explain {
		url += "?explain=1"
	}
	ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
		WroteRequest: func(httptrace.WroteRequestInfo) { d.wrote = time.Since(d.start) },
	})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		d.err = err
		return d
	}
	req.Header.Set("Content-Type", "application/json")
	d.start = time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		d.err = err
		return d
	}
	defer resp.Body.Close()
	d.headers = time.Since(d.start)
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		d.err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
		return d
	}
	counter := &countingReader{r: resp.Body}
	d.err = readSSE(bufio.NewReaderSize(counter, 64<<10), func(name string, data []byte) bool {
		d.events = append(d.events, sseEvent{name: name, at: time.Since(d.start), data: data})
		return true
	})
	d.end = time.Since(d.start)
	d.bytes = counter.n
	return d
}

type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// postJSON sends one JSON request on the client's connection and decodes a
// 200 reply into out (when non-nil).
func (c *client) postJSON(ctx context.Context, path string, body []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return c.do(req, out)
}

func (c *client) getJSON(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	return c.do(req, out)
}

func (c *client) do(req *http.Request, out any) error {
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: %w", req.Method, req.URL.Path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", req.Method, req.URL.Path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("%s %s: decoding reply: %w", req.Method, req.URL.Path, err)
	}
	return nil
}
