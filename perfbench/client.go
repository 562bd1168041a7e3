package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"
)

// client is one load-generating goroutine's HTTP connection to the
// server under test. Each client keeps a single keep-alive connection,
// so the benchmark opens no more connections than it runs clients.
type client struct {
	base string
	hc   *http.Client
	rec  *recorder
	buf  bytes.Buffer

	attempted, failed int64
	nextOp            uint64
	opBase            uint64
}

func newClient(base string, id int, rec *recorder) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
	}
	return &client{
		base:   base,
		hc:     &http.Client{Transport: tr, Timeout: 30 * time.Second},
		rec:    rec,
		opBase: uint64(id+1) << 40,
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// call is one timed request: send is when it left the client, ms its
// round trip.
type call struct {
	send time.Time
	ms   float64
}

// do sends one request and, on a 2xx answer, decodes the JSON body into
// out (when non-nil). items is the number of elements the request
// carries, recorded on the client span. Any other status, or a transport
// failure, counts as a failed op and returns an error.
func (c *client) do(kind, method, path string, body []byte, items int, out any) (call, error) {
	c.attempted++
	c.nextOp++
	op := c.opBase | c.nextOp
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		c.failed++
		return call{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	s := c.rec.begin("client."+kind, 0, op)
	if s != nil {
		req.Header.Set(hdrSpan, strconv.FormatUint(s.ID, 10))
		req.Header.Set(hdrOp, strconv.FormatUint(op, 10))
		req.Header.Set(hdrKind, kind)
		s.Items = int64(items)
		s.ReqBytes = int64(len(body))
	}
	cl := call{send: time.Now()}
	resp, err := c.hc.Do(req)
	if err != nil {
		c.failed++
		return cl, fmt.Errorf("%s %s: %w", method, path, err)
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	cl.ms = msSince(cl.send)
	if s != nil {
		s.RespBytes = int64(c.buf.Len())
		c.rec.end(s)
	}
	if err != nil {
		c.failed++
		return cl, fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		c.failed++
		return cl, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(c.buf.Bytes()))
	}
	if out != nil {
		if err := json.Unmarshal(c.buf.Bytes(), out); err != nil {
			c.failed++
			return cl, fmt.Errorf("%s %s: decoding response: %w", method, path, err)
		}
	}
	return cl, nil
}
