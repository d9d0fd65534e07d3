package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// requestIDHeader carries the request ID the server logs and echoes.
const requestIDHeader = "X-Request-Id"

// conn is one HTTP/1.1 connection to the server: its transport never
// opens a second one, so requests on it are served one at a time.
type conn struct {
	tr   *http.Transport
	c    *http.Client
	base string
}

func newConn(base string) *conn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true, IdleConnTimeout: time.Minute}
	return &conn{tr: tr, c: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base}
}

func (c *conn) close() { c.tr.CloseIdleConnections() }

// do sends one request and reads the whole answer. A non-empty reqID is
// sent as the request's X-Request-Id, which the server adopts.
func (c *conn) do(ctx context.Context, method, path string, body []byte, reqID string) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if reqID != "" {
		req.Header.Set(requestIDHeader, reqID)
	}
	resp, err := c.c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// getJSON sends a request that must answer 2xx with a well-formed
// envelope and decodes its data into v.
func (c *conn) getJSON(ctx context.Context, method, path string, body []byte, v any) error {
	status, data, err := c.do(ctx, method, path, body, "")
	if err != nil {
		return err
	}
	env, err := checkEnvelope(status, data)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if v == nil {
		return nil
	}
	return json.Unmarshal(env.Data, v)
}

// envelope is the server's uniform {data, meta, error} answer.
type envelope struct {
	Data json.RawMessage `json:"data"`
	Meta *struct {
		Seq  uint64 `json:"seq"`
		Page *struct {
			Total int `json:"total"`
		} `json:"page"`
	} `json:"meta"`
	Error *struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// checkEnvelope accepts only a 2xx answer carrying a JSON envelope with
// data and no error.
func checkEnvelope(status int, body []byte) (*envelope, error) {
	var env envelope
	if err := json.Unmarshal(body, &env); err != nil {
		return nil, fmt.Errorf("status %d: malformed envelope: %v", status, err)
	}
	if status < 200 || status > 299 {
		msg := ""
		if env.Error != nil {
			msg = env.Error.Code + ": " + env.Error.Message
		}
		return nil, fmt.Errorf("status %d %s", status, msg)
	}
	if env.Error != nil {
		return nil, fmt.Errorf("status %d with error %s", status, env.Error.Code)
	}
	if len(env.Data) == 0 || string(env.Data) == "null" {
		return nil, fmt.Errorf("status %d: envelope without data", status)
	}
	return &env, nil
}

type scoredRow struct {
	Blogger string  `json:"blogger"`
	Score   float64 `json:"score"`
}

type queryRow struct {
	ID     string             `json:"id"`
	Score  float64            `json:"score"`
	Fields map[string]float64 `json:"fields"`
}

type queryResult struct {
	Rows  []queryRow `json:"rows"`
	Total int        `json:"total"`
	Plan  string     `json:"plan"`
}

// checkAnswer validates one scheduled request's answer beyond the
// envelope. It returns the decoded query result for /query requests.
func checkAnswer(o *op, status int, body []byte) (*queryResult, error) {
	env, err := checkEnvelope(status, body)
	if err != nil {
		return nil, err
	}
	switch {
	case o.Kind.write():
		var ack struct {
			Accepted int `json:"accepted"`
		}
		if err := json.Unmarshal(env.Data, &ack); err != nil || ack.Accepted != 1 {
			return nil, fmt.Errorf("ingest ack %s", env.Data)
		}
		return nil, nil
	case env.Meta == nil || env.Meta.Seq == 0:
		return nil, fmt.Errorf("read answer without meta.seq")
	}
	switch o.Kind {
	case opTop, opDomainTop, opAdvert, opProfile:
		var rows []scoredRow
		if err := json.Unmarshal(env.Data, &rows); err != nil {
			return nil, fmt.Errorf("ranking: %v", err)
		}
		if len(rows) > 10 {
			return nil, fmt.Errorf("ranking has %d rows, asked for 10", len(rows))
		}
		for i := 1; i < len(rows) && o.Kind != opAdvert && o.Kind != opProfile; i++ {
			if rows[i].Score > rows[i-1].Score {
				return nil, fmt.Errorf("ranking out of order at %d", i)
			}
		}
	case opBlogger:
		var b struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(env.Data, &b); err != nil || b.ID != o.Key {
			return nil, fmt.Errorf("blogger answer for %q names %q", o.Key, b.ID)
		}
	case opQueryAuthor, opQueryFacet, opPoll:
		var qr queryResult
		if err := json.Unmarshal(env.Data, &qr); err != nil {
			return nil, fmt.Errorf("query: %v", err)
		}
		if len(qr.Rows) > 100 || len(qr.Rows) > qr.Total {
			return nil, fmt.Errorf("query returned %d rows of %d", len(qr.Rows), qr.Total)
		}
		return &qr, nil
	}
	return nil, nil
}
