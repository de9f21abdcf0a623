package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"fekf/internal/obs"
	"fekf/internal/serve"
)

// request is one sent request of an open-loop stream.
type request struct {
	due, sent, done time.Time
	err             error
	step            int64 // predict: training step of the answering snapshot
}

// latency is the request's time from when it was due to its decoded reply.
func (r request) latency() time.Duration { return r.done.Sub(r.due) }

// newClient returns an HTTP client holding one keep-alive connection.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// openLoop sends bodies in order at start+due[k] on one connection, never
// waiting for a schedule slot the previous reply already overran, and
// checks each reply with decode.  Each request's span goes to bench.
func openLoop(client *http.Client, url string, bodies [][]byte, due []time.Duration, start time.Time,
	bench *obs.Tracer, span string, decode func([]byte) (int64, error)) []request {
	out := make([]request, len(due))
	for k := range due {
		r := &out[k]
		r.due = start.Add(due[k])
		if wait := time.Until(r.due); wait > 0 {
			time.Sleep(wait)
		}
		r.sent = time.Now()
		r.step, r.err = post(client, url, bodies[k], decode)
		r.done = time.Now()
		rec := bench.Begin()
		rec.Span(-1, span, r.sent, r.done.Sub(r.sent))
		rec.End(int64(k))
	}
	client.CloseIdleConnections()
	return out
}

func post(client *http.Client, url string, body []byte, decode func([]byte) (int64, error)) (int64, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(raw))
	}
	return decode(raw)
}

// decodePredict checks a predict reply: finite energy and 3N finite force
// components.  It returns the answering snapshot's step.
func decodePredict(atoms int) func([]byte) (int64, error) {
	return func(raw []byte) (int64, error) {
		var p serve.PredictResponse
		if err := json.Unmarshal(raw, &p); err != nil {
			return 0, err
		}
		if len(p.Forces) != 3*atoms {
			return 0, fmt.Errorf("%d force components for %d atoms", len(p.Forces), atoms)
		}
		if !finite(p.Energy) || !finite(p.Forces...) {
			return 0, fmt.Errorf("non-finite prediction")
		}
		return p.SnapshotStep, nil
	}
}

// decodeFrames checks a frame-ingest reply: the one frame was accepted.
func decodeFrames(raw []byte) (int64, error) {
	var f serve.FramesResponse
	if err := json.Unmarshal(raw, &f); err != nil {
		return 0, err
	}
	if f.Accepted != 1 {
		return 0, fmt.Errorf("frame not accepted (dropped %d)", f.Dropped)
	}
	return 0, nil
}

// getJSON fetches url into v.
func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// getText fetches url as text.
func getText(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	raw, err := io.ReadAll(resp.Body)
	return string(raw), err
}
