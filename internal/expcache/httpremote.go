package expcache

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// maxRemoteEntry bounds one fetched entry. Real entries are small result
// structs (hundreds of bytes to a few KB); the cap only exists so a
// misconfigured base URL pointing at something enormous cannot exhaust
// memory.
const maxRemoteEntry = 8 << 20

// HTTPRemote is the Remote backed by a macrochipd daemon's cache routes:
// GET/PUT /v1/cache/entries/{hex-key}. It is the rendezvous transport of a
// distributed sweep — workers and coordinator all point -cache-url at the
// same daemon, and every entry any of them computes becomes visible to the
// rest.
type HTTPRemote struct {
	base   string
	client *http.Client
}

// NewHTTPRemote returns a remote rooted at base (e.g.
// "http://127.0.0.1:8080"), with or without a trailing slash. The client
// timeout is deliberately generous next to an entry's size — the point of
// the remote is avoiding minutes of simulation, so waiting seconds for a
// slow daemon is still a win.
func NewHTTPRemote(base string) *HTTPRemote {
	return &HTTPRemote{
		base:   strings.TrimRight(base, "/"),
		client: &http.Client{Timeout: 30 * time.Second},
	}
}

func (h *HTTPRemote) url(key Key) string {
	return h.base + "/v1/cache/entries/" + key.Hex()
}

// Get implements Remote: 200 is a hit, 404 a clean miss, anything else an
// error.
func (h *HTTPRemote) Get(key Key) ([]byte, bool, error) {
	resp, err := h.client.Get(h.url(key))
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		data, err := io.ReadAll(io.LimitReader(resp.Body, maxRemoteEntry+1))
		if err != nil {
			return nil, false, err
		}
		if len(data) > maxRemoteEntry {
			return nil, false, fmt.Errorf("expcache: remote entry %s exceeds %d bytes", key.Hex(), maxRemoteEntry)
		}
		return data, true, nil
	case http.StatusNotFound:
		return nil, false, nil
	default:
		return nil, false, fmt.Errorf("expcache: remote GET %s: %s", key.Hex(), resp.Status)
	}
}

// maxBatchKeys bounds one batch request's key list; larger prefetch waves
// are split across requests. 256 hex keys is ~16 KB of query string — well
// under any practical URL limit while still collapsing a whole study wave
// into a handful of round trips.
const maxBatchKeys = 256

// GetBatch implements Remote.GetBatch over one GET /v1/cache/entries?keys=...
// per maxBatchKeys chunk. The daemon answers with whichever entries it
// has; any non-200 answer is an error.
func (h *HTTPRemote) GetBatch(keys []Key) (map[Key][]byte, error) {
	out := make(map[Key][]byte, len(keys))
	for len(keys) > 0 {
		chunk := keys
		if len(chunk) > maxBatchKeys {
			chunk = chunk[:maxBatchKeys]
		}
		keys = keys[len(chunk):]
		if err := h.getBatchChunk(chunk, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (h *HTTPRemote) getBatchChunk(chunk []Key, out map[Key][]byte) error {
	hexes := make([]string, len(chunk))
	for i, k := range chunk {
		hexes[i] = k.Hex()
	}
	resp, err := h.client.Get(h.base + "/v1/cache/entries?keys=" + strings.Join(hexes, ","))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("expcache: remote batch GET: %s", resp.Status)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, int64(len(chunk))*maxRemoteEntry+1))
	if err != nil {
		return err
	}
	var doc struct {
		Entries map[string]json.RawMessage `json:"entries"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return fmt.Errorf("expcache: remote batch GET: decoding answer: %w", err)
	}
	for hex, data := range doc.Entries {
		key, err := ParseKey(hex)
		if err != nil {
			return fmt.Errorf("expcache: remote batch GET: bad key in answer: %w", err)
		}
		if len(data) > maxRemoteEntry {
			return fmt.Errorf("expcache: remote entry %s exceeds %d bytes", hex, maxRemoteEntry)
		}
		out[key] = []byte(data)
	}
	return nil
}

// Put implements Remote: PUT the entry bytes; any non-2xx answer is an
// error.
func (h *HTTPRemote) Put(key Key, data []byte) error {
	req, err := http.NewRequest(http.MethodPut, h.url(key), bytes.NewReader(data))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := h.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return fmt.Errorf("expcache: remote PUT %s: %s", key.Hex(), resp.Status)
	}
	return nil
}
