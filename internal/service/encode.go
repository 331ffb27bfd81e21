package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
)

// This file is the serving path's response writer. Every body is what
// json.NewEncoder(w).Encode(v) produces — encoding/json with HTML escaping
// on and a trailing newline — built in a pooled buffer and sent with
// Content-Length in exactly one ResponseWriter.Write. A response-cache hit
// never reaches the encoder: it writes the bytes stored on its miss.

// rawJSON is a fully encoded response body (trailing newline included).
// Handlers return it when the bytes already exist — a response-cache hit,
// or a just-encoded body that is also being stored — and writeJSON sends
// it verbatim.
type rawJSON []byte

type encodeBuf struct{ b []byte }

var encPool = sync.Pool{
	New: func() any { return &encodeBuf{b: make([]byte, 0, 1024)} },
}

// writeJSON encodes body and writes it with Content-Length set, buffering
// through a pooled scratch so the response goes out in one Write. It
// returns the body's byte length — the usage ledger charges response bytes
// to the tenant.
func writeJSON(w http.ResponseWriter, status int, body any) int {
	if raw, ok := body.(rawJSON); ok {
		return writeBody(w, status, raw)
	}
	eb := encPool.Get().(*encodeBuf)
	eb.b = encodeResponse(eb.b[:0], body)
	n := writeBody(w, status, eb.b)
	encPool.Put(eb)
	return n
}

func writeBody(w http.ResponseWriter, status int, body []byte) int {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, _ = w.Write(body) // the status line is already out; nothing to do on error
	return len(body)
}

// encodeResponse appends body's encoding to b: a /v1/advice or /v1/run
// response on a miss, a shard batch, health, an admin body or an error
// object, each with the Encoder's trailing newline.
func encodeResponse(b []byte, body any) []byte {
	buf := bytes.NewBuffer(b)
	_ = json.NewEncoder(buf).Encode(body)
	return buf.Bytes()
}
