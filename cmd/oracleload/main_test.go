package main

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestClassifyByStatusOnly is the regression test for the -mixed
// misclassification: a transport error — the reused idle connection the
// server closed under us is the classic one — must count as an error,
// never as a 429 throttle or 503 shed. Classification is a function of
// the status code alone, and only a real response has one.
func TestClassifyByStatusOnly(t *testing.T) {
	reuseErr := errors.New(`Post "http://127.0.0.1:8080/v1/run": http: server closed idle connection`)
	cases := []struct {
		name string
		resp *http.Response
		err  error
		want outcome
	}{
		{"ok", &http.Response{StatusCode: http.StatusOK}, nil, outcomeOK},
		{"shed-503", &http.Response{StatusCode: http.StatusServiceUnavailable}, nil, outcomeShed},
		{"throttled-429", &http.Response{StatusCode: http.StatusTooManyRequests}, nil, outcomeThrottled},
		{"unauthorized-401", &http.Response{StatusCode: http.StatusUnauthorized}, nil, outcomeError},
		{"server-error-500", &http.Response{StatusCode: http.StatusInternalServerError}, nil, outcomeError},
		{"gateway-timeout-504", &http.Response{StatusCode: http.StatusGatewayTimeout}, nil, outcomeError},
		// The regression: a connection-reuse failure yields err != nil and no
		// response; it must never be folded into the throttle counter.
		{"connection-reuse-error", nil, reuseErr, outcomeError},
		{"transport-error", nil, errors.New("dial tcp: connection refused"), outcomeError},
		// Belt and braces: even if a transport ever handed back both a
		// response and an error, the error wins — the response can't be
		// trusted.
		{"error-with-stale-response", &http.Response{StatusCode: http.StatusTooManyRequests}, reuseErr, outcomeError},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := classify(tc.resp, tc.err); got != tc.want {
				t.Errorf("classify(%v, %v) = %d, want %d", tc.resp, tc.err, got, tc.want)
			}
		})
	}
}

// TestAppendKeepsRecordedEntries: appendEntries rewrites the whole serve
// file, so every field of every recorded entry — including the adaptive
// shard row's shard_target_sec and shard_units_min/median/max, which no
// current mode writes — must survive an append unchanged.
func TestAppendKeepsRecordedEntries(t *testing.T) {
	orig, err := os.ReadFile(filepath.Join("..", "..", "BENCH_serve.json"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_serve.json")
	if err := os.WriteFile(path, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	entries := func(data []byte) []map[string]any {
		t.Helper()
		var doc struct {
			Entries []map[string]any `json:"entries"`
		}
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatal(err)
		}
		return doc.Entries
	}
	before := entries(orig)
	if code := appendEntries(path, []Entry{{Label: "appended", Mode: "shard", ShardUnits: 8}}, io.Discard, io.Discard); code != 0 {
		t.Fatalf("appendEntries exit %d", code)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	after := entries(got)
	if len(after) != len(before)+1 || after[len(before)]["label"] != "appended" {
		t.Fatalf("%d entries after the append, want %d ending with the new one", len(after), len(before)+1)
	}
	for i, e := range before {
		if !reflect.DeepEqual(after[i], e) {
			t.Errorf("entry %d changed by the append:\n got %v\nwant %v", i, after[i], e)
		}
	}
}
