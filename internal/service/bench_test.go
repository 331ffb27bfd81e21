package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// benchServe drives one endpoint through the handler tree (no network),
// measuring the full server-side request cost: decode, queue hand-off,
// execution, encode.
func benchServe(b *testing.B, path string, body map[string]any) {
	s := mustNew(b, Config{})
	defer s.Stop()
	data, err := json.Marshal(body)
	if err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	// Warm the graph and response caches.
	req := httptest.NewRequest("POST", path, bytes.NewReader(data))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		b.Fatalf("warmup status %d: %s", w.Code, w.Body.String())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("POST", path, bytes.NewReader(data))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("status %d", w.Code)
		}
	}
}

func BenchmarkServeRunBroadcast256(b *testing.B) {
	benchServe(b, "/v1/run", map[string]any{
		"family": "random-sparse", "n": 256, "seed": 1, "task": "broadcast",
	})
}

func BenchmarkServeRunWakeup256(b *testing.B) {
	benchServe(b, "/v1/run", map[string]any{
		"family": "random-sparse", "n": 256, "seed": 1, "task": "wakeup",
	})
}

func BenchmarkServeAdvice256(b *testing.B) {
	benchServe(b, "/v1/advice", map[string]any{
		"family": "random-sparse", "n": 256, "seed": 1, "task": "broadcast",
	})
}

// BenchmarkServeRunParallel measures the contended path: GOMAXPROCS
// goroutines hammering /v1/run concurrently, the shape 8 closed-loop
// clients produce.
func BenchmarkServeRunParallel(b *testing.B) {
	s := mustNew(b, Config{})
	defer s.Stop()
	data, err := json.Marshal(map[string]any{
		"family": "random-sparse", "n": 256, "seed": 1, "task": "broadcast",
	})
	if err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	req := httptest.NewRequest("POST", "/v1/run", bytes.NewReader(data))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		b.Fatalf("warmup status %d: %s", w.Code, w.Body.String())
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			req := httptest.NewRequest("POST", "/v1/run", bytes.NewReader(data))
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			if w.Code != http.StatusOK {
				b.Fatal("request failed")
			}
		}
	})
}
