package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"oraclesize/internal/tenant"
)

// oracletenant runs one subcommand and returns its stdout, stderr and
// exit code.
func oracletenant(args ...string) (string, string, int) {
	var out, errOut bytes.Buffer
	code := run(args, &out, &errOut)
	return out.String(), errOut.String(), code
}

// mustRun runs a subcommand that must succeed and returns its stdout.
func mustRun(t *testing.T, args ...string) string {
	t.Helper()
	out, errOut, code := oracletenant(args...)
	if code != 0 {
		t.Fatalf("oracletenant %s: exit %d; stderr:\n%s", strings.Join(args, " "), code, errOut)
	}
	return out
}

// writeFile writes data to name in a fresh temp dir and returns its path.
func writeFile(t *testing.T, name, data string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(data), 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

// wantLines fails unless out contains every line of want, in order.
func wantLines(t *testing.T, step, out string, want ...string) {
	t.Helper()
	rest := out
	for _, w := range want {
		i := strings.Index(rest, w)
		if i < 0 {
			t.Fatalf("%s: output lacks %q (in order); got:\n%s", step, w, out)
		}
		rest = rest[i+len(w):]
	}
}

func TestUsageAndFlagErrors(t *testing.T) {
	store := t.TempDir()
	for _, tc := range []struct {
		name string
		args []string
		msg  string
	}{
		{"no subcommand", nil, "usage: oracletenant"},
		{"unknown subcommand", []string{"serve"}, `unknown subcommand "serve"`},
		{"no store", []string{"show"}, "-store is required"},
		{"import without keyfile", []string{"import", "-store", store}, "-keyfile is required"},
		{"unknown flag", []string{"add", "-store", store, "-labels", "team=x"}, "flag provided but not defined: -labels"},
	} {
		_, errOut, code := oracletenant(tc.args...)
		if code != 2 || !strings.Contains(errOut, tc.msg) {
			t.Errorf("%s: exit %d, want 2 with %q; stderr:\n%s", tc.name, code, tc.msg, errOut)
		}
	}
}

// TestImportIsAllOrNothing: a keyfile whose second tenant has a 5-byte
// key fails the import, and the store is left with no tenants.
func TestImportIsAllOrNothing(t *testing.T) {
	store := t.TempDir()
	keyfile := writeFile(t, "tenants.json",
		`{"tenants":[{"name":"a","key":"aaaaaaaa-key"},{"name":"b","key":"short"}]}`)
	_, errOut, code := oracletenant("import", "-store", store, "-keyfile", keyfile)
	if code == 0 || !strings.Contains(errOut, "key shorter than 8 bytes") {
		t.Fatalf("import: exit %d, want non-zero with the short key named; stderr:\n%s", code, errOut)
	}
	out := mustRun(t, "show", "-store", store)
	wantLines(t, "show after the refused import", out, "generation 0, 0 tenants\n")
}

// TestAddRefusesSharedKey: a second tenant with a key the store already
// holds is refused, as oracled would refuse to load the store, and the
// store keeps one tenant.
func TestAddRefusesSharedKey(t *testing.T) {
	store := t.TempDir()
	mustRun(t, "add", "-store", store, "-name", "root", "-key", "root-key-00000")
	_, errOut, code := oracletenant("add", "-store", store, "-name", "twin", "-key", "root-key-00000")
	if code != 1 || !strings.Contains(errOut, `tenant "twin": key already registered to another tenant`) {
		t.Fatalf("twin add: exit %d, want 1 with the shared key named; stderr:\n%s", code, errOut)
	}
	out := mustRun(t, "show", "-store", store)
	wantLines(t, "show after the refused add", out, "generation 1, 1 tenants\n", "  root ")
	if strings.Contains(out, "twin") {
		t.Fatalf("show lists the refused tenant:\n%s", out)
	}
}

// TestRoundTrip drives every subcommand over one store and checks show
// or report after each step.
func TestRoundTrip(t *testing.T) {
	store := t.TempDir()
	keyfile := writeFile(t, "tenants.json", `{"tenants": [
		{"name": "herd", "key": "herd-ci-key-0001", "weight": 4},
		{"name": "capped", "key": "capped-ci-key-01", "rate_per_sec": 2, "burst": 4}
	]}`)
	show := func() string { return mustRun(t, "show", "-store", store) }

	wantLines(t, "import", mustRun(t, "import", "-store", store, "-keyfile", keyfile),
		"imported 2 tenants from "+keyfile+" (generation 2)")
	wantLines(t, "show after import", show(), "generation 2, 2 tenants\n",
		"  capped               rate=2/s burst=4\n",
		"  herd                 weight=4\n")

	wantLines(t, "add", mustRun(t, "add", "-store", store, "-name", "ops", "-key", "ops-admin-key-01", "-admin"),
		`added "ops" (generation 3)`)
	wantLines(t, "show after add", show(), "generation 3, 3 tenants\n",
		"  ops                  admin\n")

	wantLines(t, "set-quota", mustRun(t, "set-quota", "-store", store, "-name", "herd", "-max-slots", "8"),
		`updated "herd" (generation 4)`)
	wantLines(t, "show after set-quota", show(), "  herd                 weight=4 max-slots=8\n")

	wantLines(t, "rotate", mustRun(t, "rotate", "-store", store, "-name", "capped", "-key", "capped-ci-key-02"),
		`rotated "capped", old key valid until `)
	wantLines(t, "show after rotate", show(), "generation 5, 3 tenants\n",
		"  capped               rate=2/s burst=4 rotating(prev key valid until ")

	wantLines(t, "del", mustRun(t, "del", "-store", store, "-name", "capped"),
		`deleted "capped", usage ledger kept (generation 6)`)
	out := show()
	wantLines(t, "show after del", out, "generation 6, 2 tenants\n", "  herd ", "  ops ")
	if strings.Contains(out, "capped") {
		t.Fatalf("show after del still lists capped:\n%s", out)
	}

	// A daemon flushes usage ledgers into the store; write one the same
	// way, for a deleted tenant and a live one.
	st, err := tenant.OpenStore(store)
	if err != nil {
		t.Fatal(err)
	}
	for name, l := range map[string]tenant.Ledger{
		"capped": {Requests: 3, Units: 2, QueueNanos: 1500000000, Bytes: 640},
		"herd":   {Requests: 7, Units: 40},
	} {
		if err := st.WriteLedger(name, l); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()
	report := func() string { return mustRun(t, "report", "-store", store) }
	ledgers := []string{
		"capped                          3            2          1.500            640\n",
		"herd                            7           40          0.000              0\n",
	}
	wantLines(t, "report", report(), append([]string{"generation 6\n"}, ledgers...)...)

	wantLines(t, "compact", mustRun(t, "compact", "-store", store), "(generation 6)")
	if _, err := os.Stat(filepath.Join(store, "snapshot.json")); err != nil {
		t.Fatalf("compact wrote no snapshot: %v", err)
	}
	if got := show(); got != out {
		t.Fatalf("show after compact:\n%s\nwant, as before it:\n%s", got, out)
	}
	wantLines(t, "report after compact", report(), append([]string{"generation 6\n"}, ledgers...)...)
}
