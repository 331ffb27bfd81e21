package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestTaskMatrix(t *testing.T) {
	// bounded marks the schemes whose catalog bound oraclesim prints.
	cases := []struct {
		name    string
		args    []string
		bounded bool
	}{
		{"wakeup-paper", []string{"-family", "grid", "-n", "36", "-task", "wakeup"}, true},
		{"wakeup-none", []string{"-family", "grid", "-n", "36", "-task", "wakeup", "-oracle", "none"}, false},
		{"wakeup-fullmap", []string{"-family", "cycle", "-n", "24", "-task", "wakeup", "-oracle", "full-map"}, false},
		{"broadcast-paper", []string{"-family", "hypercube", "-n", "32", "-task", "broadcast"}, true},
		{"broadcast-none", []string{"-family", "complete", "-n", "16", "-task", "broadcast", "-oracle", "none"}, false},
		{"broadcast-lifo", []string{"-family", "complete", "-n", "16", "-task", "broadcast", "-scheduler", "lifo"}, true},
		{"broadcast-delay", []string{"-family", "grid", "-n", "25", "-task", "broadcast", "-scheduler", "delay"}, true},
		{"gossip", []string{"-family", "torus", "-n", "36", "-task", "gossip"}, true},
		{"election-tree", []string{"-family", "cycle", "-n", "24", "-task", "election"}, true},
		{"election-none", []string{"-family", "cycle", "-n", "24", "-task", "election", "-oracle", "none"}, false},
		{"election-mark", []string{"-family", "cycle", "-n", "24", "-task", "election", "-oracle", "mark"}, false},
		{"goroutines", []string{"-family", "grid", "-n", "25", "-task", "broadcast", "-engine", "goroutines"}, true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			var out, errOut bytes.Buffer
			if code := run(tc.args, &out, &errOut); code != 0 {
				t.Fatalf("exit %d, stderr: %s", code, errOut.String())
			}
			if !strings.Contains(out.String(), "complete     true") {
				t.Errorf("run did not complete:\n%s", out.String())
			}
			wantBound := "bound        none"
			if tc.bounded {
				wantBound = "bound        messages<="
			}
			if !strings.Contains(out.String(), wantBound) {
				t.Errorf("no %q line:\n%s", wantBound, out.String())
			}
		})
	}
}

// TestEngineLine: the engine line names the queue engine's scheduler and
// no scheduler for the goroutines engine, which never builds one.
func TestEngineLine(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-engine", "goroutines"}, "engine       goroutines\n"},
		{[]string{"-engine", "queue", "-scheduler", "lifo"}, "engine       queue/lifo\n"},
		{nil, "engine       queue/fifo\n"},
	} {
		args := append([]string{"-family", "random-sparse", "-n", "64", "-seed", "1", "-task", "broadcast"}, tc.args...)
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 0 {
			t.Fatalf("%v: exit %d, stderr: %s", tc.args, code, errOut.String())
		}
		if !strings.Contains(out.String(), tc.want) {
			t.Errorf("%v: no %q line:\n%s", tc.args, strings.TrimSpace(tc.want), out.String())
		}
	}
}

func TestBadInputs(t *testing.T) {
	cases := [][]string{
		{"-family", "nope"},
		{"-task", "teleport"},
		{"-task", "wakeup", "-oracle", "psychic"},
		{"-scheduler", "chaos"},
		{"-engine", "quantum"},
		{"-family", "grid", "-n", "25", "-source", "99"},
	}
	for _, args := range cases {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestExactWakeupCount(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-family", "path", "-n", "20", "-task", "wakeup"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "messages     19 total") {
		t.Errorf("wakeup on P20 should use exactly 19 messages:\n%s", out.String())
	}
	// Rooted at an end, the path meets Theorem 2.1's advice bound exactly:
	// 19 internal nodes, each a 5-bit port field and an 8-bit header.
	if !strings.Contains(out.String(), "size=247 bits") ||
		!strings.Contains(out.String(), "bound        messages<=19 advice<=247 bits") {
		t.Errorf("wakeup on P20 should print and meet the bound 19/247:\n%s", out.String())
	}
}
