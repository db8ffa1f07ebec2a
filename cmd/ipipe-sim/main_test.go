package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/obs"
)

var cleanLine = regexp.MustCompile(`(?m)^invariants: [1-9][0-9]* checks, 0 violations$`)

// TestEveryAppChecksClean runs every application, and the mesh on one
// and on four partitions, under -check, -trace and -metrics through the
// one run path: each must finish without error, report one clean
// invariants line, and write a valid Chrome trace and metrics file. The
// four-partition mesh's trace must pair cross-partition handoffs.
func TestEveryAppChecksClean(t *testing.T) {
	for _, args := range [][]string{
		{"-app", "rkv"},
		{"-app", "dt"},
		{"-app", "rta"},
		{"-app", "nf"},
		{"-app", "echo"},
		{"-app", "mesh", "-nodes", "8", "-partitions", "1"},
		{"-app", "mesh", "-nodes", "8", "-partitions", "4", "-pdes", "2"},
	} {
		name := strings.Join(args, " ")
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			tracePath, metricsPath := filepath.Join(dir, "trace.json"), filepath.Join(dir, "metrics.ndjson")
			var stdout, stderr bytes.Buffer
			err := run(append(args, "-duration", "500us", "-check",
				"-trace", tracePath, "-metrics", metricsPath), &stdout, &stderr)
			if err != nil {
				t.Fatalf("%s: %v\nstderr:\n%s", name, err, stderr.String())
			}
			if n := len(cleanLine.FindAllString(stderr.String(), -1)); n != 1 {
				t.Fatalf("%s: %d clean invariants lines on stderr, want 1:\n%s", name, n, stderr.String())
			}
			if !strings.HasPrefix(stdout.String(), "app="+args[1]+" ") {
				t.Fatalf("%s: no report on stdout:\n%s", name, stdout.String())
			}
			trace := readArtifact(t, tracePath)
			st, err := obs.ValidateChromeTrace(bytes.NewReader(trace))
			if err != nil {
				t.Fatalf("%s: invalid trace: %v", name, err)
			}
			if st.Spans == 0 {
				t.Fatalf("%s: empty trace", name)
			}
			if strings.Contains(name, "-partitions 4") && st.Handoffs == 0 {
				t.Fatalf("%s: no paired cross-partition handoffs in the trace", name)
			}
			ms, err := obs.ValidateMetricsNDJSON(bytes.NewReader(readArtifact(t, metricsPath)))
			if err != nil {
				t.Fatalf("%s: invalid metrics: %v", name, err)
			}
			if ms.Records == 0 {
				t.Fatalf("%s: no metric records", name)
			}
		})
	}
}

func readArtifact(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBadFlagsAreErrors: a bad flag is an error returned before anything
// is built or run — nothing reaches stdout — for every app it could
// reach.
func TestBadFlagsAreErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-app", "kv"},
		{"-nic", "cn9999"},
		{"-app", "mesh", "-nic", "cn9999"},
		{"-queue", "fifo"},
		{"-queue", "fifo", "-nic", "none"},
		{"-app", "mesh", "-queue", "fifo"},
		{"-app", "dt", "-partitions", "2"},
		{"-duration", "0s"},
		{"-app", "echo", "-duration", "-1ms"},
		{"-app", "mesh", "-duration", "0s"},
		{"-depth", "many"},
	} {
		var stdout, stderr bytes.Buffer
		if err := run(args, &stdout, &stderr); err == nil {
			t.Errorf("%v: no error", args)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: wrote to stdout before failing:\n%s", args, stdout.String())
		}
	}
}
