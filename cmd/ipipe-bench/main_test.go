package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestBadFlagsAreErrors: a bad flag or experiment id is an error
// returned before any experiment runs — nothing reaches stdout. An
// explicitly set flag the chosen run does not read is one too, and the
// error names it (unread).
func TestBadFlagsAreErrors(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		unread string
	}{
		{args: []string{"nosuch"}},
		{args: []string{"-quick", "fig16", "nosuch"}},
		{args: []string{"-report", "-", "nosuch"}},
		{args: []string{"all", "fig16"}},
		{args: []string{"-seed", "one", "fig18"}},
		{args: []string{"-nosuchflag"}},
		{args: []string{"-quick", "-pdes", "-3", "scale-nodes"}},
		{args: []string{"-quick", "-metrics", "-", "-metrics-interval", "0s", "fig18"}},
		{args: []string{"-quick", "-metrics-interval", "1ms", "table2"}, unread: "metrics-interval"},
		{args: []string{"-quick", "-csv", "-json", "table2"}, unread: "csv"},
		{args: []string{"-report", "-", "-csv", "table2"}, unread: "csv"},
		{args: []string{"-report", "-", "-json", "table2"}, unread: "json"},
		{args: []string{"-report", "-", "-trace", "-", "table2"}, unread: "trace"},
		{args: []string{"-report", "-", "-metrics", "-", "table2"}, unread: "metrics"},
		{args: []string{"-report", "-", "-metrics-interval", "1ms", "table2"}, unread: "metrics-interval"},
		{args: []string{"-report", "-", "-check", "table2"}, unread: "check"},
		{args: []string{"-report", "-", "-cpuprofile", "cpu.out", "table2"}, unread: "cpuprofile"},
		{args: []string{"-report", "-", "-memprofile", "mem.out", "table2"}, unread: "memprofile"},
		{args: []string{"-check", "-trace", "-", "fig18"}, unread: "trace"},
		{args: []string{"-check", "-metrics", "-", "fig18"}, unread: "metrics"},
		{args: []string{"-check", "-csv", "table2"}, unread: "csv"},
		{args: []string{"-check", "-json", "table2"}, unread: "json"},
		{args: []string{"-check", "-cpuprofile", "cpu.out", "table2"}, unread: "cpuprofile"},
		{args: []string{"-check", "-memprofile", "mem.out", "table2"}, unread: "memprofile"},
	} {
		var stdout, stderr bytes.Buffer
		err := run(tc.args, &stdout, &stderr)
		if err == nil {
			t.Errorf("%v: no error", tc.args)
		} else if tc.unread != "" && !strings.HasPrefix(err.Error(), "-"+tc.unread+" is not read") {
			t.Errorf("%v: error %q, want one naming -%s as unread", tc.args, err, tc.unread)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: wrote to stdout before failing:\n%s", tc.args, stdout.String())
		}
	}
}

// TestReadFlagsRun: -report and -check runs that read every flag they
// set still run.
func TestReadFlagsRun(t *testing.T) {
	for _, args := range [][]string{
		{"-report", "-", "-quick", "-seed", "2", "-pdes", "2", "-parallel", "2", "table2"},
		{"-check", "-quick", "-pdes", "2", "-parallel", "2", "table2"},
	} {
		var stdout, stderr bytes.Buffer
		if err := run(args, &stdout, &stderr); err != nil || stdout.Len() == 0 {
			t.Errorf("%v: error %v after %d B of output", args, err, stdout.Len())
		}
	}
}
