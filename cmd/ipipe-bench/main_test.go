package main

import (
	"bytes"
	"testing"
)

// TestBadFlagsAreErrors: a bad flag or experiment id is an error
// returned before any experiment runs — nothing reaches stdout.
func TestBadFlagsAreErrors(t *testing.T) {
	for _, args := range [][]string{
		{"nosuch"},
		{"-quick", "fig16", "nosuch"},
		{"-report", "-", "nosuch"},
		{"all", "fig16"},
		{"-check", "-trace", "-", "fig18"},
		{"-check", "-metrics", "-", "fig18"},
		{"-seed", "one", "fig18"},
		{"-nosuchflag"},
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
