package main

import (
	"bytes"
	"errors"
	"flag"
	"net/netip"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"aliaslimit/internal/alias"
	"aliaslimit/internal/ident"
	"aliaslimit/internal/obsfile"
)

// writeObsFile writes a small observation file with one two-address SSH
// alias pair and returns its path.
func writeObsFile(t *testing.T) string {
	t.Helper()
	id := ident.Identifier{Proto: ident.SSH, Digest: "feedface"}
	obs := []alias.Observation{
		{Addr: netip.MustParseAddr("192.0.2.1"), ID: id},
		{Addr: netip.MustParseAddr("192.0.2.2"), ID: id},
	}
	var buf bytes.Buffer
	if err := obsfile.Write(&buf, obs); err != nil {
		t.Fatalf("writing observations: %v", err)
	}
	path := filepath.Join(t.TempDir(), "obs.jsonl")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatalf("writing %s: %v", path, err)
	}
	return path
}

// TestRunResolve feeds a hand-built observation file through the resolver CLI
// and checks the inferred alias set shows up in the report.
func TestRunResolve(t *testing.T) {
	path := writeObsFile(t)
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-sets", path}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := stdout.String()
	if !strings.Contains(out, "observations: SSH=2") {
		t.Fatalf("missing observation summary:\n%s", out)
	}
	if !strings.Contains(out, "set ") {
		t.Fatalf("-sets produced no set dump:\n%s", out)
	}
}

// TestRunResolveErrors covers the no-arguments and missing-file error paths:
// the former is a usage error (exit 2 via errBadFlags), the latter a runtime
// failure.
func TestRunResolveErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run(nil, &stdout, &stderr); !errors.Is(err, errBadFlags) {
		t.Fatalf("no arguments: want errBadFlags, got %v", err)
	}
	if !strings.Contains(stderr.String(), "usage:") {
		t.Fatalf("usage line missing from stderr: %s", stderr.String())
	}
	err := run([]string{"/nonexistent/obs.jsonl"}, &stdout, &stderr)
	if err == nil || errors.Is(err, errBadFlags) {
		t.Fatalf("missing input file: want a runtime error, got %v", err)
	}
	if err := run([]string{"-h"}, &stdout, &stderr); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: want flag.ErrHelp, got %v", err)
	}
}

// goldenActive and goldenCensys are a two-vantage observation corpus covering
// every shape the report counts: all three protocols, both families, an SSH
// set joined to a BGP set through a shared address (the cross-protocol
// union), a set spanning IPv4 and IPv6 (dual-stack), singletons, and
// observations repeated within and across files.
const goldenActive = `{"addr":"192.0.2.1","proto":"SSH","digest":"ssh-a"}
{"addr":"192.0.2.2","proto":"SSH","digest":"ssh-a"}
{"addr":"2001:db8::1","proto":"SSH","digest":"ssh-a"}
{"addr":"192.0.2.3","proto":"SSH","digest":"ssh-b"}
{"addr":"192.0.2.2","proto":"BGP","digest":"bgp-a"}
{"addr":"192.0.2.4","proto":"BGP","digest":"bgp-a"}
{"addr":"2001:db8::1","proto":"SNMPv3","digest":"snmp-a"}
{"addr":"2001:db8::2","proto":"SNMPv3","digest":"snmp-a"}
{"addr":"192.0.2.4","proto":"BGP","digest":"bgp-a"}
`

const goldenCensys = `{"addr":"192.0.2.1","proto":"SSH","digest":"ssh-a"}
{"addr":"192.0.2.2","proto":"SSH","digest":"ssh-a"}
{"addr":"2001:db8::2","proto":"SNMPv3","digest":"snmp-a"}
{"addr":"198.51.100.1","proto":"SNMPv3","digest":"snmp-b"}
{"addr":"198.51.100.2","proto":"SNMPv3","digest":"snmp-b"}
{"addr":"2001:db8::10","proto":"BGP","digest":"bgp-b"}
{"addr":"2001:db8::11","proto":"BGP","digest":"bgp-b"}
{"addr":"2001:db8::20","proto":"SSH","digest":"ssh-c"}
{"addr":"2001:db8::21","proto":"SSH","digest":"ssh-c"}
{"addr":"198.51.100.9","proto":"BGP","digest":"bgp-c"}
`

// goldenReport is resolve -sets over the two files above, byte for byte.
const goldenReport = `observations: SSH=8 BGP=6 SNMPv3=5
SSH     alias sets: IPv4 1 (covering 2 addrs), IPv6 1 (covering 2 addrs)
BGP     alias sets: IPv4 1 (covering 2 addrs), IPv6 1 (covering 2 addrs)
SNMPv3  alias sets: IPv4 1 (covering 2 addrs), IPv6 1 (covering 2 addrs)
union   alias sets: IPv4 2 (covering 5 addrs), IPv6 3 (covering 6 addrs)
dual-stack sets: 1
set 192.0.2.1,192.0.2.2,192.0.2.4
set 198.51.100.1,198.51.100.2
set 2001:db8::1,2001:db8::2
set 2001:db8::10,2001:db8::11
set 2001:db8::20,2001:db8::21
`

// TestRunResolveGolden pins resolve's full report — per-protocol counts, the
// union, the dual-stack count and the set dump — on the two-file corpus.
func TestRunResolveGolden(t *testing.T) {
	dir := t.TempDir()
	var paths []string
	for name, body := range map[string]string{"active.jsonl": goldenActive, "censys.jsonl": goldenCensys} {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	sort.Strings(paths)
	var stdout, stderr bytes.Buffer
	if err := run(append([]string{"-sets"}, paths...), &stdout, &stderr); err != nil {
		t.Fatalf("run: %v (stderr %q)", err, stderr.String())
	}
	if got := stdout.String(); got != goldenReport {
		t.Fatalf("report drifted:\n--- got\n%s--- want\n%s", got, goldenReport)
	}
}
