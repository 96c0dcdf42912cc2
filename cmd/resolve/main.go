// Command resolve reads identifier observations (the JSONL that cmd/scan
// emits, possibly from several vantage points) and runs the paper's
// inference: alias sets per protocol, the cross-protocol union, and
// dual-stack sets.
//
// Usage:
//
//	resolve active.jsonl censys.jsonl
//	resolve -sets active.jsonl          # also dump every non-singleton set
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"aliaslimit/internal/alias"
	"aliaslimit/internal/ident"
	"aliaslimit/internal/obsfile"
	"aliaslimit/internal/resolver"
)

// errBadFlags marks argument errors the flag package (or run itself) has
// already reported; main maps it to the conventional usage exit code 2.
var errBadFlags = errors.New("bad arguments")

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	switch {
	case err == nil:
	case errors.Is(err, flag.ErrHelp):
		// -h/-help: usage was printed; asking for help is not a failure.
	case errors.Is(err, errBadFlags):
		os.Exit(2)
	default:
		fmt.Fprintf(os.Stderr, "resolve: %v\n", err)
		os.Exit(1)
	}
}

// run is the testable body of the command.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("resolve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dumpSets := fs.Bool("sets", false, "dump every non-singleton alias set")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errBadFlags
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "usage: resolve [-sets] <observations.jsonl>...")
		return errBadFlags
	}

	sess, _ := resolver.NewBatch().Open(resolver.Options{}) // in-process: never fails
	defer sess.Close()
	counts := make(map[ident.Protocol]int)
	for _, path := range fs.Args() {
		obs, err := load(path)
		if err != nil {
			return err
		}
		for _, o := range obs {
			sess.Observe(o)
			counts[o.ID.Proto]++
		}
	}

	fmt.Fprintf(stdout, "observations: SSH=%d BGP=%d SNMPv3=%d\n",
		counts[ident.SSH], counts[ident.BGP], counts[ident.SNMP])
	var all, v4s, v6s [][]alias.Set
	for _, p := range ident.Protocols {
		sets := sess.Sets(p)
		v4 := alias.NonSingleton(alias.FilterFamily(sets, true))
		v6 := alias.NonSingleton(alias.FilterFamily(sets, false))
		all, v4s, v6s = append(all, sets), append(v4s, v4), append(v6s, v6)
		fmt.Fprintf(stdout, "%-7s alias sets: IPv4 %d (covering %d addrs), IPv6 %d (covering %d addrs)\n",
			p, len(v4), alias.CoveredAddrs(v4), len(v6), alias.CoveredAddrs(v6))
	}
	// The union merges each family's non-singleton sets (§4.1); dual-stack
	// sets come from merging every set, singletons included, since a
	// dual-stack pair may be one IPv4 and one IPv6 observation (§2.4).
	unionV4 := alias.NonSingleton(sess.Merged(v4s...))
	unionV6 := alias.NonSingleton(sess.Merged(v6s...))
	ds := alias.DualStack(sess.Merged(all...))
	fmt.Fprintf(stdout, "union   alias sets: IPv4 %d (covering %d addrs), IPv6 %d (covering %d addrs)\n",
		len(unionV4), alias.CoveredAddrs(unionV4), len(unionV6), alias.CoveredAddrs(unionV6))
	fmt.Fprintf(stdout, "dual-stack sets: %d\n", len(ds))

	if *dumpSets {
		for _, s := range unionV4 {
			fmt.Fprintf(stdout, "set %s\n", s.Signature())
		}
		for _, s := range unionV6 {
			fmt.Fprintf(stdout, "set %s\n", s.Signature())
		}
	}
	return nil
}

// load reads one JSONL observation file.
func load(path string) ([]alias.Observation, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	obs, err := obsfile.Read(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return obs, nil
}
