// Package zgrab is a miniature ZGrab2: the phase-2 application-layer service
// scanner. It takes the address list a zmaplite sweep found responsive,
// dials each target, and hands the connection to a protocol module that
// completes the TCP handshake's application-layer follow-up — an SSH banner
// and key exchange, or a passive BGP OPEN collection.
//
// The framework mirrors ZGrab2's architecture: protocol logic lives in
// pluggable modules, the framework owns dialing, timeouts, concurrency, and
// structured result records.
package zgrab

import (
	"context"
	"fmt"
	"net"
	"net/netip"
	"sort"
	"sync"
	"time"
)

// Dialer is satisfied by *net.Dialer and *netsim.Vantage alike; the scanner
// does not know whether its targets are real.
type Dialer interface {
	DialContext(ctx context.Context, network, address string) (net.Conn, error)
}

// Module implements one protocol scan.
type Module interface {
	// Name identifies the module ("ssh", "bgp").
	Name() string
	// DefaultPort is the port the module scans unless overridden.
	DefaultPort() uint16
	// Scan speaks the protocol on an established connection. It must close
	// conn and should return a protocol-specific result value.
	Scan(conn net.Conn, target netip.Addr) (any, error)
}

// Grab is one structured scan record, ZGrab2's output unit.
type Grab struct {
	// Target is the scanned address.
	Target netip.Addr
	// Port is the scanned TCP port.
	Port uint16
	// Module is the protocol module name.
	Module string
	// Data is the module's result on success (module-specific type).
	Data any
	// Err records dial or protocol failure.
	Err error
}

// OK reports whether the grab produced usable protocol data.
func (g *Grab) OK() bool { return g.Err == nil && g.Data != nil }

// Options parameterises a run.
type Options struct {
	// Port overrides the module's default port when non-zero.
	Port uint16
	// Workers bounds concurrency; 0 picks 128.
	Workers int
	// DialTimeout bounds each dial; 0 picks 3s.
	DialTimeout time.Duration
}

// Run scans every target with the module and returns one Grab per target, in
// target order (sorted by address) for reproducible downstream processing. It
// is the batch form of RunStream.
func Run(d Dialer, targets []netip.Addr, m Module, opts Options) []Grab {
	ch := make(chan netip.Addr, len(targets))
	for _, t := range targets {
		ch <- t
	}
	close(ch)
	return RunStream(d, ch, m, opts)
}

// RunStream scans targets as they arrive on the channel, so a phase-1 sweep
// (zmaplite.ScanStream) can feed responsive addresses into banner grabs while
// the sweep is still in flight. It returns once targets is closed and every
// grab has completed. Each worker accumulates grabs in a private shard; the
// shards merge and sort by target address at the end, so the returned slice
// is byte-identical to Run over the same target set regardless of arrival
// order or worker count.
func RunStream(d Dialer, targets <-chan netip.Addr, m Module, opts Options) []Grab {
	return RunStreamEmit(d, targets, m, opts, nil)
}

// RunStreamEmit is RunStream with a completion tap: emit (when non-nil) is
// invoked for every grab the moment it completes, from the worker goroutine
// that performed it — while later grabs and the phase-1 sweep are still in
// flight. With multiple workers the calls are concurrent and carry no
// ordering guarantee, so emit must be safe for concurrent use and
// order-insensitive; the returned slice is unchanged by the tap. It is how
// a resolver session consumes observations online instead of waiting for
// the sorted batch.
func RunStreamEmit(d Dialer, targets <-chan netip.Addr, m Module, opts Options, emit func(Grab)) []Grab {
	return runStream(d, targets, m, opts, emit, true)
}

// RunStreamDiscard is RunStreamEmit without the accumulated result slice:
// every grab is delivered to emit and then dropped, so resident memory is
// O(workers) regardless of target count. It is the scan front of the
// out-of-core collection path, where the tap writes observations to the
// durable log and nothing downstream wants the sorted batch.
func RunStreamDiscard(d Dialer, targets <-chan netip.Addr, m Module, opts Options, emit func(Grab)) {
	runStream(d, targets, m, opts, emit, false)
}

// runStream is the shared worker pool behind the stream entry points; keep
// selects whether per-worker shards accumulate grabs for the sorted merge.
func runStream(d Dialer, targets <-chan netip.Addr, m Module, opts Options, emit func(Grab), keep bool) []Grab {
	port := opts.Port
	if port == 0 {
		port = m.DefaultPort()
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = 128
	}
	dialTimeout := opts.DialTimeout
	if dialTimeout <= 0 {
		dialTimeout = 3 * time.Second
	}

	shards := make([][]Grab, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(shard *[]Grab) {
			defer wg.Done()
			for t := range targets {
				g := scanOne(d, t, port, m, dialTimeout)
				if emit != nil {
					emit(g)
				}
				if keep {
					*shard = append(*shard, g)
				}
			}
		}(&shards[w])
	}
	wg.Wait()
	if !keep {
		return nil
	}

	var grabs []Grab
	for _, s := range shards {
		grabs = append(grabs, s...)
	}
	sort.Slice(grabs, func(i, j int) bool { return grabs[i].Target.Less(grabs[j].Target) })
	return grabs
}

// scanOne dials and runs the module against a single target.
func scanOne(d Dialer, target netip.Addr, port uint16, m Module, dialTimeout time.Duration) Grab {
	g := Grab{Target: target, Port: port, Module: m.Name()}
	ctx, cancel := context.WithTimeout(context.Background(), dialTimeout)
	defer cancel()
	conn, err := d.DialContext(ctx, "tcp", netip.AddrPortFrom(target, port).String())
	if err != nil {
		g.Err = fmt.Errorf("zgrab: dial %s:%d: %w", target, port, err)
		return g
	}
	data, err := m.Scan(conn, target)
	if err != nil {
		g.Err = fmt.Errorf("zgrab: %s scan of %s: %w", m.Name(), target, err)
		return g
	}
	g.Data = data
	return g
}

// Successes filters grabs down to those with usable data.
func Successes(grabs []Grab) []Grab {
	out := make([]Grab, 0, len(grabs))
	for _, g := range grabs {
		if g.OK() {
			out = append(out, g)
		}
	}
	return out
}
