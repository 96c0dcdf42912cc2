package main

import (
	"context"
	"net"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"aliaslimit/internal/alias"
	"aliaslimit/internal/bgp"
	"aliaslimit/internal/experiments"
	"aliaslimit/internal/hitlist"
	"aliaslimit/internal/ident"
	"aliaslimit/internal/netsim"
	"aliaslimit/internal/obslog"
	"aliaslimit/internal/snmpv3"
	"aliaslimit/internal/sshwire"
	"aliaslimit/internal/topo"
	"aliaslimit/internal/zgrab"
	"aliaslimit/internal/zmaplite"
)

// The leaf passes break one Advance into its layers. Advance runs the scans
// inside the library, out of the benchmark's reach, so the traced run
// repeats the active campaign over the same world through the layers'
// public calls — zmaplite.Scan, zgrab.Run behind timing Dialer and Module
// decorators, snmpv3.Discover and ident.From* — and, for the streaming
// workload, writes and reads the epoch's observations through obslog.

const (
	// scanWorkers is the collection's default service-scan concurrency.
	scanWorkers = 256
	// grabTimeout matches the collection's anti-hang backstop.
	grabTimeout = 2 * time.Minute
	// serialSample is how many port-22 targets the serial handshake pass
	// grabs one at a time to price a handshake in CPU.
	serialSample = 256
)

// countingProber counts SYN probes.
type countingProber struct {
	p zmaplite.Prober
	n atomic.Int64
}

func (c *countingProber) SynProbe(addr netip.Addr, port uint16) netsim.ProbeStatus {
	c.n.Add(1)
	return c.p.SynProbe(addr, port)
}

// timedDialer records a zgrab.dial span per connection.
type timedDialer struct {
	d      zgrab.Dialer
	tr     *tracer
	parent int32
}

func (t *timedDialer) DialContext(ctx context.Context, network, address string) (net.Conn, error) {
	start := time.Now()
	conn, err := t.d.DialContext(ctx, network, address)
	t.tr.record("zgrab.dial", t.parent, start, time.Now())
	return conn, err
}

// timedModule records one span per protocol exchange.
type timedModule struct {
	zgrab.Module
	tr     *tracer
	parent int32
	span   string
}

func (t *timedModule) Scan(conn net.Conn, target netip.Addr) (any, error) {
	start := time.Now()
	res, err := t.Module.Scan(conn, target)
	t.tr.record(t.span, t.parent, start, time.Now())
	return res, err
}

// grabPass runs one zgrab pass through the timing decorators inside a stage
// span and returns the grabs with the span's id.
func (r *runner) grabPass(name string, parent int32, d zgrab.Dialer, targets []netip.Addr, m zgrab.Module, span string) ([]zgrab.Grab, int32) {
	id := r.tr.begin(name, parent)
	defer r.tr.end(id)
	dialer := &timedDialer{d: d, tr: r.tr, parent: id}
	mod := &timedModule{Module: m, tr: r.tr, parent: id, span: span}
	return zgrab.Run(dialer, targets, mod, zgrab.Options{Workers: scanWorkers, DialTimeout: grabTimeout}), id
}

// leafPasses runs the traced leaf passes over a measured epoch's world and
// stores the per-layer metrics they yield.
func (r *runner) leafPasses(ep *experiments.Epoch, stream bool) error {
	root := r.tr.begin("bench.leaf", noSpan)
	defer r.tr.end(root)
	r.leafScans(ep.Env.World, root)
	if stream {
		return r.leafLog(ep, root)
	}
	return nil
}

// leafScans repeats the active campaign's sweeps, grabs, discovery and
// identifier extraction.
func (r *runner) leafScans(w *topo.World, root int32) {
	tr, v := r.tr, w.Fabric.Vantage(topo.VantageActive)
	targets := append(append([]netip.Addr(nil), w.V4Universe()...),
		hitlist.Sample(w.V6Bound(), w.Cfg.HitlistCoverage, w.Cfg.Seed)...)

	prober := &countingProber{p: v}
	open := map[uint16][]netip.Addr{}
	for _, port := range []uint16{22, 179} {
		tr.stage("zmaplite.sweep", root, func() error {
			res, err := zmaplite.Scan(prober, zmaplite.Config{
				Targets: targets, Port: port, Seed: w.Cfg.Seed, Workers: scanWorkers})
			if res != nil {
				open[port] = res.Open
			}
			return err
		})
	}
	probes := prober.n.Load()
	r.values["zmaplite.sweep_s"] = tr.total("zmaplite.sweep").Seconds()
	r.values["zmaplite.probes"] = float64(probes)
	r.values["zmaplite.open_ratio"] = float64(len(open[22])+len(open[179])) / float64(max(probes, 1))

	sshGrabs, _ := r.grabPass("zgrab.run.ssh", root, v, open[22], &zgrab.SSHModule{Timeout: grabTimeout}, "sshwire.handshake")
	bgpGrabs, bgpRun := r.grabPass("zgrab.run.bgp", root, v, open[179], &zgrab.BGPModule{Timeout: grabTimeout}, "bgp.open")
	var engines []*snmpv3.DiscoveryResult
	tr.stage("snmpv3.discover", root, func() error {
		engines = discoverAll(v, targets)
		return nil
	})

	okSSH, okBGP, opens, ids := 0, 0, 0, 0
	tr.stage("ident.extract", root, func() error {
		for _, g := range sshGrabs {
			if g.OK() {
				okSSH++
				if _, ok := ident.FromSSH(g.Data.(*sshwire.ScanResult)); ok {
					ids++
				}
			}
		}
		for _, g := range bgpGrabs {
			if g.OK() {
				okBGP++
				res := g.Data.(*bgp.ScanResult)
				if res.Open != nil {
					opens++
				}
				if _, ok := ident.FromBGP(res); ok {
					ids++
				}
			}
		}
		for _, e := range engines {
			if _, ok := ident.FromSNMPEngineID(e.EngineID); ok {
				ids++
			}
		}
		return nil
	})

	sample := open[22][:min(serialSample, len(open[22]))]
	serialOK := 0
	// A collection first, so that no cycle over the world's heap lands in
	// the pass and is charged to the handshakes.
	runtime.GC()
	serial := tr.begin("sshwire.serial", root)
	for _, g := range zgrab.Run(v, sample, &zgrab.SSHModule{Timeout: grabTimeout},
		zgrab.Options{Workers: 1, DialTimeout: grabTimeout}) {
		if g.OK() {
			serialOK++
		}
	}
	tr.end(serial)

	grabs := len(sshGrabs) + len(bgpGrabs)
	val := r.values
	val["zgrab.dial_s"] = tr.total("zgrab.dial").Seconds()
	val["zgrab.grabs"] = float64(grabs)
	val["zgrab.ok_ratio"] = float64(okSSH+okBGP) / float64(max(grabs, 1))
	val["sshwire.handshakes"] = float64(okSSH)
	val["sshwire.handshake_ms_p50"] = percentileMs(tr.durations("sshwire.handshake"), 0.5)
	val["sshwire.cpu_us_per_handshake"] = float64(tr.cpu(serial).Microseconds()) / float64(max(serialOK, 1))
	val["bgp.opens"] = float64(opens)
	val["bgp.cpu_us_per_open"] = float64(tr.cpu(bgpRun).Microseconds()) / float64(max(opens, 1))
	val["snmpv3.discover_s"] = tr.total("snmpv3.discover").Seconds()
	val["snmpv3.engine_ids"] = float64(len(engines))
	val["ident.extract_s"] = tr.total("ident.extract").Seconds()
	val["ident.ids"] = float64(ids)
	val["ident.yield"] = float64(ids) / float64(max(okSSH+okBGP+len(engines), 1))
}

// discoverAll sends one engine-discovery probe per target from a fixed
// worker pool, as the collection's SNMPv3 sweep does.
func discoverAll(v *netsim.Vantage, targets []netip.Addr) []*snmpv3.DiscoveryResult {
	results := make([]*snmpv3.DiscoveryResult, len(targets))
	idx := make(chan int, scanWorkers)
	var wg sync.WaitGroup
	for w := 0; w < scanWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if res, ok, err := snmpv3.Discover(v, targets[i], int64(i), int64(i)+1); ok && err == nil {
					results[i] = res
				}
			}
		}()
	}
	for i := range targets {
		idx <- i
	}
	close(idx)
	wg.Wait()
	var out []*snmpv3.DiscoveryResult
	for _, res := range results {
		if res != nil {
			out = append(out, res)
		}
	}
	return out
}

// leafLog reads the streamed epoch back from the collection's spill and
// writes it through a fresh obslog: appends, the epoch fold, and the bytes
// the folded log takes.
func (r *runner) leafLog(ep *experiments.Epoch, root int32) error {
	type sourced struct {
		src obslog.Source
		p   ident.Protocol
		o   alias.Observation
	}
	var all []sourced
	err := r.tr.stage("obslog.read", root, func() error {
		for _, p := range protocols {
			for _, src := range []obslog.Source{obslog.SourceActive, obslog.SourceCensys} {
				ds := ep.Env.Active
				if src == obslog.SourceCensys {
					ds = ep.Env.Censys
				}
				if err := ds.EachObs(p, func(o alias.Observation) { all = append(all, sourced{src, p, o}) }); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	dir := filepath.Join(r.tmp, "leaf-log")
	defer os.RemoveAll(dir)
	w, err := obslog.Create(dir, obslog.RunMeta{Scenario: presetName, Seed: r.cfg.seed, Epochs: 1},
		obslog.Options{Sync: obslog.SyncNever})
	if err != nil {
		return err
	}
	r.tr.stage("obslog.append", root, func() error {
		for _, s := range all {
			w.Observe(s.src, s.p, s.o)
		}
		return nil
	})
	err = r.tr.stage("obslog.fold", root, func() error { return w.CompleteEpoch(0, "", 0) })
	r.values["obslog.bytes"] = float64(dirBytes(dir))
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	r.values["obslog.append_s"] = r.tr.total("obslog.append").Seconds()
	r.values["obslog.fold_s"] = r.tr.total("obslog.fold").Seconds()
	r.values["obslog.read_s"] = r.tr.total("obslog.read").Seconds()
	return err
}

// dirBytes sums the sizes of the regular files directly inside dir.
func dirBytes(dir string) int64 {
	entries, _ := os.ReadDir(dir)
	var n int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n
}
