package main

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"time"

	"aliaslimit/internal/alias"
	_ "aliaslimit/internal/distres" // registers the "distributed" backend
	"aliaslimit/internal/obslog"
	"aliaslimit/internal/resolver"
	"aliaslimit/internal/scenario"
)

const (
	// replayBatch is how many logged observations a pass reads before
	// handing them to the session, the bounded-batch shape of the library's
	// own out-of-core sealing.
	replayBatch = 1024
)

// replayState is replay-resolve's set-up: the on-disk epoch and one open
// factory per resolver backend, the distributed one with its workers up.
type replayState struct {
	dir      string
	backends []resolver.Backend
	// want is the reference digest over the partitions a pass produces.
	want string
}

// close releases the backends' external resources (the shard workers).
func (s *replayState) close() {
	for _, b := range s.backends {
		if c, ok := b.(io.Closer); ok {
			c.Close()
		}
	}
}

// runReplayResolve is the replay-resolve workload: no scanning and no
// crypto. Set-up collects the x10 corpus into an on-disk obslog epoch (in a
// child process, see corpus.go) and spawns the distributed backend's
// workers. One operation
// is a pass over every resolver backend: a fresh session per backend reads
// every protocol's epoch through obslog.OpenEpoch, then answers Sets per
// protocol and Merged over them.
func runReplayResolve(r *runner) error {
	var st *replayState
	var setups []float64
	for i := 0; i < setupRounds; i++ {
		if st != nil {
			st.close()
		}
		t0 := time.Now()
		var err error
		if st, err = r.replaySetup(i); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer st.close()

	var walls, obsPerS, cpuPerObs, traced, plain []float64
	rss := startRSSSampler()
	defer rss.close()
	rss.lap(true)
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < r.seconds() || (r.tr != nil && pass < 2); pass++ {
		var tr *tracer
		if r.tr != nil && pass%2 == 1 {
			tr = r.tr
		}
		p := r.replayPass(st, tr)
		walls = append(walls, p.wall.Seconds())
		obsPerS = append(obsPerS, float64(p.obs)/p.wall.Seconds())
		cpuPerObs = append(cpuPerObs, p.cpu.Seconds()/float64(max(p.obs, 1)))
		if tr == nil {
			plain = append(plain, p.wall.Seconds())
		} else {
			traced = append(traced, p.wall.Seconds())
		}
	}
	peak := rss.lap(false)
	q1, q3 := quartiles(walls)
	r.logf("%d passes over %d backends: pass quartiles %.1f %.1f %.1f ms", len(walls), len(st.backends), q1*1e3, medianOf(walls)*1e3, q3*1e3)
	v := r.values
	v["setup_s"] = medianOf(setups)
	v["op_p50_ms"] = medianOf(walls) * 1e3
	v["obs_per_s"] = medianOf(obsPerS)
	v["cpu_us_per_obs"] = medianOf(cpuPerObs) * 1e6
	v["peak_rss_mib"] = peak
	if r.tr != nil {
		v["trace.overhead_frac"] = medianOf(traced)/medianOf(plain) - 1
		// Per pass, summed over the pass's batches and backends.
		v["obslog.read_s"] = medianOf(secondsOf(r.tr.perParent("obslog.read")))
		v["distres.spawn_s"] = medianOf(secondsOf(r.tr.durations("distres.spawn")))
		for _, b := range st.backends {
			for _, call := range []string{"observe", "sets", "merged"} {
				name := "resolver." + b.Name() + "." + call
				v[name+"_s"] = medianOf(secondsOf(r.tr.perParent(name)))
			}
		}
	}
	return nil
}

// replaySetup collects the corpus into an on-disk epoch and opens the
// backends, starting the distributed backend's workers.
func (r *runner) replaySetup(round int) (*replayState, error) {
	dir := filepath.Join(r.tmp, fmt.Sprintf("corpus-%d", round))
	refs, err := r.runCorpus(dir)
	if err != nil {
		return nil, err
	}
	st := &replayState{dir: filepath.Join(dir, corpusLog), want: r.reference(refs.Replay)}
	for _, name := range backendNames {
		b, err := resolver.New(name, 0)
		if err != nil {
			st.close()
			return nil, err
		}
		st.backends = append(st.backends, b)
		if name == "distributed" {
			// The first session starts the worker processes.
			err := r.tr.stage("distres.spawn", noSpan, func() error {
				s, err := b.Open(resolver.Options{})
				if err != nil {
					return err
				}
				return s.Close()
			})
			if err != nil {
				st.close()
				return nil, fmt.Errorf("spawning %s workers: %w", name, err)
			}
		}
	}
	return st, nil
}

// replayDigest hashes a pass's partitions: per protocol, then merged.
func replayDigest(parts [][]alias.Set) string {
	names := []string{"ssh", "bgp", "snmpv3", "merged"}
	named := make([]scenario.Partition, len(parts))
	for i, sets := range parts {
		named[i] = scenario.Partition{Name: names[i], Sets: sets}
	}
	d, _ := scenario.DigestPartitions(named)
	return d
}

// replayResult is one pass's cost.
type replayResult struct {
	wall, cpu time.Duration
	obs       int
}

// replayPass runs one pass over every backend and checks each backend's
// partitions against the reference.
func (r *runner) replayPass(st *replayState, tr *tracer) replayResult {
	var res replayResult
	root := tr.begin("bench.pass", noSpan)
	c0, t0 := treeCPU(), time.Now()
	for _, b := range st.backends {
		n, digest, err := replayBackend(st.dir, b, tr, root)
		res.obs += n
		r.check(err == nil && digest == st.want, "%s pass: err %v, digest %.12s want %.12s", b.Name(), err, digest, st.want)
	}
	res.wall, res.cpu = time.Since(t0), treeCPU()-c0
	tr.end(root)
	return res
}

// replayBackend reads the epoch into a fresh session of one backend and
// returns how many observations it read and the digest of its partitions.
func replayBackend(dir string, b resolver.Backend, tr *tracer, root int32) (int, string, error) {
	name := "resolver." + b.Name()
	var sess resolver.Session
	err := tr.stage(name+".open", root, func() (err error) {
		sess, err = b.Open(resolver.Options{})
		return err
	})
	if err != nil {
		return 0, "", err
	}
	n := 0
	buf := make([]alias.Observation, 0, replayBatch)
	for _, p := range protocols {
		rd, err := obslog.OpenEpoch(dir, p, 0, obslog.ReadOptions{})
		if err != nil {
			sess.Close()
			return n, "", err
		}
		for done := false; !done && err == nil; {
			err = tr.stage("obslog.read", root, func() (err error) {
				buf, done, err = readBatch(rd, buf[:0])
				return err
			})
			tr.stage(name+".observe", root, func() error {
				for _, o := range buf {
					sess.Observe(o)
				}
				return nil
			})
			n += len(buf)
		}
		rd.Close()
		if err != nil {
			sess.Close()
			return n, "", err
		}
	}
	parts := make([][]alias.Set, 0, len(protocols)+1)
	tr.stage(name+".sets", root, func() error {
		for _, p := range protocols {
			parts = append(parts, sess.Sets(p))
		}
		return nil
	})
	tr.stage(name+".merged", root, func() error {
		parts = append(parts, sess.Merged(parts...))
		return nil
	})
	err = tr.stage(name+".close", root, sess.Close)
	return n, replayDigest(parts), err
}

// readBatch appends up to replayBatch logged observations to buf and
// reports whether the epoch is exhausted.
func readBatch(rd *obslog.EpochReader, buf []alias.Observation) ([]alias.Observation, bool, error) {
	for len(buf) < replayBatch {
		_, o, err := rd.Next()
		if errors.Is(err, io.EOF) {
			return buf, true, nil
		}
		if err != nil {
			return buf, false, err
		}
		buf = append(buf, o)
	}
	return buf, false, nil
}
