package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"pax"
	"pax/internal/server"
)

// The serving stack under test, stood up in-process exactly as paxserve
// would with -shards 2 -epoch-log: nothing here sets a field the daemon's
// defaults do not.

func poolOptions() pax.Options {
	return pax.Options{EpochLog: true, DataSize: 64 << 20}
}

type stack struct {
	path   string // pool path the shard files hang off
	opts   pax.Options
	eng    *server.ShardedEngine
	srv    *server.Server
	addr   string
	served chan error
}

// openStack opens (creating or recovering) the shards under dir and serves
// them on a loopback port.
func openStack(dir string, opts pax.Options) (*stack, error) {
	s := &stack{path: filepath.Join(dir, "kv.pool"), opts: opts, served: make(chan error, 1)}
	eng, err := server.OpenSharded(s.path, shards, opts, 0, server.Config{})
	if err != nil {
		return nil, err
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		eng.Close()
		return nil, err
	}
	s.eng, s.srv, s.addr = eng, server.NewServer(eng), lis.Addr().String()
	go func() { s.served <- s.srv.Serve(lis) }()
	return s, nil
}

// stopServing closes the listener and every connection and waits for the
// handlers; the engine stays open.
func (s *stack) stopServing() error {
	s.srv.Shutdown()
	return <-s.served
}

// quiesce waits out background checkpoints, so a measured phase starts with
// none in flight.
func (s *stack) quiesce() {
	for _, p := range s.eng.ShardPools() {
		p.Internal().PM().WaitCheckpoint()
	}
}

// preloadWindow is how many PUTs each preload connection keeps in flight:
// enough for full 128-write group commits on both shards.
const preloadWindow = 128

// setUp is what setup_s times: create the pools, listen, write version 1 of
// every key over TCP, and wait for the checkpoints that kicked off.
func setUp(dir string, w workload, o runOpts) (*stack, *versions, error) {
	s, err := openStack(dir, o.pool)
	if err != nil {
		return nil, nil, err
	}
	vers := newVersions(w.keys)
	c := connections()
	far := time.Now().Add(time.Hour)
	res, err := runPhase(level{addr: s.addr}, w, stream{"preload", phase{putConns: c, putWindow: preloadWindow, sequential: true}},
		o.seed, vers, window{start: far, end: far, slices: 1}, nil, nil)
	if err == nil && (res.failed != 0 || res.attempted != int64(w.keys)) {
		err = fmt.Errorf("preload wrote %d of %d keys, %d failed", res.attempted, w.keys, res.failed)
	}
	if err != nil {
		s.stopServing()
		s.eng.Close()
		return nil, nil, err
	}
	s.quiesce()
	return s, vers, nil
}

// crashAndReopen kills the fleet without a final commit, as a power cut
// would, and times how long the shards take to come back: Crash plus
// OpenSharded. It does so several times over (each reopen replays the same
// log onto the same checkpoint) and reports the median. Between the two
// calls the dead fleet is collected, untimed, so the new one is built in
// memory the process already has, as the first set-up's was not: faulting
// in half a gigabyte of fresh pages costs this host anything from 0.1 to
// over 1 s, which would be most of the figure.
func (s *stack) crashAndReopen(times int) (*server.ShardedEngine, float64, error) {
	var took []float64
	for i := 0; i < times; i++ {
		t0 := time.Now()
		if err := s.eng.Crash(); err != nil {
			return nil, 0, err
		}
		crash := time.Since(t0)
		s.eng, s.srv = nil, nil
		runtime.GC()
		t0 = time.Now()
		eng, err := server.OpenSharded(s.path, shards, s.opts, 0, server.Config{})
		if err != nil {
			return nil, 0, err
		}
		took = append(took, (crash + time.Since(t0)).Seconds())
		s.eng = eng
	}
	return s.eng, median(took), nil
}

// lostAckedWrites reads every key back and counts those whose stored
// version is older than the last one acked (or newer than the last one sent,
// or whose bytes fail the fill check).
func lostAckedWrites(eng *server.ShardedEngine, w workload, seed int64, vers *versions) (int, error) {
	lost := 0
	for i := 0; i < w.keys; i++ {
		body, found, err := eng.Get(keyBytes(i))
		if err != nil {
			return 0, err
		}
		ver, ok := uint32(0), false
		if found {
			ver, ok = checkValue(body, seed, i, w.valueSize)
		}
		if !ok || ver < vers.acked[i].Load() || ver > vers.sent[i].Load() {
			lost++
		}
	}
	return lost, nil
}

// Pool files live on tmpfs unless -pools says otherwise. Every group commit
// fsyncs, and on this host's shared virtual disk an fsync takes 0.4-0.5 ms
// and swings by a fifth from one second to the next: a disk-backed run
// measures the neighbours, not the program (README.md has the numbers).
// Without a writable /dev/shm the pools go under bench/out.

const poolDirPrefix = "paxbench-"

// poolsFlag is -pools: where to make pool directories, "" to choose.
var poolsFlag string

// poolRoot returns the directory pool directories are made in, and the name
// it is reported under.
func poolRoot() (dir, fs string) {
	if poolsFlag != "" {
		return poolsFlag, "-pools " + poolsFlag
	}
	if f, err := os.CreateTemp("/dev/shm", poolDirPrefix+"probe-*"); err == nil {
		f.Close()
		os.Remove(f.Name())
		return "/dev/shm", "tmpfs"
	}
	return filepath.Join("bench", "out"), "disk"
}

// newPoolDir makes a fresh pool directory named after this process, after
// removing the directories of benchmark processes that no longer exist (a
// run killed by its timeout cannot clean up after itself).
func newPoolDir() (string, error) {
	root, _ := poolRoot()
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	stale, _ := filepath.Glob(filepath.Join(root, poolDirPrefix+"*"))
	for _, d := range stale {
		pid, _, _ := strings.Cut(strings.TrimPrefix(filepath.Base(d), poolDirPrefix), "-")
		if n, err := strconv.Atoi(pid); err == nil {
			if _, err := os.Stat(filepath.Join("/proc", strconv.Itoa(n))); os.IsNotExist(err) {
				os.RemoveAll(d)
			}
		}
	}
	return os.MkdirTemp(root, poolDirPrefix+strconv.Itoa(os.Getpid())+"-")
}
