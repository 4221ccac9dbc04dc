package main

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"syscall"
	"time"

	"pax/internal/server"
	"pax/internal/wire"
)

// The load generators. A lane is one generator: at the tcp level one
// connection (a sender and a receiver goroutine, requests pipelined between
// them), at the backend level one goroutine calling the engine directly. Both
// levels draw the same seeded op stream and keep the same books.

// window is the measured part of a phase: completions inside it are
// recorded, and generators stop issuing at its end. It is cut into equal
// slices, each of which yields its own throughput and quantiles; a run
// reports the median slice, so one disturbed stretch (a neighbour's burst, a
// collection) does not decide the run's figure.
type window struct {
	start, end time.Time
	slices     int
}

func newWindow(start time.Time, dur time.Duration) window {
	// About half a second per slice, and an odd count so the median is a
	// slice.
	n := max(int(dur/(500*time.Millisecond)), 1)
	return window{start: start, end: start.Add(dur), slices: n - 1 + n%2}
}

// slice returns which slice t falls in, or -1 outside the window.
func (w window) slice(t time.Time) int {
	if t.Before(w.start) || !t.Before(w.end) {
		return -1
	}
	return int(int64(t.Sub(w.start)) * int64(w.slices) / int64(w.end.Sub(w.start)))
}

// side is what one op kind did inside the window.
type side struct {
	lat       [][]uint32 // per slice, ns per completed op
	userBytes int64      // key + value bytes of those ops
}

func (s *side) record(w window, now time.Time, from time.Time, bytes int) {
	k := w.slice(now)
	if k < 0 {
		return
	}
	if s.lat == nil {
		s.lat = make([][]uint32, w.slices)
	}
	s.lat[k] = append(s.lat[k], uint32(min(max(now.Sub(from), 0), 1<<32-1)))
	s.userBytes += int64(bytes)
}

func (s *side) merge(o side) {
	if len(s.lat) < len(o.lat) {
		s.lat = make([][]uint32, len(o.lat))
	}
	for k := range o.lat {
		s.lat[k] = append(s.lat[k], o.lat[k]...)
	}
	s.userBytes += o.userBytes
}

// ops is how many operations the side completed inside the window.
func (s *side) ops() int {
	n := 0
	for _, l := range s.lat {
		n += len(l)
	}
	return n
}

type lane struct {
	w    workload
	seed int64
	vers *versions
	win  window
	pick *keyPicker
	id   int // numbers the lane within its phase; the high bits of its op ids
	// limit is how many ops to issue before stopping early; < 0 is no limit.
	limit int
	// interval paces an open-loop lane: one request is due every interval,
	// and is timed from when it was due. 0 is closed loop.
	interval time.Duration
	// mangle, set only by tests, damages GET bodies before they are checked.
	mangle func([]byte)

	// Owned by the issuing goroutine.
	val       []byte
	attempted int64
	late      []uint32 // open loop: ns each recorded request was sent late

	// Owned by the completing goroutine.
	put, get side
	failed   int64
}

func newLane(w workload, seed int64, vers *versions, win window, stream string, gen, owners int) *lane {
	return &lane{
		w: w, seed: seed, vers: vers, win: win, limit: -1,
		pick: newKeyPicker(w, seed, stream, gen, owners),
		val:  make([]byte, w.valueSize),
	}
}

// pending is one request between issue and completion.
type pending struct {
	idx  int
	ver  uint32    // PUT: the version written; GET: the oldest version the reply may hold
	from time.Time // when the request was issued, or was due (open loop)
	op   uint64
}

// issue decides whether the lane sends another request now. It returns the
// time the request counts from, and ok=false once the lane is finished.
// Open-loop lanes wait here until the next request is due; idle is called
// before any wait so buffered requests are flushed first.
func (l *lane) issue(next *time.Time, idle func() error) (from time.Time, ok bool, err error) {
	for {
		now := time.Now()
		if !now.Before(l.win.end) || l.limit == 0 {
			return now, false, nil
		}
		if l.interval == 0 {
			return now, true, nil
		}
		if wait := next.Sub(now); wait > 0 {
			if err := idle(); err != nil {
				return now, false, err
			}
			// time.Sleep wakes up to a millisecond late, which at 20000
			// requests a second would be most of what a GET is timed at, and
			// spinning starves the network poller. A nanosleep system call
			// blocks only this thread and is late by the kernel's timer
			// slack (50us) at most.
			ts := syscall.NsecToTimespec(int64(wait))
			_ = syscall.Nanosleep(&ts, nil) // an early return only re-runs the loop
			continue
		}
		from = *next
		*next = next.Add(l.interval)
		if l.win.slice(now) >= 0 {
			l.late = append(l.late, uint32(min(now.Sub(from), 1<<32-1)))
		}
		return from, true, nil
	}
}

func (l *lane) nextPut() (idx int, ver uint32) {
	idx = l.pick.next()
	ver = l.vers.sent[idx].Add(1)
	makeValue(l.val, l.seed, idx, ver)
	l.count()
	return idx, ver
}

func (l *lane) nextGet() (idx int, lo uint32) {
	idx = l.pick.next()
	l.count()
	return idx, l.vers.acked[idx].Load()
}

func (l *lane) count() {
	l.attempted++
	if l.limit > 0 {
		l.limit--
	}
}

func (l *lane) donePut(p pending, ok bool, now time.Time) {
	if !ok {
		l.failed++
		return
	}
	l.vers.acked[p.idx].Store(p.ver)
	l.put.record(l.win, now, p.from, keyLen+l.w.valueSize)
}

// doneGet checks a GET reply: the body must be an intact value of the key,
// no older than the last write acked before the GET was issued and no newer
// than the last write sent.
func (l *lane) doneGet(p pending, body []byte, ok bool, now time.Time) {
	if ok && l.mangle != nil {
		l.mangle(body)
	}
	if ok {
		var ver uint32
		ver, ok = checkValue(body, l.seed, p.idx, l.w.valueSize)
		ok = ok && ver >= p.ver && ver <= l.vers.sent[p.idx].Load()
	}
	if !ok {
		l.failed++
		return
	}
	l.get.record(l.win, now, p.from, keyLen+l.w.valueSize)
}

const keyLen = 9 // len("k%08d")

// openLoopDepth bounds an open-loop connection's requests in flight. The
// server stops reading a connection at 256 dispatched requests, so anything
// deeper queues in the socket; reaching the bound shows as send lateness.
const openLoopDepth = 1024

// runConn drives one lane over its own TCP connection until the lane is
// finished and every reply is in.
func (l *lane) runConn(addr string, put bool, depth int, tr *levelTrace) error {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer c.Close()
	if l.interval > 0 {
		depth = openLoopDepth
	}
	var (
		bw    = bufio.NewWriter(c)
		slots = make(chan struct{}, depth) // one token per request in flight
		queue = make(chan pending, depth)  // the requests in flight, in wire order
		dead  = make(chan struct{})        // closed when the receiver gives up
		rerr  error
		wg    sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		if rerr = l.receive(bufio.NewReader(c), queue, slots, put, tr.buf()); rerr != nil {
			close(dead)
		}
	}()
	serr := l.send(bw, queue, slots, dead, put, tr.buf())
	close(queue)
	if serr != nil {
		c.Close() // unblock the receiver
	}
	wg.Wait()
	if serr != nil {
		return serr
	}
	return rerr
}

func (l *lane) send(bw *bufio.Writer, queue chan<- pending, slots chan<- struct{}, dead <-chan struct{}, put bool, spans *spanBuf) error {
	next := time.Now()
	key := make([]byte, 0, keyLen)
	var seq uint64
	for {
		// Requests pile up in bw while the window has room and leave in one
		// write when it fills, so a burst of replies becomes a burst of
		// requests without a system call each.
		select {
		case slots <- struct{}{}:
		default:
			if err := bw.Flush(); err != nil {
				return err
			}
			select {
			case slots <- struct{}{}:
			case <-dead:
				return nil
			}
		}
		from, ok, err := l.issue(&next, bw.Flush)
		if err != nil {
			return err
		}
		if !ok {
			return bw.Flush()
		}
		seq++
		p := pending{from: from, op: uint64(l.id)<<40 | seq}
		req := wire.Request{Op: wire.OpGet}
		if put {
			p.idx, p.ver = l.nextPut()
			req = wire.Request{Op: wire.OpPut, Value: l.val}
		} else {
			p.idx, p.ver = l.nextGet()
		}
		req.Key = fmt.Appendf(key[:0], "k%08d", p.idx)
		queue <- p
		t0 := spans.now()
		if err := wire.WriteRequest(bw, req); err != nil {
			return err
		}
		spans.add("wire.write_request", rootName(put), p.op, t0)
	}
}

func rootName(put bool) string {
	if put {
		return "tcp.put"
	}
	return "tcp.get"
}

func (l *lane) receive(br *bufio.Reader, queue <-chan pending, slots <-chan struct{}, put bool, spans *spanBuf) error {
	for p := range queue {
		t0 := spans.now()
		resp, err := wire.ReadResponse(br)
		if err != nil {
			return err
		}
		now := time.Now()
		<-slots
		spans.add("wire.read_response", rootName(put), p.op, t0)
		if put {
			l.donePut(p, resp.Status == wire.StatusOK, now)
		} else {
			l.doneGet(p, resp.Body, resp.Status == wire.StatusOK, now)
		}
		spans.addRoot(rootName(put), p.op, p.from, now)
	}
	return nil
}

// runBackend drives one lane against the engine in-process: the same op
// stream with no wire and no socket.
func (l *lane) runBackend(eng *server.ShardedEngine, put bool, spans *spanBuf) error {
	next := time.Now()
	var seq uint64
	for {
		from, ok, err := l.issue(&next, func() error { return nil })
		if err != nil || !ok {
			return err
		}
		seq++
		p := pending{from: from, op: uint64(l.id)<<40 | seq}
		if put {
			p.idx, p.ver = l.nextPut()
			// The engine keeps key and value (the wire path hands it a fresh
			// frame buffer per request), so each call gets its own copies.
			_, err := eng.PutPolicy(keyBytes(p.idx), append([]byte(nil), l.val...), server.AckDurable)
			now := time.Now()
			l.donePut(p, err == nil, now)
			spans.addRoot("backend.put", p.op, from, now)
		} else {
			p.idx, p.ver = l.nextGet()
			body, found, err := eng.Get(keyBytes(p.idx))
			now := time.Now()
			l.doneGet(p, body, err == nil && found, now)
			spans.addRoot("backend.get", p.op, from, now)
		}
	}
}

// phaseResult is one phase's lanes merged.
type phaseResult struct {
	put, get          side
	late              []uint32
	attempted, failed int64
	wall              time.Duration
}

func (r *phaseResult) absorb(l *lane) {
	r.put.merge(l.put)
	r.get.merge(l.get)
	r.late = append(r.late, l.late...)
	r.attempted += l.attempted
	r.failed += l.failed
}

// level says where a phase's lanes run: over TCP to addr, or in-process
// against eng when addr is empty. eng is the fleet either way; its registry
// is sampled around each window.
type level struct {
	addr string
	eng  *server.ShardedEngine
}

// runPhase runs every lane of the phase to completion and merges them. At
// the backend level a connection's window becomes that many goroutines, so
// the engine sees the same number of requests in flight.
func runPhase(lv level, w workload, st stream, seed int64, vers *versions, win window, tr *levelTrace, mangle func([]byte)) (phaseResult, error) {
	type job struct {
		l     *lane
		put   bool
		depth int
	}
	var jobs []job
	ph := st.ph
	putLanes, getLanes, putDepth, getDepth := ph.putConns, ph.getConns, ph.putWindow, ph.getWindow
	if lv.addr == "" {
		putLanes, putDepth = ph.putConns*ph.putWindow, 1
		if ph.getRate == 0 {
			getLanes, getDepth = ph.getConns*ph.getWindow, 1
		}
	}
	for g := 0; g < putLanes; g++ {
		l := newLane(w, seed, vers, win, st.name+"/put", g, putLanes)
		if ph.sequential {
			l.pick.walked, l.limit = 0, l.pick.owned()
		}
		jobs = append(jobs, job{l, true, putDepth})
	}
	for g := 0; g < getLanes; g++ {
		l := newLane(w, seed, vers, win, st.name+"/get", g, 1)
		if ph.getRate > 0 {
			l.interval = time.Duration(float64(time.Second) * float64(getLanes) / ph.getRate)
		}
		l.mangle = mangle
		jobs = append(jobs, job{l, false, getDepth})
	}
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i, j := range jobs {
		j.l.id = i
		wg.Add(1)
		go func() {
			defer wg.Done()
			if lv.addr != "" {
				errs[i] = j.l.runConn(lv.addr, j.put, j.depth, tr)
			} else {
				errs[i] = j.l.runBackend(lv.eng, j.put, tr.buf())
			}
		}()
	}
	wg.Wait()
	res := phaseResult{wall: win.end.Sub(win.start)}
	for i, j := range jobs {
		if errs[i] != nil {
			return res, fmt.Errorf("%s %s lane %d: %w", w.name, st.name, i, errs[i])
		}
		res.absorb(j.l)
	}
	return res, nil
}
