package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	hj "handshakejoin"
)

// setupReps is how often a run sets the engine up; setup_s is the
// median, and the last repetition's engine serves the timed phase.
const setupReps = 21

// drain is how long the engine gets after the last push to deliver
// the output still in flight before the timed phase ends.
const drain = 100 * time.Millisecond

// sampleEvery is the StatsSnapshot cadence of a traced run.
const sampleEvery = 10 * time.Millisecond

// measurement is everything one run of a workload observed.
type measurement struct {
	rec *recorder
	// prepRec and lastPunct cover ordered-durable's prep phase: its
	// output, and the punctuation floor of the checkpoint set-up
	// restores from.
	prepRec   *recorder
	lastPunct int64

	setupStart, setupEnd, setupNs, newNs, restoreNs, firstNs []int64

	t0                  int64
	pushStart, pushEnd  []int64 // per push index; pushEnd only when traced
	lastPushEnd         int64
	closeStart, closeNs int64
	tuples, failed      int
	pushErr             error

	// cpuAt and tuplesAt are the process CPU time and the tuples pushed
	// at each segment boundary of the timed phase, from its start;
	// stealAt the host's steal and total CPU ticks there.
	cpuAt, tuplesAt  []int64
	stealAt          [][2]uint64
	heapLive         int64
	allocBytes       uint64
	gcCycles         uint32
	before, atEnd    hj.Snapshot // timed-phase start and end
	final            hj.Stats    // after Close
	expiryDepth      []int64     // sampled, traced runs only
	floorLag, ckptNs []int64
}

// measure runs w once: prep (if any), set-up repetitions, then the
// open-loop timed phase on the last repetition's engine.
func measure(w *spec, sc *schedule, in inputs, traced bool, workdir string) (*measurement, error) {
	m := &measurement{lastPunct: -1}
	walRoot := filepath.Join(workdir, "wal")
	prepDir := filepath.Join(walRoot, "prep")
	if w.durable {
		if err := os.RemoveAll(walRoot); err != nil {
			return nil, err
		}
		if err := prep(w, sc, in, prepDir, m); err != nil {
			return nil, fmt.Errorf("prep: %w", err)
		}
		defer os.RemoveAll(walRoot)
	}
	expect := int(w.resultsPerTuple*float64(sc.timedTuples())*1.2) + 1024
	m.rec = newRecorder(w, sc, expect, traced)
	m.pushStart = make([]int64, len(sc.pushes))
	if traced {
		m.pushEnd = make([]int64, len(sc.pushes))
	}
	p := newPusher(w, in)

	var ms runtime.MemStats
	liveHeap := func() int64 {
		// Two collections: the first only moves sync.Pool contents to
		// the victim cache, the second frees them.
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	heapBase := liveHeap()

	var eng hj.Joiner[RTuple, STuple]
	var cpu0 int64
	firstPush := sc.pushes[sc.timedFrom]
	for rep := 0; rep < setupReps; rep++ {
		last := rep == setupReps-1
		dir := ""
		if w.durable {
			dir = filepath.Join(walRoot, fmt.Sprintf("rep%d", rep))
			if err := copyDir(prepDir, dir); err != nil {
				return nil, err
			}
		}
		sink := discard
		if last {
			sink = m.rec.out
		}
		// Each repetition starts from a heap whose free pages went back to
		// the OS, as in a fresh process: otherwise whether New's buffers
		// land on recycled or on new pages depends on the scavenger's
		// timing, and set-up time with it.
		debug.FreeOSMemory()
		start := clock()
		e, err := hj.New(w.config(dir, sink))
		if err != nil {
			return nil, fmt.Errorf("New: %w", err)
		}
		tNew := clock()
		if w.durable {
			if err := e.Restore(dir); err != nil {
				return nil, fmt.Errorf("Restore: %w", err)
			}
		}
		tRestore := clock()
		// Every repetition reads the counters the kept one needs, so all
		// of them do the same work; setup_s leaves the reads out.
		runtime.ReadMemStats(&ms)
		cpu := cpuTime()
		snap := e.StatsSnapshot()
		t0 := clock()
		if last {
			m.rec.t0.Store(t0)
			m.rec.sampling.Store(true)
		}
		err = p.push(e, firstPush)
		end := clock()
		if err != nil {
			return nil, fmt.Errorf("first push: %w", err)
		}
		m.setupStart = append(m.setupStart, start)
		m.setupEnd = append(m.setupEnd, end)
		m.setupNs = append(m.setupNs, tRestore-start+end-t0)
		m.newNs = append(m.newNs, tNew-start)
		m.restoreNs = append(m.restoreNs, tRestore-tNew)
		m.firstNs = append(m.firstNs, end-t0)
		if !last {
			if err := e.Close(); err != nil {
				return nil, err
			}
			if dir != "" {
				if err := os.RemoveAll(dir); err != nil {
					return nil, err
				}
			}
			continue
		}
		eng, cpu0, m.t0, m.before = e, cpu, t0, snap
		m.pushStart[sc.timedFrom] = t0
		if traced {
			m.pushEnd[sc.timedFrom] = end
		}
		m.allocBytes, m.gcCycles = ms.TotalAlloc, ms.NumGC
	}
	m.tuples = firstPush.n

	var stopSampler func()
	if traced {
		stopSampler = m.sample(eng)
	}
	m.cpuAt = append(make([]int64, 0, sc.segments+1), cpu0)
	m.tuplesAt = append(make([]int64, 0, sc.segments+1), 0)
	m.stealAt = append(make([][2]uint64, 0, sc.segments+1), hostSteal())
	for k := sc.timedFrom + 1; k < len(sc.pushes); k++ {
		ps := sc.pushes[k]
		due := m.t0 + ps.due
		if d := due - clock(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		m.pushStart[k] = clock()
		if len(m.cpuAt) < sc.segments && m.pushStart[k]-m.t0 >= int64(len(m.cpuAt))*segment {
			m.cpuAt = append(m.cpuAt, cpuTime())
			m.tuplesAt = append(m.tuplesAt, int64(m.tuples))
			m.stealAt = append(m.stealAt, hostSteal())
		}
		err := p.push(eng, ps)
		if traced {
			m.pushEnd[k] = clock()
		}
		m.tuples += ps.n
		if err != nil {
			m.failed += ps.n
			if m.pushErr == nil {
				m.pushErr = fmt.Errorf("push %d: %w", k, err)
			}
		}
	}
	m.lastPushEnd = clock()
	time.Sleep(drain)
	m.rec.sampling.Store(false)
	m.cpuAt = append(m.cpuAt, cpuTime())
	m.tuplesAt = append(m.tuplesAt, int64(m.tuples))
	m.stealAt = append(m.stealAt, hostSteal())
	if stopSampler != nil {
		stopSampler()
	}
	m.atEnd = eng.StatsSnapshot()
	runtime.ReadMemStats(&ms)
	m.allocBytes = ms.TotalAlloc - m.allocBytes
	m.gcCycles = ms.NumGC - m.gcCycles
	m.heapLive = liveHeap() - heapBase
	m.closeStart = clock()
	if err := eng.Close(); err != nil {
		return nil, fmt.Errorf("Close: %w", err)
	}
	m.closeNs = clock() - m.closeStart
	m.final = eng.Stats()
	return m, nil
}

// prep pushes ordered-durable's prep tuples as fast as the engine takes
// them. The auto-checkpoint after batch 1024 is the cut set-up restores
// from; the pushes after it are the WAL tail Restore replays.
func prep(w *spec, sc *schedule, in inputs, dir string, m *measurement) error {
	m.prepRec = newRecorder(w, sc, int(w.resultsPerTuple*float64(2*sc.first)*1.25), false)
	e, err := hj.New(w.config(dir, m.prepRec.out))
	if err != nil {
		return err
	}
	p := newPusher(w, in)
	for _, ps := range sc.pushes[:sc.timedFrom] {
		if err := p.push(e, ps); err != nil {
			e.Close()
			return err
		}
	}
	if err := e.Close(); err != nil {
		return err
	}
	info, err := hj.CheckpointInfo(dir)
	if err != nil {
		return err
	}
	if info.WALFrom == 0 {
		return fmt.Errorf("no checkpoint was written")
	}
	m.lastPunct = info.LastPunct
	return nil
}

// sample polls StatsSnapshot until the returned stop function is
// called; stop returns once the sampler has exited.
func (m *measurement) sample(eng hj.Joiner[RTuple, STuple]) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(sampleEvery)
		defer tick.Stop()
		ckpts := m.before.Checkpoints
		for {
			select {
			case <-done:
				return
			case <-tick.C:
			}
			s := eng.StatsSnapshot()
			var depth int64
			for _, d := range s.ExpiryDepth {
				depth += d
			}
			m.expiryDepth = append(m.expiryDepth, depth)
			if s.FloorLagNs >= 0 {
				m.floorLag = append(m.floorLag, s.FloorLagNs)
			}
			if s.Checkpoints > ckpts {
				ckpts = s.Checkpoints
				m.ckptNs = append(m.ckptNs, s.LastCheckpointNs)
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// pusher turns schedule entries into engine pushes, reusing one batch
// buffer per side.
type pusher struct {
	w  *spec
	in inputs
	rb []hj.Stamped[RTuple]
	sb []hj.Stamped[STuple]
}

func newPusher(w *spec, in inputs) *pusher {
	return &pusher{w: w, in: in, rb: make([]hj.Stamped[RTuple], 0, w.callerBatch), sb: make([]hj.Stamped[STuple], 0, w.callerBatch)}
}

func (p *pusher) push(e hj.Joiner[RTuple, STuple], ps push) error {
	period := p.w.period()
	if p.w.callerBatch == 1 {
		ts := int64(ps.first) * period
		if ps.side == hj.R {
			return e.PushR(p.in.R(ps.first), ts)
		}
		return e.PushS(p.in.S(ps.first), ts)
	}
	if ps.side == hj.R {
		p.rb = p.rb[:0]
		for j := ps.first; j < ps.first+uint64(ps.n); j++ {
			p.rb = append(p.rb, hj.Stamped[RTuple]{Payload: p.in.R(j), TS: int64(j) * period})
		}
		return e.PushRBatch(p.rb)
	}
	p.sb = p.sb[:0]
	for j := ps.first; j < ps.first+uint64(ps.n); j++ {
		p.sb = append(p.sb, hj.Stamped[STuple]{Payload: p.in.S(j), TS: int64(j) * period})
	}
	return e.PushSBatch(p.sb)
}

// cpuTime is the process's user plus system CPU time in nanoseconds.
func cpuTime() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// hostSteal reads the host's steal ticks (CPU time the hypervisor gave
// to other machines while this one's CPUs wanted it) and total ticks
// from /proc/stat; zeros where it is unreadable.
func hostSteal() [2]uint64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return [2]uint64{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	var st [2]uint64
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		if i == 7 {
			st[0] = v
		}
		if i < 8 {
			st[1] += v
		}
	}
	return st
}

// copyDir copies the regular files of a directory tree.
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		return copyFile(path, target)
	})
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
