package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/signal"
	"runtime/pprof"
	"strconv"
	"sync"
	"syscall"
	"time"

	"rocc/internal/core"
	"rocc/internal/dist"
)

// Sweep workers are this binary re-executed with -worker: the dist wire
// protocol on stdin/stdout, exactly as roccsweep's workers serve it. The
// coordinator kills a worker as soon as the sweep no longer needs it, so a
// worker cannot report its own cost at exit. Instead it announces its pid
// on stderr, and when the benchmark's runner wrapper is asked to close it,
// the wrapper sends SIGUSR1 and waits for one stats line — runtime
// counters, peak RSS and, in traced passes, the worker's CPU profile —
// before letting dist kill the process.

const workerTag = "perfbench-worker"

// workerStats is what a worker reports when collected.
type workerStats struct {
	Runtime  rtStats `json:"runtime"`
	MaxRSSKB int64   `json:"max_rss_kb"`
	Profile  []byte  `json:"profile,omitempty"`

	startNs int64 // set by the benchmark: Start to the worker's pid line
}

// workerMain serves the dist protocol; args is "-profile" to take a CPU
// profile of the worker's whole life.
func workerMain(args []string) int {
	profile := len(args) > 0 && args[0] == "-profile"
	var prof bytes.Buffer
	if profile {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench worker:", err)
			return 1
		}
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGUSR1)
	go func() {
		<-sig
		if profile {
			pprof.StopCPUProfile()
		}
		// VmHWM, not getrusage: ru_maxrss survives exec and so would
		// include the benchmark process the worker was forked from.
		st := workerStats{Runtime: readRuntime(), MaxRSSKB: peakRSSKB(), Profile: prof.Bytes()}
		b, err := json.Marshal(st)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench worker:", err)
			return
		}
		fmt.Fprintf(os.Stderr, "%s stats=%s\n", workerTag, b)
	}()
	// The pid line goes out only after the handler is installed: the
	// default action of SIGUSR1 would kill the worker.
	fmt.Fprintf(os.Stderr, "%s pid=%d\n", workerTag, os.Getpid())
	if err := dist.ServeWorker(os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench worker:", err)
		return 1
	}
	return 0
}

// workerLink is one worker slot's stderr: it picks out the pid and stats
// lines and passes anything else through to the benchmark's stderr.
type workerLink struct {
	mu      sync.Mutex
	line    []byte
	started time.Time
	pid     chan int
	stats   chan workerStats
	// readyAfter is the time from Start to the worker's pid line: process
	// spawn plus Go runtime start.
	readyAfter time.Duration
}

// reset prepares the link for a freshly started worker process.
func (l *workerLink) reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.line = l.line[:0]
	l.started = time.Now()
	l.pid = make(chan int, 1)
	l.stats = make(chan workerStats, 1)
	l.readyAfter = 0
}

// Write implements io.Writer for the worker's stderr.
func (l *workerLink) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.line = append(l.line, p...)
	for {
		i := bytes.IndexByte(l.line, '\n')
		if i < 0 {
			return len(p), nil
		}
		l.handle(l.line[:i])
		l.line = l.line[i+1:]
	}
}

func (l *workerLink) handle(line []byte) {
	rest, ok := bytes.CutPrefix(line, []byte(workerTag+" "))
	if !ok {
		fmt.Fprintf(os.Stderr, "%s\n", line)
		return
	}
	if v, ok := bytes.CutPrefix(rest, []byte("pid=")); ok {
		if pid, err := strconv.Atoi(string(v)); err == nil {
			l.readyAfter = time.Since(l.started)
			select {
			case l.pid <- pid:
			default:
			}
		}
		return
	}
	if v, ok := bytes.CutPrefix(rest, []byte("stats=")); ok {
		var st workerStats
		if err := json.Unmarshal(v, &st); err == nil {
			select {
			case l.stats <- st:
			default:
			}
		}
	}
}

// collect signals the worker and waits for its stats line.
func (l *workerLink) collect(timeout time.Duration) (workerStats, time.Duration, error) {
	l.mu.Lock()
	pidc, statsc := l.pid, l.stats
	l.mu.Unlock()
	deadline := time.After(timeout)
	var pid int
	select {
	case pid = <-pidc:
	case <-deadline:
		return workerStats{}, 0, errors.New("worker never announced its pid")
	}
	if err := syscall.Kill(pid, syscall.SIGUSR1); err != nil {
		return workerStats{}, 0, fmt.Errorf("signal worker %d: %w", pid, err)
	}
	select {
	case st := <-statsc:
		l.mu.Lock()
		ready := l.readyAfter
		l.mu.Unlock()
		return st, ready, nil
	case <-deadline:
		return workerStats{}, 0, fmt.Errorf("worker %d sent no stats", pid)
	}
}

// sweepProbe gathers what the runner wrappers see during one sweep pass.
// All methods are safe for the concurrent slot goroutines.
type sweepProbe struct {
	mu      sync.Mutex
	jobNs   map[int]int64 // shard (= job, at shard size 1) -> round-trip time
	workers []workerStats
	errs    []error
}

func newSweepProbe() *sweepProbe { return &sweepProbe{jobNs: map[int]int64{}} }

// benchRunner wraps a dist.SubprocessRunner so the benchmark can time
// worker start and each shard round trip from outside the engine, and
// collect the worker's own stats before it is killed.
type benchRunner struct {
	inner dist.SubprocessRunner
	link  *workerLink
	probe *sweepProbe
}

func newBenchRunner(slot int, profile bool, probe *sweepProbe) *benchRunner {
	link := &workerLink{}
	args := []string{"-worker"}
	if profile {
		args = append(args, "-profile")
	}
	return &benchRunner{
		inner: dist.SubprocessRunner{Args: args, Stderr: link, Label: fmt.Sprintf("worker-%d", slot)},
		link:  link,
		probe: probe,
	}
}

func (r *benchRunner) Name() string { return r.inner.Name() }

func (r *benchRunner) Start(ctx context.Context) (dist.Worker, error) {
	r.link.reset()
	w, err := r.inner.Start(ctx)
	if err != nil {
		return nil, err
	}
	return &benchWorker{inner: w, r: r}, nil
}

type benchWorker struct {
	inner dist.Worker
	r     *benchRunner
	once  sync.Once
}

func (w *benchWorker) Run(ctx context.Context, id int, jobs []dist.Job) ([]core.Result, error) {
	t := time.Now()
	res, err := w.inner.Run(ctx, id, jobs)
	d := time.Since(t).Nanoseconds()
	p := w.r.probe
	p.mu.Lock()
	p.jobNs[id] = d
	p.mu.Unlock()
	return res, err
}

func (w *benchWorker) Close() error {
	w.once.Do(func() {
		st, ready, err := w.r.link.collect(10 * time.Second)
		p := w.r.probe
		p.mu.Lock()
		if err != nil {
			p.errs = append(p.errs, fmt.Errorf("%s: %w", w.r.Name(), err))
		} else {
			st.startNs = ready.Nanoseconds()
			p.workers = append(p.workers, st)
		}
		p.mu.Unlock()
	})
	return w.inner.Close()
}
