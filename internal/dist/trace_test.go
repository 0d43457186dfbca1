package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"testing"
	"time"

	"rocc/internal/obs"
)

// slowEveryAttempt makes a Chaos runner delay every surviving attempt by
// d. The chaos fixtures use it on the healthy workers so the doomed slot
// is guaranteed dispatches (and hence its quarantine) before the fast
// in-process shards drain the queue — without it the tests race the
// scheduler.
func slowEveryAttempt(c *Chaos, d time.Duration) *Chaos {
	c.Delay = 1.0
	c.DelayFor = func(ctx context.Context) {
		select {
		case <-time.After(d):
		case <-ctx.Done():
		}
	}
	return c
}

// tracedChaosOpts is the shared fixture: a doomed worker (guarantees
// retry and quarantine spans) plus healthy-but-slowed ones.
func tracedChaosOpts(tr *TraceRecorder) Options {
	opt := fastOpts()
	opt.ShardSize = 2
	opt.QuarantineAfter = 2
	opt.Log = io.Discard
	opt.Trace = tr
	opt.Runners = []Runner{
		&Chaos{Inner: InProcessRunner{ID: 0}, Seed: 7, Crash: 1.0},
		slowEveryAttempt(&Chaos{Inner: InProcessRunner{ID: 1}, Seed: 11}, 5*time.Millisecond),
		slowEveryAttempt(&Chaos{Inner: InProcessRunner{ID: 2}, Seed: 13}, 5*time.Millisecond),
	}
	return opt
}

// Tracing must be purely observational: a traced chaotic sweep returns
// the same bytes as the untraced local baseline, while the merged
// timeline contains every lifecycle category — dispatch, run, per-job,
// retry backoff, quarantine, and the final merge.
func TestTraceDoesNotChangeResults(t *testing.T) {
	jobs := testJobs(t, 12)
	want := mustJSON(t, baseline(t, jobs))

	tr := NewTraceRecorder()
	got, err := Run(context.Background(), jobs, tracedChaosOpts(tr))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustJSON(t, got), want) {
		t.Fatal("traced sweep diverges from local baseline")
	}

	cats := tr.Categories()
	for _, want := range []string{"dispatch", "run", "job", "retry", "quarantine", "merge"} {
		if cats[want] == 0 {
			t.Errorf("merged timeline has no %q spans: %v", want, cats)
		}
	}
	if cats["merge"] != 1 {
		t.Errorf("merge spans = %d, want exactly 1", cats["merge"])
	}
}

// The wire protocol must carry trace context out and spans back: a
// traced sweep over real subprocess workers produces worker-side run and
// per-job spans in the merged timeline, with results still byte-equal to
// the baseline.
func TestTraceOverWireProtocol(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess workers in -short mode")
	}
	jobs := testJobs(t, 8)
	want := mustJSON(t, baseline(t, jobs))

	tr := NewTraceRecorder()
	opt := fastOpts()
	opt.ShardSize = 2
	opt.MaxShardAttempts = 1 // no speculation: exactly one attempt per shard
	opt.Trace = tr
	opt.Runners = testSubprocessRunners(t, 2)
	got, err := Run(context.Background(), jobs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustJSON(t, got), want) {
		t.Fatal("traced subprocess sweep diverges from local baseline")
	}
	cats := tr.Categories()
	if cats["run"] != 4 {
		t.Errorf("run spans = %d, want 4 (one per shard)", cats["run"])
	}
	if cats["job"] != 8 {
		t.Errorf("job spans = %d, want 8 (one per job)", cats["job"])
	}
}

// The exported timeline must be valid Chrome trace-event JSON (the same
// validator roccviz -check applies) with one process track per worker
// slot plus the coordinator track.
func TestTraceWriteChromeValidates(t *testing.T) {
	jobs := testJobs(t, 12)
	tr := NewTraceRecorder()
	if _, err := Run(context.Background(), jobs, tracedChaosOpts(tr)); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	n, err := obs.ValidateChrome(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("WriteChrome output invalid: %v", err)
	}
	if n < tr.Len() {
		t.Fatalf("exported %d events for %d recorded", n, tr.Len())
	}

	var events []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		PID  int            `json:"pid"`
		Args map[string]any `json:"args"`
	}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	tracks := map[string]int{}
	for _, e := range events {
		if e.Ph == "M" && e.Name == "process_name" {
			tracks[e.Args["name"].(string)] = e.PID
		}
	}
	if _, ok := tracks[trackCoordinator]; !ok {
		t.Fatalf("no coordinator track in %v", tracks)
	}
	workerTracks := 0
	pids := map[int]bool{}
	for name, pid := range tracks {
		if pids[pid] {
			t.Fatalf("pid %d reused across tracks: %v", pid, tracks)
		}
		pids[pid] = true
		if name != trackCoordinator && name != trackLocal {
			workerTracks++
		}
	}
	if workerTracks < 2 {
		t.Fatalf("want per-worker tracks for the fleet, got %v", tracks)
	}
}

// An untraced sweep must carry no trace context: the wire request omits
// the trace field entirely, which is what keeps old workers compatible
// and the disabled path free.
func TestUntracedRequestOmitsTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, request{V: wireVersion, ID: 3, Jobs: nil}); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte("trace")) {
		t.Fatalf("untraced request leaks a trace field: %s", buf.Bytes()[4:])
	}
	var req request
	if err := readFrame(bytes.NewReader(buf.Bytes()), &req); err != nil {
		t.Fatal(err)
	}
	if req.Trace != nil {
		t.Fatal("round-trip invented a trace context")
	}
}

// The Chrome export of a hand-built recorder is pinned byte for byte:
// fixed events on the coordinator, the local fallback and two worker
// tracks (recorded out of name order, so the pid layout's sort shows),
// plus one instant.
func TestTraceWriteChromeGolden(t *testing.T) {
	tr := &TraceRecorder{events: []traceEvent{
		{name: "dispatch shard 1", cat: "dispatch", ph: "X", ts: 10.5, dur: 200, track: "worker-b",
			args: map[string]any{"shard": 1, "attempt": 1, "outcome": "ok"}},
		{name: "run shard 1", cat: "run", ph: "X", ts: 12, dur: 180.25, track: "worker-b",
			args: map[string]any{"shard": 1, "attempt": 1, "job": -1}},
		{name: "dispatch shard 0", cat: "dispatch", ph: "X", ts: 11, dur: 50, track: "worker-a",
			args: map[string]any{"shard": 0, "attempt": 1, "outcome": "error", "error": "worker crashed"}},
		{name: "quarantined", cat: "quarantine", ph: "i", ts: 61, track: "worker-a",
			args: map[string]any{"consecutive_failures": 2}},
		{name: "retry backoff shard 0", cat: "retry", ph: "X", ts: 61, dur: 1000, track: trackCoordinator,
			args: map[string]any{"shard": 0}},
		{name: "run shard 0", cat: "local", ph: "X", ts: 1061, dur: 0, track: trackLocal,
			args: map[string]any{"shard": 0}},
		{name: "merge results", cat: "merge", ph: "X", ts: 1300, dur: 3.75, track: trackCoordinator,
			args: map[string]any{"jobs": 4}},
	}}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	const want = `[{"name":"process_name","ph":"M","ts":0,"pid":11,"tid":0,"args":{"name":"worker-b"}},` +
		`{"name":"dispatch shard 1","cat":"dispatch","ph":"X","ts":10.5,"dur":200,"pid":11,"tid":1,"args":{"attempt":1,"outcome":"ok","shard":1}},` +
		`{"name":"run shard 1","cat":"run","ph":"X","ts":12,"dur":180.25,"pid":11,"tid":1,"args":{"attempt":1,"job":-1,"shard":1}},` +
		`{"name":"process_name","ph":"M","ts":0,"pid":10,"tid":0,"args":{"name":"worker-a"}},` +
		`{"name":"dispatch shard 0","cat":"dispatch","ph":"X","ts":11,"dur":50,"pid":10,"tid":1,"args":{"attempt":1,"error":"worker crashed","outcome":"error","shard":0}},` +
		`{"name":"quarantined","cat":"quarantine","ph":"i","ts":61,"pid":10,"tid":1,"s":"t","args":{"consecutive_failures":2}},` +
		`{"name":"process_name","ph":"M","ts":0,"pid":1,"tid":0,"args":{"name":"coordinator"}},` +
		`{"name":"retry backoff shard 0","cat":"retry","ph":"X","ts":61,"dur":1000,"pid":1,"tid":1,"args":{"shard":0}},` +
		`{"name":"process_name","ph":"M","ts":0,"pid":2,"tid":0,"args":{"name":"local fallback"}},` +
		`{"name":"run shard 0","cat":"local","ph":"X","ts":1061,"pid":2,"tid":1,"args":{"shard":0}},` +
		`{"name":"merge results","cat":"merge","ph":"X","ts":1300,"dur":3.75,"pid":1,"tid":1,"args":{"jobs":4}}]` + "\n"
	if got := buf.String(); got != want {
		t.Fatalf("WriteChrome bytes changed:\ngot  %s\nwant %s", got, want)
	}
}
