package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"irfusion/internal/obs"
)

// waitForCheckpointJournaled polls the serve.journal.checkpoints
// counter until it moves past before: a checkpoint record is in the
// journal, after its blob was committed — the signal that a crash from
// this moment on is recoverable mid-solve. (A listing of the blob
// directory would also match a blob still being written.)
func waitForCheckpointJournaled(t *testing.T, before int64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if obs.CounterValue("serve.journal.checkpoints") > before {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("no checkpoint was journaled before the deadline")
}

// TestServeCrashRestartResumesJob is the end-to-end durability check:
// an acknowledged async job survives a hard crash (no shutdown
// hooks, on-disk image only), is re-enqueued under its original id by
// the restarted process, resumes from its last durable checkpoint,
// and produces the same map a never-crashed solve produces, to the
// cache guard tolerance.
func TestServeCrashRestartResumesJob(t *testing.T) {
	body := pgenBody(31, 32, `"async": true, "include_map": true`)

	// Cold reference map from an undisturbed server — computed before
	// any fault is installed so it costs full price, no shortcuts.
	_, tsCold := newTestServer(t, Config{Workers: 1})
	code, b := post(t, tsCold, "/v1/analyze", pgenBody(31, 32, `"include_map": true`))
	if code != http.StatusOK {
		t.Fatalf("cold solve: status %d: %s", code, b)
	}
	coldView := decodeJob(t, b)
	if coldView.Result == nil || len(coldView.Result.Map) == 0 {
		t.Fatal("cold solve returned no map")
	}
	cold := coldView.Result

	// Each checkpoint store sleeps, stretching a millisecond solve into
	// a wide, deterministic crash window.
	withGlobalFaults(t, "checkpoint.save:latency:delay=25ms")

	dir := t.TempDir()
	recoveredBefore := obs.CounterValue("serve.recovered")
	checkpointsBefore := obs.CounterValue("serve.journal.checkpoints")

	// First incarnation: managed by hand, because the only way out of
	// this server is Crash() — the cleanup-path Close would flush state
	// a real crash never flushes.
	s1 := New(Config{Workers: 1, JournalDir: dir, CheckpointEvery: 2})
	ts1 := httptest.NewServer(s1.Handler())
	code, b = post(t, ts1, "/v1/analyze", body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", code, b)
	}
	id := decodeJob(t, b).ID
	waitForCheckpointJournaled(t, checkpointsBefore)
	s1.Crash()
	ts1.Close()

	// Second incarnation on the same journal directory: replay must
	// find the orphan and finish it.
	s2, ts2 := newTestServer(t, Config{Workers: 1, JournalDir: dir, CheckpointEvery: 2})
	if s2.replayStats.Records == 0 {
		t.Fatal("restarted server replayed no journal records")
	}
	if got := obs.CounterValue("serve.recovered") - recoveredBefore; got != 1 {
		t.Fatalf("serve.recovered advanced by %d, want 1", got)
	}

	v := waitStatus(t, ts2, id, func(st Status) bool { return st == StatusDone })
	if v.ID != id {
		t.Fatalf("recovered job kept id %q, want original %q", v.ID, id)
	}
	if v.Result == nil || v.Result.Manifest == nil {
		t.Fatalf("recovered job has no result/manifest: %+v", v)
	}
	mf := v.Result.Manifest
	if mf.Resume == nil {
		t.Fatal("recovered job's manifest has no resume section")
	}
	if mf.Resume.From != fromRestart {
		t.Errorf("resume provenance %q, want %q", mf.Resume.From, fromRestart)
	}
	if mf.Resume.Outcome != obs.ResumeAccepted || mf.Resume.Iter <= 0 {
		t.Errorf("resume section %+v, want an accepted mid-solve resume", mf.Resume)
	}

	if len(v.Result.Map) != len(cold.Map) {
		t.Fatalf("map length %d, want %d", len(v.Result.Map), len(cold.Map))
	}
	var maxDiff float64
	for i := range cold.Map {
		if d := math.Abs(v.Result.Map[i] - cold.Map[i]); d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff > 1e-8 {
		t.Fatalf("resumed map differs from cold map by %g (tol 1e-8)", maxDiff)
	}
}

// TestServeRestartSkipsFinishedJobs: a cleanly finished job must not
// be resurrected by a restart — its terminal record closes it out in
// the journal fold.
func TestServeRestartSkipsFinishedJobs(t *testing.T) {
	dir := t.TempDir()
	s1 := New(Config{Workers: 1, JournalDir: dir})
	ts1 := httptest.NewServer(s1.Handler())
	code, b := post(t, ts1, "/v1/analyze", pgenBody(7, 24, ""))
	if code != http.StatusOK {
		t.Fatalf("solve: status %d: %s", code, b)
	}
	ts1.Close()
	// A crash after completion: the finished record is already durable.
	s1.Crash()

	recoveredBefore := obs.CounterValue("serve.recovered")
	s2, _ := newTestServer(t, Config{Workers: 1, JournalDir: dir})
	if s2.replayStats.Records == 0 {
		t.Fatal("restarted server replayed no journal records")
	}
	if got := obs.CounterValue("serve.recovered") - recoveredBefore; got != 0 {
		t.Fatalf("finished job resurrected: serve.recovered advanced by %d", got)
	}
}

// TestServeJournalDisabledByDefault: without a JournalDir the server
// runs exactly as before this subsystem existed — no directory, no
// replay state, healthz reports the journal off.
func TestServeJournalDisabledByDefault(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	if s.journal != nil {
		t.Fatal("journal open without a JournalDir")
	}
	code, b := get(t, ts, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	var h struct {
		Journal struct {
			Enabled bool `json:"enabled"`
		} `json:"journal"`
	}
	if err := json.Unmarshal(b, &h); err != nil {
		t.Fatal(err)
	}
	if h.Journal.Enabled {
		t.Error("healthz reports the journal enabled")
	}
}
