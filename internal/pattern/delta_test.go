package pattern

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/durable"
	"repro/internal/numeric"
)

var errKill = errors.New("simulated crash")

// killAfter builds an objective that fails hard after n calls — unlike
// cancellation, a hard failure writes NO final snapshot, so whatever the
// cadence left in the log (last compaction + appended records) is all a
// resume gets: exactly the crash scenario the records exist for.
func killAfter(n int) Objective {
	calls := 0
	return func(x numeric.IntVector) (float64, error) {
		calls++
		if calls > n {
			return 0, errKill
		}
		return quad2(x)
	}
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// deltaOptions is the per-commit durable cadence — the configuration the
// appended delta records make near-free.
func deltaOptions(path string) Options {
	return Options{
		InitialStep: numeric.IntVector{4, 4}, MaxHalvings: 3,
		Checkpoint: &CheckpointOptions{Path: path, Every: 1, ModelHash: "h"},
	}
}

// TestSearchDeltaResume: crash the search at several depths with per-commit
// checkpointing on, resume from the log, and land on the
// bit-identical result of the uninterrupted run at any worker count.
func TestSearchDeltaResume(t *testing.T) {
	start := numeric.IntVector{2, 2}
	ref, err := Search(quad2, start, Options{InitialStep: numeric.IntVector{4, 4}, MaxHalvings: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, killAt := range []int{4, 7, 11, 15} {
		for _, workers := range []int{1, 8} {
			path := filepath.Join(t.TempDir(), "search.ckpt")
			opts := deltaOptions(path)
			if _, err := Search(killAfter(killAt), start, opts); !errors.Is(err, errKill) {
				t.Fatalf("killAt=%d: want simulated crash, got %v", killAt, err)
			}
			ck, err := LoadCheckpoint(path)
			if err != nil {
				t.Fatalf("killAt=%d: %v", killAt, err)
			}
			resumed := Options{InitialStep: numeric.IntVector{4, 4}, MaxHalvings: 3, Workers: workers, Resume: ck}
			res, err := Search(quad2, start, resumed)
			if err != nil {
				t.Fatalf("killAt=%d workers=%d: resume: %v", killAt, workers, err)
			}
			if !res.Best.Equal(ref.Best) || math.Float64bits(res.BestValue) != math.Float64bits(ref.BestValue) {
				t.Errorf("killAt=%d workers=%d: resumed best %v (%v) vs uninterrupted %v (%v)",
					killAt, workers, res.Best, res.BestValue, ref.Best, ref.BestValue)
			}
			if res.Evaluations >= ref.Evaluations {
				t.Errorf("killAt=%d workers=%d: resume made %d objective calls, uninterrupted %d — cache not replayed",
					killAt, workers, res.Evaluations, ref.Evaluations)
			}
		}
	}
}

// TestDeltaMergeMatchesFullSnapshots: the merged view of the log (last
// compaction plus appended records) must carry exactly the memo cache and
// commit count the search held at its last durable write, recorded here
// independently through OnCommit, which runs just before each write.
func TestDeltaMergeMatchesFullSnapshots(t *testing.T) {
	start := numeric.IntVector{2, 2}
	const killAt = 15 // past a compaction, with a record appended after it
	path := filepath.Join(t.TempDir(), "delta.ckpt")
	seen := map[string]float64{}
	obj := killAfter(killAt)
	recording := func(x numeric.IntVector) (float64, error) {
		v, err := obj(x)
		if err == nil {
			seen[x.Key()] = v
		}
		return v, err
	}
	var atWrite map[string]float64
	commits := 0
	opts := deltaOptions(path)
	opts.OnCommit = func(numeric.IntVector, float64) {
		commits++
		atWrite = maps.Clone(seen)
	}
	if _, err := Search(recording, start, opts); !errors.Is(err, errKill) {
		t.Fatalf("want simulated crash, got %v", err)
	}
	if _, records, _ := durable.ReadLog(mustRead(t, path)); len(records) == 0 {
		t.Fatal("crash left no appended records; the merge is not exercised")
	}
	merged, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged.Visited) != len(atWrite) {
		t.Fatalf("merged cache has %d entries, the search held %d", len(merged.Visited), len(atWrite))
	}
	for k, v := range atWrite {
		mv, ok := merged.Visited[k]
		if !ok || math.Float64bits(float64(mv)) != math.Float64bits(v) {
			t.Errorf("visited[%q]: merged %v, search %v (present %v)", k, mv, v, ok)
		}
	}
	if merged.Commits != commits {
		t.Errorf("merged commits %d, search committed %d", merged.Commits, commits)
	}
}

// TestDeltaAuxPerRecord: every appended record carries Aux, so the loaded
// checkpoint restores the caller state of the last durable write, not the
// one from the last compaction. Aux here is the commit count, and with a
// per-commit cadence the last write happened at the last commit.
func TestDeltaAuxPerRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "search.ckpt")
	commits := 0
	opts := deltaOptions(path)
	opts.OnCommit = func(numeric.IntVector, float64) { commits++ }
	opts.Checkpoint.Aux = func() json.RawMessage { return json.RawMessage(strconv.Itoa(commits)) }
	if _, err := Search(killAfter(15), numeric.IntVector{2, 2}, opts); !errors.Is(err, errKill) {
		t.Fatalf("want simulated crash, got %v", err)
	}
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := strconv.Itoa(commits); string(ck.Aux) != want || ck.Commits != commits {
		t.Errorf("loaded aux %s at %d commits; the last durable write captured %s at %d commits",
			ck.Aux, ck.Commits, want, commits)
	}
}

// TestDeltaTornFinalLine: a crash mid-append leaves a torn last line; the
// loader drops it (losing at most that one record) and resume still works.
func TestDeltaTornFinalLine(t *testing.T) {
	start := numeric.IntVector{2, 2}
	path := filepath.Join(t.TempDir(), "search.ckpt")
	if _, err := Search(killAfter(11), start, deltaOptions(path)); !errors.Is(err, errKill) {
		t.Fatal("want simulated crash")
	}
	clean, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	data := mustRead(t, path)
	if err := os.WriteFile(path, append(data, `{"commit":99,"visited":{"5,`...), 0o644); err != nil {
		t.Fatal(err)
	}
	torn, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("torn final line rejected: %v", err)
	}
	if len(torn.Visited) != len(clean.Visited) || torn.Commits != clean.Commits {
		t.Errorf("torn merge %d entries / %d commits, clean %d / %d",
			len(torn.Visited), torn.Commits, len(clean.Visited), clean.Commits)
	}
	// Corruption anywhere BEFORE the final line is a real error: keep the
	// header, inject garbage, then a valid-looking record.
	header, _, _ := durable.ReadLog(data)
	corrupt := string(header) + "\n" + "garbage\n" + `{"commit":3}` + "\n"
	if err := os.WriteFile(path, []byte(corrupt), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path); err == nil {
		t.Error("mid-file corruption accepted")
	}
}

// TestDeltaWritesAreCheap: with a per-commit cadence, compactions (the
// expensive writes that republish the whole cache) must be a small
// fraction of the durable writes, the file must stay within twice its
// last compacted size plus one record, and a normally terminated run must
// leave a single snapshot line.
//
// Each commit's write follows its OnCommit, so OnCommit sees the previous
// commit's write, and a compaction there shows as a header-only log with
// a header not seen before (every header carries its commit count). The
// count covers the first publish and the compactions during the run; the
// terminal compaction is checked by the single-snapshot test below. File
// identity cannot tell generations apart: a new generation may reuse the
// inode number of the one it replaced.
func TestDeltaWritesAreCheap(t *testing.T) {
	path := filepath.Join(t.TempDir(), "search.ckpt")
	var lastHeader []byte
	compactions, compacted := 0, int64(0)
	observe := func() {
		data, err := os.ReadFile(path)
		if err != nil {
			return // the first commit's write has not happened yet
		}
		header, records, _ := durable.ReadLog(data)
		if len(records) == 0 && !bytes.Equal(header, lastHeader) {
			compactions++
			compacted = int64(len(data))
			lastHeader = header
		}
		if n := len(records); n > 0 && int64(len(data)) > 2*compacted+int64(len(records[n-1])+1) {
			t.Errorf("log is %d bytes after compacting to %d", len(data), compacted)
		}
	}
	opts := Options{
		// Unit steps from far away: the pattern phase crawls, committing
		// dozens of base points on the way to (7, 12).
		InitialStep: numeric.IntVector{1, 1}, MaxHalvings: 2,
		OnCommit:   func(numeric.IntVector, float64) { observe() },
		Checkpoint: &CheckpointOptions{Path: path, Every: 1},
	}
	res, err := Search(quad2, numeric.IntVector{200, 260}, opts)
	if err != nil {
		t.Fatal(err)
	}
	commits := len(res.BasePoints)
	if commits < 8 {
		t.Fatalf("test needs a longer trajectory, got %d commits", commits)
	}
	if want := commits/8 + 2; compactions > want {
		t.Errorf("%d compactions over %d commits; want at most %d", compactions, commits, want)
	}
	if _, records, _ := durable.ReadLog(mustRead(t, path)); len(records) != 0 {
		t.Errorf("%d records left after normal termination; want one snapshot line", len(records))
	}
	if _, err := os.Stat(path + ".delta"); !os.IsNotExist(err) {
		t.Errorf("sidecar written (stat err %v)", err)
	}
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if !ck.Done || !numeric.IntVector(ck.Best).Equal(res.Best) {
		t.Errorf("final snapshot done=%v best=%v, want done best %v", ck.Done, ck.Best, res.Best)
	}
}

// TestDeltaRoundTripValues: non-finite cache values survive the delta path
// (records reuse the JSONFloat codec).
func TestDeltaRoundTripValues(t *testing.T) {
	start := numeric.IntVector{2, 2}
	path := filepath.Join(t.TempDir(), "search.ckpt")
	calls := 0
	spiky := func(x numeric.IntVector) (float64, error) {
		calls++
		if calls > 14 {
			return 0, errKill
		}
		if x[0] == 6 && x[1] == 2 {
			// The first exploratory probe from (2,2) with step (4,4):
			// guaranteed evaluated, and cached as +Inf in a delta record.
			return math.Inf(1), nil
		}
		return quad2(x)
	}
	opts := deltaOptions(path)
	if _, err := Search(spiky, start, opts); !errors.Is(err, errKill) {
		t.Fatal("want simulated crash")
	}
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := ck.Visited["6,2"]
	if !ok {
		t.Skipf("trajectory never visited the spike point; visited %d points", len(ck.Visited))
	}
	if !math.IsInf(float64(v), 1) {
		t.Errorf("infeasible value round-tripped to %v", float64(v))
	}
	_ = fmt.Sprintf("%v", v)
}
