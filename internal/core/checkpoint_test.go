package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/durable"
	"repro/internal/numeric"
	"repro/internal/pattern"
	"repro/internal/topo"
)

// cancelAfterCommits wires the onCommit test hook to a context that dies
// once the pattern search has committed n base points — a deterministic
// stand-in for kill -9 at a known depth of the trajectory.
func cancelAfterCommits(n int, opts *Options) {
	ctx, cancel := context.WithCancel(context.Background())
	commits := 0
	opts.Context = ctx
	opts.OnCommit = func(numeric.IntVector, float64) {
		commits++
		if commits >= n {
			cancel()
		}
	}
}

// TestDimensionCheckpointResume is the tentpole's acceptance test: kill a
// dimensioning run after K commits, resume from the checkpoint, and land on
// windows and objective bit-identical to the uninterrupted run — serially
// and at Workers > 1, in every combination of interrupted and resumed
// worker counts the cache replay claims to support.
func TestDimensionCheckpointResume(t *testing.T) {
	n := topo.Canada2Class(20, 20)
	// Start far from the optimum so the search commits several base points
	// (the hop-count start is already optimal and commits only once).
	far := func() Options {
		return Options{
			InitialWindows: numeric.IntVector{16, 16},
			InitialStep:    numeric.IntVector{4, 4},
		}
	}
	ref, err := Dimension(n, far())
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Search.BasePoints) < 3 {
		t.Fatalf("reference run commits %d base points; the kill depths below need 3+", len(ref.Search.BasePoints))
	}
	for _, workers := range []int{1, 8} {
		for _, killAt := range []int{1, 2} {
			path := filepath.Join(t.TempDir(), "windim.ckpt")
			interrupted := far()
			interrupted.Workers = workers
			interrupted.CheckpointPath = path
			cancelAfterCommits(killAt, &interrupted)
			res, err := Dimension(n, interrupted)
			if err == nil {
				t.Fatalf("workers=%d killAt=%d: cancelled run returned nil error", workers, killAt)
			}
			if res == nil || res.Windows == nil {
				t.Fatalf("workers=%d killAt=%d: no best-so-far result", workers, killAt)
			}
			// Resume at the OTHER worker count: the checkpoint must be
			// interchangeable across parallelism.
			ropts := far()
			ropts.Workers = 9 - workers
			ropts.ResumePath = path
			resumed, err := Dimension(n, ropts)
			if err != nil {
				t.Fatalf("workers=%d killAt=%d: resume: %v", workers, killAt, err)
			}
			if !resumed.Windows.Equal(ref.Windows) {
				t.Errorf("workers=%d killAt=%d: resumed windows %v, uninterrupted %v",
					workers, killAt, resumed.Windows, ref.Windows)
			}
			if math.Float64bits(resumed.Search.BestValue) != math.Float64bits(ref.Search.BestValue) {
				t.Errorf("workers=%d killAt=%d: resumed objective %v, uninterrupted %v",
					workers, killAt, resumed.Search.BestValue, ref.Search.BestValue)
			}
			if math.Float64bits(resumed.Metrics.Power) != math.Float64bits(ref.Metrics.Power) {
				t.Errorf("workers=%d killAt=%d: resumed power %v, uninterrupted %v",
					workers, killAt, resumed.Metrics.Power, ref.Metrics.Power)
			}
			if resumed.Search.Evaluations >= ref.Search.Evaluations {
				t.Errorf("workers=%d killAt=%d: resume spent %d evaluations, uninterrupted %d — cache not replayed",
					workers, killAt, resumed.Search.Evaluations, ref.Search.Evaluations)
			}
		}
	}
}

// TestDimensionCheckpointCrashResume: a per-commit checkpoint read off
// disk at any commit — the image a kill -9 at that instant leaves, last
// compaction plus appended records — resumes through core to the
// bit-identical result. (Cancellation compacts to a single final line, so
// crash images are taken from a run that is left to finish.)
func TestDimensionCheckpointCrashResume(t *testing.T) {
	n := topo.Canada2Class(20, 20)
	far := func() Options {
		return Options{
			InitialWindows: numeric.IntVector{16, 16},
			InitialStep:    numeric.IntVector{4, 4},
		}
	}
	ref, err := Dimension(n, far())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "windim.ckpt")
	var images [][]byte
	opts := far()
	opts.CheckpointPath = path
	opts.OnCommit = func(numeric.IntVector, float64) {
		if data, err := os.ReadFile(path); err == nil {
			images = append(images, data)
		}
	}
	if _, err := Dimension(n, opts); err != nil {
		t.Fatal(err)
	}
	withRecords := 0
	for i, image := range images {
		if _, records, _ := durable.ReadLog(image); len(records) > 0 {
			withRecords++
		}
		crashed := filepath.Join(dir, fmt.Sprintf("crash%d.ckpt", i))
		if err := os.WriteFile(crashed, image, 0o644); err != nil {
			t.Fatal(err)
		}
		ropts := far()
		ropts.Workers = 1 + 7*(i%2)
		ropts.ResumePath = crashed
		resumed, err := Dimension(n, ropts)
		if err != nil {
			t.Fatalf("image %d: resume: %v", i, err)
		}
		if !resumed.Windows.Equal(ref.Windows) ||
			math.Float64bits(resumed.Search.BestValue) != math.Float64bits(ref.Search.BestValue) ||
			math.Float64bits(resumed.Metrics.Power) != math.Float64bits(ref.Metrics.Power) {
			t.Errorf("image %d: resumed windows %v (%v), uninterrupted %v (%v)",
				i, resumed.Windows, resumed.Search.BestValue, ref.Windows, ref.Search.BestValue)
		}
		if resumed.Search.Evaluations >= ref.Search.Evaluations {
			t.Errorf("image %d: resume spent %d evaluations, uninterrupted %d", i, resumed.Search.Evaluations, ref.Search.Evaluations)
		}
	}
	if withRecords == 0 {
		t.Fatalf("none of %d crash images carried appended records; the log replay is not exercised", len(images))
	}
}

// TestDimensionResumeRejectsMismatch: a checkpoint written for different
// options or a different network must not seed a resume.
func TestDimensionResumeRejectsMismatch(t *testing.T) {
	n := topo.Canada2Class(20, 20)
	path := filepath.Join(t.TempDir(), "windim.ckpt")
	if _, err := Dimension(n, Options{CheckpointPath: path}); err != nil {
		t.Fatal(err)
	}
	if _, err := Dimension(n, Options{ResumePath: path, MaxWindow: 32}); err == nil {
		t.Error("resume with different MaxWindow accepted")
	}
	if _, err := Dimension(topo.Canada2Class(25, 25), Options{ResumePath: path}); err == nil {
		t.Error("resume against a different network accepted")
	}
	// The happy path still round-trips.
	if _, err := Dimension(n, Options{ResumePath: path}); err != nil {
		t.Errorf("matching resume rejected: %v", err)
	}
}

// TestDimensionResumeRejectsOtherSolverRevision: the hash carries the
// approximate fixed-point iteration's revision, so a checkpoint written
// under an older iteration — stamped here with the hash such a binary
// computed for these options — is rejected, while exact-evaluator hashes,
// which no iteration enters, are unchanged and still resume.
func TestDimensionResumeRejectsOtherSolverRevision(t *testing.T) {
	n := topo.Canada2Class(20, 20)
	for _, tc := range []struct {
		eval Evaluator
		// hash of (n, Options{Evaluator: eval}) before the revision tag
		// existed, under the λ-only stop without extrapolation
		before  string
		resumes bool
	}{
		{EvalSigmaMVA, "684e827338edb1b5b11721bf3dc9e92e1f84a151ef11963b081e10300cb6bb71", false},
		{EvalExactMVA, "14869517dc29077faa75c62f60822d0dfb7462e7f3d4bf4f1d8581f31fb673c1", true},
	} {
		opts := Options{Evaluator: tc.eval}
		hash, err := modelHash(n, opts, nil, "")
		if err != nil {
			t.Fatal(err)
		}
		if (hash == tc.before) != tc.resumes {
			t.Errorf("%v: hash %s, before the revision tag %s", tc.eval, hash, tc.before)
		}
		path := filepath.Join(t.TempDir(), "windim.ckpt")
		opts.CheckpointPath = path
		if _, err := Dimension(n, opts); err != nil {
			t.Fatal(err)
		}
		old, err := pattern.LoadCheckpoint(path)
		if err != nil {
			t.Fatal(err)
		}
		old.ModelHash = tc.before
		if err := old.Save(path); err != nil {
			t.Fatal(err)
		}
		_, err = Dimension(n, Options{Evaluator: tc.eval, ResumePath: path})
		if tc.resumes && err != nil {
			t.Errorf("%v: checkpoint from before the revision tag rejected: %v", tc.eval, err)
		}
		if !tc.resumes && !errors.Is(err, ErrResume) {
			t.Errorf("%v: checkpoint from an older solver revision: err %v, want ErrResume", tc.eval, err)
		}
	}
}

// TestDimensionResumeMissingFile: "resume" from nothing is an error, not a
// silent fresh start.
func TestDimensionResumeMissingFile(t *testing.T) {
	n := topo.Canada2Class(20, 20)
	path := filepath.Join(t.TempDir(), "nope.ckpt")
	if _, err := Dimension(n, Options{ResumePath: path}); err == nil {
		t.Fatal("missing checkpoint accepted")
	}
}

// TestDimensionCheckpointExhaustiveRejected: only the pattern search has
// commit points to checkpoint at.
func TestDimensionCheckpointExhaustiveRejected(t *testing.T) {
	n := topo.Canada2Class(20, 20)
	path := filepath.Join(t.TempDir(), "windim.ckpt")
	if _, err := Dimension(n, Options{Search: ExhaustiveSearch, CheckpointPath: path}); err == nil {
		t.Fatal("exhaustive checkpointing accepted")
	}
}

// TestDimensionRobustCheckpointResume: the robust run's checkpoint carries
// the per-scenario health in Aux, its hash covers the scenario set, and a
// killed run resumes to the bit-identical robust windows.
func TestDimensionRobustCheckpointResume(t *testing.T) {
	n := topo.Canada2Class(20, 20)
	scenarios := twoScenarioSet(0.4)
	ref, err := DimensionRobust(n, scenarios, RobustMinimax, Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "robust.ckpt")
	interrupted := Options{CheckpointPath: path}
	cancelAfterCommits(1, &interrupted)
	if _, err := DimensionRobust(n, scenarios, RobustMinimax, interrupted); err == nil {
		t.Fatal("cancelled robust run returned nil error")
	}
	// The scenario set is part of the hash: a different set must be
	// rejected.
	if _, err := DimensionRobust(n, twoScenarioSet(0.5), RobustMinimax, Options{ResumePath: path}); err == nil {
		t.Error("resume with a different scenario set accepted")
	}
	// The robust kind is part of the hash too.
	if _, err := DimensionRobust(n, scenarios, RobustWeighted, Options{ResumePath: path}); err == nil {
		t.Error("resume with a different robust criterion accepted")
	}
	// And a robust checkpoint must not seed a nominal Dimension run.
	if _, err := Dimension(n, Options{ResumePath: path}); err == nil {
		t.Error("nominal resume from a robust checkpoint accepted")
	}
	res, err := DimensionRobust(n, scenarios, RobustMinimax, Options{ResumePath: path})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Windows.Equal(ref.Windows) {
		t.Errorf("resumed robust windows %v, uninterrupted %v", res.Windows, ref.Windows)
	}
	if math.Float64bits(res.WorstPower) != math.Float64bits(ref.WorstPower) {
		t.Errorf("resumed worst power %v, uninterrupted %v", res.WorstPower, ref.WorstPower)
	}
}

// TestDimensionRobustResumeRestoresDegradation: a checkpoint whose Aux
// marks a scenario degraded resumes with that scenario still excluded and
// reported, without re-fighting the lost battle.
func TestDimensionRobustResumeRestoresDegradation(t *testing.T) {
	n := topo.Canada2Class(20, 20)
	scenarios := twoScenarioSet(0.4)
	path := filepath.Join(t.TempDir(), "robust.ckpt")
	interrupted := Options{CheckpointPath: path}
	cancelAfterCommits(1, &interrupted)
	if _, err := DimensionRobust(n, scenarios, RobustMinimax, interrupted); err == nil {
		t.Fatal("cancelled robust run returned nil error")
	}
	// Inject a degradation into the checkpoint's Aux — the editable part a
	// crashed run would have recorded had the scenario died before the kill.
	ck, err := pattern.LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	health := newScenarioHealth([]string{scenarios[0].Name, scenarios[1].Name}, 1, 0)
	if err := health.degrade(1, "injected for test"); err != nil {
		t.Fatal(err)
	}
	ck.Aux = health.snapshotAux()
	if err := ck.Save(path); err != nil {
		t.Fatal(err)
	}
	res, err := DimensionRobust(n, scenarios, RobustMinimax, Options{ResumePath: path})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Degraded) != 1 || res.Degraded[0].Index != 1 || res.Degraded[0].Reason != "injected for test" {
		t.Fatalf("degradation not restored: %+v", res.Degraded)
	}
	if res.PerScenario[1] != nil || !math.IsNaN(res.ScenarioPower[1]) {
		t.Errorf("degraded scenario still reported metrics: %+v", res.ScenarioPower)
	}
	if res.WorstScenario != 0 || res.WorstPower <= 0 {
		t.Errorf("active scenario missing from result: worst=%d power=%v", res.WorstScenario, res.WorstPower)
	}
	// A quorum the restored state cannot meet is rejected up front.
	if _, err := DimensionRobust(n, scenarios, RobustMinimax, Options{ResumePath: path, MinScenarios: 2}); err == nil {
		t.Error("resume below quorum accepted")
	}
}
