package pattern

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"repro/internal/durable"
)

// CheckpointVersion is the format version this package writes; Load
// rejects files written by a different (future) version rather than
// guessing at their semantics.
const CheckpointVersion = 1

// checkpointKind tags the file so other tools (and humans) can tell what
// produced it.
const checkpointKind = "pattern-search"

// JSONFloat is a float64 whose JSON form round-trips bit-exactly,
// including the non-finite values encoding/json rejects: finite values use
// the shortest decimal that parses back to the same bits, ±Inf and NaN are
// encoded as the strings "+Inf", "-Inf" and "NaN". The memo cache stores
// +Inf for infeasible candidates, so checkpoints need the full range.
type JSONFloat float64

// MarshalJSON implements json.Marshaler.
func (f JSONFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsInf(v, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	case math.IsNaN(v):
		return []byte(`"NaN"`), nil
	}
	return strconv.AppendFloat(nil, v, 'g', -1, 64), nil
}

// UnmarshalJSON implements json.Unmarshaler.
func (f *JSONFloat) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		switch s {
		case "+Inf", "Inf":
			*f = JSONFloat(math.Inf(1))
		case "-Inf":
			*f = JSONFloat(math.Inf(-1))
		case "NaN":
			*f = JSONFloat(math.NaN())
		default:
			return fmt.Errorf("pattern: invalid float string %q in checkpoint", s)
		}
		return nil
	}
	v, err := strconv.ParseFloat(string(b), 64)
	if err != nil {
		return fmt.Errorf("pattern: invalid float %q in checkpoint", b)
	}
	*f = JSONFloat(v)
	return nil
}

// Checkpoint is the durable state of a pattern search: a versioned,
// self-describing snapshot kept durable on a commit cadence (see
// CheckpointOptions) and fed back through Options.Resume after a crash,
// kill or deadline.
//
// The load-bearing field is Visited — the full memo cache (FLOC/FSTR table)
// at snapshot time. Resume does not fast-forward to Best: it preloads the
// cache and lets the search REPLAY from its start point. Every decision of
// the replayed trajectory is answered from the cache (no objective calls),
// so the search reaches the interruption frontier in memo-lookup time and
// then continues exactly as the uninterrupted run would have: warm-start
// engines re-commit along the identical base-point trajectory, rebuilding
// the exact solver seeds the frontier evaluations would have seen. The
// final Best/BestValue/BasePoints are therefore bit-identical to the
// uninterrupted run at any worker count. Best, Step and the counters are
// recorded for inspection and sanity checks, not for control flow.
type Checkpoint struct {
	Version int    `json:"version"`
	Kind    string `json:"kind"`
	// ModelHash identifies the (network, options) pair the cached values
	// were computed for; resuming against a different model is rejected by
	// core before any stale value can poison a search.
	ModelHash string `json:"model_hash,omitempty"`
	// Dim is the dimension of the search lattice; every vector field and
	// every Visited key must agree with it.
	Dim int `json:"dim"`
	// Start is the (clamped) start point the recorded trajectory grew from.
	Start []int `json:"start,omitempty"`
	// Best/BestValue are the base point and objective at snapshot time.
	Best      []int     `json:"best,omitempty"`
	BestValue JSONFloat `json:"best_value,omitempty"`
	// Step and Halvings are the pattern-search step state at snapshot time.
	Step     []int `json:"step,omitempty"`
	Halvings int   `json:"halvings,omitempty"`
	// Commits and Evaluations count committed base points and real
	// objective calls of the run that wrote the snapshot.
	Commits     int `json:"commits,omitempty"`
	Evaluations int `json:"evaluations,omitempty"`
	// Done marks a checkpoint written at normal termination: resuming from
	// it replays to the final answer without any objective calls.
	Done bool `json:"done,omitempty"`
	// Visited is the memoised objective cache, keyed by
	// numeric.IntVector.Key() ("w1,w2,...").
	Visited map[string]JSONFloat `json:"visited"`
	// Aux carries caller state verbatim (core stores per-scenario
	// degradation progress for DimensionRobust here).
	Aux json.RawMessage `json:"aux,omitempty"`
}

// CheckpointOptions configures durable checkpointing of a Search run.
//
// The checkpoint is one append-only log (internal/durable). Its header
// line is a full Checkpoint; each later durable write appends one record
// carrying only the memo-cache entries learned since the previous write,
// so a per-commit cadence costs O(new entries) rather than re-serialising
// an ever-growing cache. A write whose record would push the bytes
// appended since the last compaction past the compacted size compacts
// instead: the whole state is republished as a single header line, which
// keeps the file within twice its compacted size at amortised O(1) cost
// per appended byte. Termination and cancellation always compact.
type CheckpointOptions struct {
	// Path is the checkpoint file. Compactions publish it by atomic
	// rename, so a reader (or a resumed run) never observes a partially
	// written header; a crash mid-append tears at most the final record,
	// which LoadCheckpoint drops.
	Path string
	// Every is the commit cadence: a durable write happens every Every-th
	// committed base point (<= 0 means every commit). Termination and
	// cancellation always write regardless of cadence.
	Every int
	// ModelHash is stamped into every snapshot (see Checkpoint.ModelHash).
	ModelHash string
	// Aux, when non-nil, is called once per durable write (serially, never
	// concurrent with objective evaluations) to capture caller state; every
	// record carries it, so a resume restores the value of the last write.
	Aux func() json.RawMessage
}

// deltaRecord is one appended line: the state advance of a single durable
// write. Visited carries only the cache entries added since the previous
// durable write; the other fields mirror the snapshot's.
type deltaRecord struct {
	Commit      int                  `json:"commit"`
	Best        []int                `json:"best,omitempty"`
	BestValue   JSONFloat            `json:"best_value,omitempty"`
	Step        []int                `json:"step,omitempty"`
	Halvings    int                  `json:"halvings,omitempty"`
	Evaluations int                  `json:"evaluations,omitempty"`
	Visited     map[string]JSONFloat `json:"visited,omitempty"`
	Aux         json.RawMessage      `json:"aux,omitempty"`
}

// LoadCheckpoint reads and validates a checkpoint log: the header is a
// full snapshot (a file written whole by Save, or by an older binary, is
// just a header; a ".delta" sidecar such a binary may have left beside it
// is never read), and the records after it are replayed in append order,
// so the result is the state of the last durable write. A torn final
// record (crash mid-append) is dropped; corruption anywhere earlier is an
// error.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	header, records, _ := durable.ReadLog(data)
	cp, err := ParseCheckpoint(header)
	if err == nil {
		err = cp.apply(records)
	}
	if err != nil {
		return nil, fmt.Errorf("pattern: checkpoint %s: %w", path, err)
	}
	return cp, nil
}

// apply folds appended delta records into the snapshot cp.
func (cp *Checkpoint) apply(records [][]byte) error {
	if len(records) > 0 && cp.Visited == nil {
		cp.Visited = make(map[string]JSONFloat)
	}
	for i, line := range records {
		var rec deltaRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return fmt.Errorf("checkpoint record %d corrupt: %w", i+1, err)
		}
		for _, v := range [][]int{rec.Best, rec.Step} {
			if v != nil && len(v) != cp.Dim {
				return fmt.Errorf("checkpoint record %d vector length %d does not match dimension %d", i+1, len(v), cp.Dim)
			}
		}
		for k, v := range rec.Visited {
			if !ValidPointKey(k, cp.Dim) {
				return fmt.Errorf("checkpoint record %d visited key %q is not a %d-dimensional lattice point", i+1, k, cp.Dim)
			}
			cp.Visited[k] = v
		}
		if rec.Commit > cp.Commits {
			cp.Commits = rec.Commit
			if rec.Best != nil {
				cp.Best = rec.Best
			}
			cp.BestValue = rec.BestValue
			if rec.Step != nil {
				cp.Step = rec.Step
			}
			cp.Halvings = rec.Halvings
			cp.Evaluations = rec.Evaluations
			if rec.Aux != nil {
				cp.Aux = rec.Aux
			}
		}
	}
	return nil
}

// ParseCheckpoint decodes a checkpoint and validates its internal
// consistency (version, kind, dimensions, key syntax). Malformed input of
// any shape returns an error, never a panic: checkpoints may come from
// disk written by older binaries or truncated by failed copies.
func ParseCheckpoint(data []byte) (*Checkpoint, error) {
	var cp Checkpoint
	if err := json.Unmarshal(data, &cp); err != nil {
		return nil, fmt.Errorf("parsing checkpoint: %w", err)
	}
	if cp.Version != CheckpointVersion {
		return nil, fmt.Errorf("unsupported checkpoint version %d (this binary writes %d)", cp.Version, CheckpointVersion)
	}
	if cp.Kind != checkpointKind {
		return nil, fmt.Errorf("checkpoint kind %q is not %q", cp.Kind, checkpointKind)
	}
	if cp.Dim < 1 {
		return nil, fmt.Errorf("checkpoint dimension %d; need >= 1", cp.Dim)
	}
	for _, v := range [][]int{cp.Start, cp.Best, cp.Step} {
		if v != nil && len(v) != cp.Dim {
			return nil, fmt.Errorf("checkpoint vector length %d does not match dimension %d", len(v), cp.Dim)
		}
	}
	for k := range cp.Visited {
		if !ValidPointKey(k, cp.Dim) {
			return nil, fmt.Errorf("checkpoint visited key %q is not a %d-dimensional lattice point", k, cp.Dim)
		}
	}
	return &cp, nil
}

// ValidPointKey reports whether k is a well-formed IntVector.Key() of the
// given dimension. Exported for the other durable wire formats built on
// point keys (the sharded search's slab checkpoints in internal/shard),
// so their parse hardening matches the checkpoint loader's.
func ValidPointKey(k string, dim int) bool {
	parts := strings.Split(k, ",")
	if len(parts) != dim {
		return false
	}
	for _, p := range parts {
		if _, err := strconv.Atoi(p); err != nil {
			return false
		}
	}
	return true
}

// Save writes the checkpoint atomically as a single snapshot line (a
// checkpoint log with no records). A crash at any instant leaves either
// the previous complete checkpoint or the new complete one on disk.
func (cp *Checkpoint) Save(path string) error {
	data, err := json.Marshal(cp)
	if err != nil {
		return fmt.Errorf("pattern: marshal checkpoint: %w", err)
	}
	return durable.WriteFile(path, data)
}

// snapshot builds the current checkpoint state. Called only from commit
// points and termination, where the pass barrier guarantees no objective
// evaluation (and hence no cache mutation) is in flight.
func (s *searcher) snapshot(done bool, aux json.RawMessage) *Checkpoint {
	cp := &Checkpoint{
		Version:     CheckpointVersion,
		Kind:        checkpointKind,
		ModelHash:   s.ckpt.ModelHash,
		Dim:         len(s.start),
		Start:       append([]int(nil), s.start...),
		Best:        append([]int(nil), s.base...),
		BestValue:   JSONFloat(s.fBase),
		Step:        append([]int(nil), s.step...),
		Halvings:    s.halvings,
		Commits:     s.commits,
		Evaluations: s.result.Evaluations,
		Done:        done,
		Visited:     make(map[string]JSONFloat, len(s.cache)),
		Aux:         aux,
	}
	for k, v := range s.cache {
		cp.Visited[k] = JSONFloat(v)
	}
	return cp
}

// writeCheckpoint persists the current state when checkpointing is
// configured; final (termination/cancellation) writes ignore the cadence
// and always compact to a single snapshot line. Other writes append one
// delta record to the open log, or compact when the record would push the
// bytes appended since the last compaction past the compacted size.
func (s *searcher) writeCheckpoint(final bool) error {
	if s.ckpt == nil {
		return nil
	}
	every := s.ckpt.Every
	if every <= 0 {
		every = 1
	}
	if !final && s.commits%every != 0 {
		return nil
	}
	var aux json.RawMessage
	if s.ckpt.Aux != nil {
		aux = s.ckpt.Aux()
	}
	if !final && s.log != nil {
		// With nothing new and no caller state, a record would carry only
		// advisory scalars (the steady state of a resume replay): skip it.
		if len(s.pending) == 0 && aux == nil {
			return nil
		}
		line, err := json.Marshal(deltaRecord{
			Commit:      s.commits,
			Best:        s.base,
			BestValue:   JSONFloat(s.fBase),
			Step:        s.step,
			Halvings:    s.halvings,
			Evaluations: s.result.Evaluations,
			Visited:     s.pending,
			Aux:         aux,
		})
		if err != nil {
			return fmt.Errorf("pattern: checkpoint record: %w", err)
		}
		if s.appended+len(line)+1 <= s.compacted {
			if err := s.log.Append(line); err != nil {
				return fmt.Errorf("pattern: checkpoint append: %w", err)
			}
			s.appended += len(line) + 1
			clear(s.pending)
			return nil
		}
	}
	return s.compact(final, aux)
}

// compact republishes the whole state as the log's single header line.
// The rename fences the previous generation: its handle is closed, and
// nothing written through it could reach the new file anyway.
func (s *searcher) compact(final bool, aux json.RawMessage) error {
	header, err := json.Marshal(s.snapshot(final && s.doneOK, aux))
	if err != nil {
		return fmt.Errorf("pattern: marshal checkpoint: %w", err)
	}
	s.closeLog()
	log, err := durable.CreateLog(s.ckpt.Path, header)
	if err != nil {
		return fmt.Errorf("pattern: checkpoint: %w", err)
	}
	s.log, s.compacted, s.appended = log, len(header)+1, 0
	clear(s.pending)
	return nil
}

// closeLog releases the checkpoint log handle; safe to call at any time.
// Every record was fsynced when appended, so a Close error loses nothing.
func (s *searcher) closeLog() {
	if s.log != nil {
		s.log.Close()
		s.log = nil
	}
}
