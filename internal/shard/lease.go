package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/durable"
)

// Lease fencing. Advisory heartbeats tell the coordinator a worker is
// ALIVE; they cannot tell a reassigned worker it is no longer the OWNER.
// On a single machine that distinction barely matters — SIGKILL is
// reliable — but across hosts a "killed" worker may live on behind a
// partition and keep writing into the shared spool. The lease file is
// the ownership record that contains it:
//
//   - Every launch of slab k carries a fencing epoch, strictly
//     increasing per slab. Before touching any durable slab state the
//     worker ACQUIRES the lease: it reads slab<k>.lease, refuses to run
//     if a lease with an equal or higher epoch exists (it has already
//     been superseded), and otherwise writes its own epoch durably.
//   - The worker RENEWS the lease at every stride (and re-proves
//     ownership immediately before writing the slab result). A renewal
//     that observes a higher epoch means the slab was reassigned: the
//     worker self-terminates with ExitFenced instead of writing another
//     byte. A worker that cannot reach the lease file at all — the
//     partition case — keeps scanning only until its own lease TTL has
//     elapsed since the last successful renewal, then self-terminates:
//     beyond the TTL a new owner may exist, and writing without proof
//     of ownership is exactly what a zombie does.
//   - Every checkpoint record and slab result is stamped with the epoch
//     that wrote it, and the coordinator rejects records from any epoch
//     other than the current lease holder's — so even a worker that
//     violates the protocol (stale cached lease state, delayed writes
//     flushed after the partition heals) cannot smuggle a stale artifact
//     into the merge.
//   - A restarted coordinator reads the lease files before launching
//     anything: a LIVE lease (renewed within its TTL) means the slab's
//     owner may still be running on some host, so the slab is ADOPTED —
//     watched for a result or lease expiry — rather than double-launched.
//
// Lease writes go through durable.WriteFile (atomic publish), so a
// lease file is never torn; last-writer-wins races between an acquiring
// owner and a zombie's late renewal can cost an extra epoch (liveness),
// never merge correctness — correctness rests on the epoch stamps in the
// records themselves.

// ErrFenced reports a worker that lost (or could not prove) slab
// ownership and self-terminated without writing further durable state.
var ErrFenced = errors.New("shard: lease fenced")

// leaseKind is the wire kind of slab lease files.
const leaseKind = "shard-slab-lease"

// maxLeaseBytes bounds a lease file; anything larger is corrupt.
const maxLeaseBytes = 1 << 12

func leasePath(dir string, slab int) string {
	return filepath.Join(dir, fmt.Sprintf("slab%d.lease", slab))
}

// Lease is the durable ownership record of one slab: the fencing epoch,
// who holds it, and how fresh the claim is.
type Lease struct {
	Version      int    `json:"version"`
	Kind         string `json:"kind"`
	ManifestHash string `json:"manifest_hash"`
	Slab         int    `json:"slab"`
	// Epoch is the fencing epoch, strictly increasing per slab across
	// launches; 1 is the first owner.
	Epoch int `json:"epoch"`
	// Owner identifies the holder (host label and pid) for diagnostics;
	// fencing decisions never depend on it.
	Owner string `json:"owner,omitempty"`
	// TTLMS is the renewal deadline: a lease whose Renewed timestamp is
	// older than this is expired and may be superseded.
	TTLMS int64 `json:"ttl_ms"`
	// Acquired and Renewed are the claim and last-renewal times.
	Acquired time.Time `json:"acquired"`
	Renewed  time.Time `json:"renewed"`
}

// ParseLease decodes and validates a lease file. Strict like every other
// spool parser: unknown fields, bad versions, malformed hashes, epochs
// below 1 and non-positive TTLs are all corrupt — a torn or hostile
// lease must never be mistaken for ownership.
func ParseLease(data []byte) (*Lease, error) {
	if len(data) > maxLeaseBytes {
		return nil, fmt.Errorf("shard: lease exceeds %d bytes", maxLeaseBytes)
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var l Lease
	if err := dec.Decode(&l); err != nil {
		return nil, fmt.Errorf("shard: parsing lease: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("shard: trailing data after lease")
	}
	if l.Version != FormatVersion {
		return nil, fmt.Errorf("shard: lease version %d, want %d", l.Version, FormatVersion)
	}
	if l.Kind != leaseKind {
		return nil, fmt.Errorf("shard: lease kind %q, want %q", l.Kind, leaseKind)
	}
	if !validHash(l.ManifestHash) {
		return nil, fmt.Errorf("shard: lease manifest hash %q is not a sha256 hex digest", l.ManifestHash)
	}
	if l.Slab < 0 {
		return nil, fmt.Errorf("shard: negative lease slab %d", l.Slab)
	}
	if l.Epoch < 1 {
		return nil, fmt.Errorf("shard: lease epoch %d below 1", l.Epoch)
	}
	if l.TTLMS <= 0 {
		return nil, fmt.Errorf("shard: non-positive lease ttl %d", l.TTLMS)
	}
	if l.Acquired.IsZero() || l.Renewed.IsZero() {
		return nil, fmt.Errorf("shard: lease without acquisition/renewal times")
	}
	return &l, nil
}

// TTL returns the lease's renewal deadline as a duration.
func (l *Lease) TTL() time.Duration { return time.Duration(l.TTLMS) * time.Millisecond }

// LiveAt reports whether the lease is still within its TTL at now.
func (l *Lease) LiveAt(now time.Time) bool { return now.Sub(l.Renewed) < l.TTL() }

// readLease loads a slab's lease file; os.ErrNotExist passes through so
// callers can distinguish "no owner yet" from corruption.
func readLease(dir string, slab int) (*Lease, error) {
	data, err := os.ReadFile(leasePath(dir, slab))
	if err != nil {
		return nil, err
	}
	return ParseLease(data)
}

// writeLease makes a lease durable.
func writeLease(dir string, l *Lease) error {
	data, err := json.Marshal(l)
	if err != nil {
		return err
	}
	return durable.WriteFile(leasePath(dir, l.Slab), data)
}

// quarantineLease renames an unusable lease file aside as evidence.
func quarantineLease(dir string, slab int, cause error) {
	path := leasePath(dir, slab)
	if err := os.Rename(path, path+".quarantine"); err != nil {
		_ = os.Remove(path)
	}
	fmt.Fprintf(os.Stderr, "shard: quarantined lease for slab %d: %v\n", slab, cause)
}

// acquireLease claims slab ownership for epoch: it refuses when an equal
// or newer epoch already holds the lease (this launch was superseded
// before it started), quarantines leases that are torn or belong to a
// different search (a foreign manifest hash means the spool was pointed
// at by two searches — the file is evidence, the claim proceeds), and
// writes the new lease durably.
func acquireLease(dir string, slab int, hash string, epoch int, owner string, ttl time.Duration) (*Lease, error) {
	prev, err := readLease(dir, slab)
	switch {
	case errors.Is(err, os.ErrNotExist):
		// No owner yet.
	case err != nil:
		quarantineLease(dir, slab, err)
	case prev.ManifestHash != hash:
		quarantineLease(dir, slab, fmt.Errorf("lease belongs to manifest %.12s…, this search is %.12s…", prev.ManifestHash, hash))
	case prev.Epoch >= epoch:
		return nil, fmt.Errorf("%w: slab %d is held at epoch %d, this launch is epoch %d",
			ErrFenced, slab, prev.Epoch, epoch)
	}
	now := time.Now().UTC()
	l := &Lease{
		Version: FormatVersion, Kind: leaseKind, ManifestHash: hash,
		Slab: slab, Epoch: epoch, Owner: owner,
		TTLMS: ttl.Milliseconds(), Acquired: now, Renewed: now,
	}
	if err := writeLease(dir, l); err != nil {
		return nil, fmt.Errorf("shard: acquiring lease for slab %d: %w", slab, err)
	}
	return l, nil
}

// renewLease re-proves ownership and refreshes the renewal timestamp.
// Observing a different epoch (or a foreign search's lease) is fencing:
// the worker no longer owns the slab. An I/O failure is NOT fencing by
// itself — the caller tracks how long renewal has been failing and
// self-terminates once the TTL has elapsed without proof of ownership.
func renewLease(dir string, l *Lease) error {
	cur, err := readLease(dir, l.Slab)
	if err != nil {
		return fmt.Errorf("shard: reading lease for renewal: %w", err)
	}
	if cur.ManifestHash != l.ManifestHash || cur.Epoch != l.Epoch {
		return fmt.Errorf("%w: slab %d reassigned (lease now epoch %d, we are epoch %d)",
			ErrFenced, l.Slab, cur.Epoch, l.Epoch)
	}
	l.Renewed = time.Now().UTC()
	if err := writeLease(dir, l); err != nil {
		return fmt.Errorf("shard: renewing lease: %w", err)
	}
	return nil
}
