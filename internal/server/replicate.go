// Replication glue: how a gksd process becomes a leader or a follower.
//
// The leader side is a snapshot source — a point-in-time serialized
// index plus the LSN it covers, captured under the serving mutex so the
// snapshot and the log position can never disagree, and gated on WAL
// durability so a follower can never install state its leader might
// forget after a crash.
//
// The follower side is an Applier that pushes leader records through
// the SAME two-phase commit path local ingestion uses: build the
// successor copy-on-write, append to the local WAL (asserting the local
// log assigns the leader's LSN — the follower's log is a byte-for-byte
// LSN mirror), swap under the reload mutex, and make batches durable
// with the same group commit. Snapshot installs are guarded by an
// install marker in the WAL directory: boot replay is only correct when
// the log is a contiguous suffix of the snapshot, and a crash between
// "snapshot renamed into place" and "log reset" would violate that.
// The marker makes that window detectable — a booting follower that
// sees it discards local state and re-joins from the leader.
package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	gks "repro"
	"repro/internal/obs"
	"repro/internal/wal"
)

// installMarkerName is the file whose presence in the WAL directory
// means a snapshot install may have been interrupted: the index file
// and the log cannot be trusted to agree, so boot must re-join.
const installMarkerName = "install.pending"

// InstallPending reports whether an interrupted snapshot install left
// the WAL directory's marker behind.
func InstallPending(walDir string) bool {
	_, err := os.Stat(filepath.Join(walDir, installMarkerName))
	return err == nil
}

func writeInstallMarker(walDir string) error {
	f, err := os.Create(filepath.Join(walDir, installMarkerName))
	if err != nil {
		return fmt.Errorf("install marker: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("install marker: %w", err)
	}
	return f.Close()
}

func removeInstallMarker(walDir string) error {
	if err := os.Remove(filepath.Join(walDir, installMarkerName)); err != nil {
		return fmt.Errorf("install marker: %w", err)
	}
	return nil
}

// SnapshotSource serves point-in-time snapshots for joining followers;
// it implements replica.SnapshotSource.
type SnapshotSource struct {
	rl  *Reloader
	wal *wal.Log
}

// ReplicaSource exposes the reloader's serving state as a replication
// snapshot source over l.
func (rl *Reloader) ReplicaSource(l *wal.Log) *SnapshotSource {
	return &SnapshotSource{rl: rl, wal: l}
}

// Snapshot captures (serving system, last LSN) atomically under the
// serving mutex — mutations apply and append under that same mutex, so
// the pair is exact — then waits for the LSN's group-commit fsync
// before handing the snapshot out: a follower may only ever install
// state the leader is guaranteed to remember.
func (s *SnapshotSource) Snapshot() (uint64, io.ReadCloser, error) {
	s.rl.mu.Lock()
	sys := s.rl.h.Searcher()
	lsn := s.wal.LastLSN()
	s.rl.mu.Unlock()
	if err := s.wal.WaitDurable(lsn); err != nil {
		return 0, nil, fmt.Errorf("replica snapshot: durability wait at lsn %d: %w", lsn, err)
	}
	single, ok := sys.(*gks.System)
	if !ok {
		return 0, nil, errors.New("replica snapshot: replication serves single-index deployments only")
	}
	// The captured system is immutable (mutations are copy-on-write), so
	// serializing outside the lock is safe.
	var buf bytes.Buffer
	if err := single.SaveSnapshot(&buf); err != nil {
		return 0, nil, fmt.Errorf("replica snapshot: %w", err)
	}
	return lsn, io.NopCloser(&buf), nil
}

// ReplicaApplier drives follower-side state transitions; it implements
// replica.Applier.
type ReplicaApplier struct {
	rl        *Reloader
	wal       *wal.Log
	indexPath string
	reg       *obs.Registry
	logger    *log.Logger
	onDurable func()

	// staged is the highest leader LSN applied and enqueued (visible to
	// searches, not yet locally durable); applied is the highest LSN
	// whose local fsync landed — the position replication resumes from.
	staged  atomic.Uint64
	applied atomic.Uint64
}

// NewReplicaApplier wires the follower apply path over the reloader's
// serving state. l must already hold the boot-replayed mirror of the
// leader's log; indexPath is where installed snapshots land (the same
// path the checkpointer persists to). reg, logger and onDurable may be
// nil; onDurable runs after every durable batch (the checkpoint
// trigger, same as local ingestion's).
func NewReplicaApplier(rl *Reloader, l *wal.Log, indexPath string, reg *obs.Registry, logger *log.Logger, onDurable func()) *ReplicaApplier {
	a := &ReplicaApplier{rl: rl, wal: l, indexPath: indexPath, reg: reg, logger: logger, onDurable: onDurable}
	lsn := l.LastLSN()
	a.staged.Store(lsn)
	a.applied.Store(lsn)
	return a
}

// AppliedLSN is the locally durable replication position.
func (a *ReplicaApplier) AppliedLSN() uint64 { return a.applied.Load() }

// Apply stages one leader record: copy-on-write successor, local WAL
// enqueue (asserting LSN equality with the leader), swap. Mirrors
// Ingester.commit's ordering exactly; the fsync wait is deferred to
// Sync so batches share flushes.
func (a *ReplicaApplier) Apply(rec wal.Record) error {
	a.rl.mu.Lock()
	defer a.rl.mu.Unlock()
	cur := a.staged.Load()
	if rec.LSN <= cur {
		return nil // duplicate after a reconnect race
	}
	if rec.LSN != cur+1 {
		return fmt.Errorf("replica apply: lsn gap: got %d after %d", rec.LSN, cur)
	}
	sys := a.rl.h.Searcher()
	var next gks.Searcher
	var err error
	switch rec.Op {
	case wal.OpUpsert:
		var doc *gks.Document
		doc, err = gks.ParseDocumentString(rec.Doc, rec.Name)
		if err == nil {
			next, _, err = sys.Upsert(doc)
		}
	case wal.OpDelete:
		next, err = sys.Remove(rec.Name)
	default:
		err = fmt.Errorf("unknown op %d", rec.Op)
	}
	if err != nil {
		// The leader only logs mutations it successfully applied, so a
		// failure here means the mirror has diverged — stop, loudly.
		return fmt.Errorf("replica apply lsn %d (%s): %w", rec.LSN, rec.Name, err)
	}
	lsn, err := a.wal.Enqueue(rec.Op, rec.Name, rec.Doc)
	if err != nil {
		return fmt.Errorf("replica apply lsn %d: local wal: %w", rec.LSN, err)
	}
	if lsn != rec.LSN {
		return fmt.Errorf("replica apply: local wal assigned lsn %d to leader record %d", lsn, rec.LSN)
	}
	gen, _ := a.rl.h.SwapDoc(next, rec.Name)
	st := next.Stats()
	a.reg.SetDocs(st.Documents)
	a.reg.SetSnapshotGeneration(gen)
	a.staged.Store(rec.LSN)
	return nil
}

// Sync makes every staged record locally durable and advances the
// resume position. Called at batch boundaries by the follower loop.
func (a *ReplicaApplier) Sync() error {
	lsn := a.staged.Load()
	if lsn <= a.applied.Load() {
		return nil
	}
	if err := a.wal.WaitDurable(lsn); err != nil {
		return fmt.Errorf("replica sync at lsn %d: %w", lsn, err)
	}
	a.applied.Store(lsn)
	if a.onDurable != nil {
		a.onDurable()
	}
	return nil
}

// InstallSnapshot atomically replaces all local state with a leader
// snapshot covering LSNs through lsn: the stream fell behind the
// leader's truncation horizon and tailing is impossible. The download
// and validation run outside the serving mutex; the switch — marker,
// rename, log reset, swap — holds it, which also serializes against a
// checkpoint persisting the old state to the same path.
func (a *ReplicaApplier) InstallSnapshot(lsn uint64, r io.Reader) error {
	tmp, err := stageSnapshot(a.indexPath, r)
	if err != nil {
		return err
	}
	defer os.Remove(tmp)
	// Validate the bytes BEFORE committing to them: a truncated or
	// corrupt download must leave the serving state untouched.
	sys, err := gks.LoadIndexFile(tmp)
	if err == nil {
		err = sys.ValidateIndex()
	}
	if err != nil {
		return fmt.Errorf("replica install: rejecting snapshot at lsn %d: %w", lsn, err)
	}

	a.rl.mu.Lock()
	defer a.rl.mu.Unlock()
	if err := writeInstallMarker(a.wal.Dir()); err != nil {
		return err
	}
	if err := os.Rename(tmp, a.indexPath); err != nil {
		return fmt.Errorf("replica install: %w", err)
	}
	if err := a.wal.Reset(lsn + 1); err != nil {
		// The marker stays: boot will re-join rather than trust a
		// snapshot/log pair that no longer lines up.
		return fmt.Errorf("replica install: %w", err)
	}
	gen := a.rl.h.Swap(sys)
	st := sys.Stats()
	a.reg.SetDocs(st.Documents)
	a.reg.SetSnapshotGeneration(gen)
	a.staged.Store(lsn)
	a.applied.Store(lsn)
	if err := removeInstallMarker(a.wal.Dir()); err != nil {
		return err
	}
	if a.logger != nil {
		a.logger.Printf("replica: installed leader snapshot at lsn %d, generation %d serving %d document(s)",
			lsn, gen, st.Documents)
	}
	return nil
}

// stageSnapshot spools r to a durable temp file next to dst.
func stageSnapshot(dst string, r io.Reader) (string, error) {
	dir := filepath.Dir(dst)
	tmp, err := os.CreateTemp(dir, filepath.Base(dst)+".join*")
	if err != nil {
		return "", fmt.Errorf("replica install: %w", err)
	}
	if _, err := io.Copy(tmp, r); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return "", fmt.Errorf("replica install: download: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return "", fmt.Errorf("replica install: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return "", fmt.Errorf("replica install: %w", err)
	}
	return tmp.Name(), nil
}

// JoinCluster bootstraps a follower that has no usable local state — a
// first boot (no index file) or a boot that found the install marker.
// It fetches the leader's current snapshot into indexPath and resets
// the local log to resume from the snapshot's LSN, using the same
// marker discipline as a live install. On return the normal boot path
// (load index, replay the — now empty — log) proceeds unchanged.
func JoinCluster(leaderURL string, client *http.Client, indexPath string, l *wal.Log, logger *log.Logger) error {
	if client == nil {
		client = &http.Client{Timeout: 5 * time.Minute}
	}
	resp, err := client.Get(leaderURL + "/replica/snapshot")
	if err != nil {
		return fmt.Errorf("join: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("join: leader returned %s", resp.Status)
	}
	lsn, err := strconv.ParseUint(resp.Header.Get("X-Gks-Lsn"), 10, 64)
	if err != nil {
		return fmt.Errorf("join: bad X-Gks-Lsn header: %v", err)
	}
	tmp, err := stageSnapshot(indexPath, resp.Body)
	if err != nil {
		return err
	}
	defer os.Remove(tmp)
	if sys, err := gks.LoadIndexFile(tmp); err != nil {
		return fmt.Errorf("join: rejecting snapshot: %w", err)
	} else if err := sys.ValidateIndex(); err != nil {
		return fmt.Errorf("join: rejecting snapshot: %w", err)
	}
	if err := writeInstallMarker(l.Dir()); err != nil {
		return err
	}
	if err := os.Rename(tmp, indexPath); err != nil {
		return fmt.Errorf("join: %w", err)
	}
	if err := l.Reset(lsn + 1); err != nil {
		return fmt.Errorf("join: %w", err)
	}
	if err := removeInstallMarker(l.Dir()); err != nil {
		return err
	}
	if logger != nil {
		logger.Printf("replica: joined cluster at lsn %d from %s", lsn, leaderURL)
	}
	return nil
}
