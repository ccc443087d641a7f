// Page-level multi-version concurrency control over the Disk.
//
// The paper's cost model assumes queries and ASR maintenance take turns; a
// base serving many users cannot. This layer adds the minimum machinery for
// readers and writers to overlap without locks on the page path, following
// the per-page-version design of the oidadb spec (SNIPPETS.md): a version
// table mapping PageId to the epoch of its last committed image, snapshot
// handles that pin an epoch and read a consistent past state, and an
// optimistic writer transaction that stages private page images and detects
// conflicts at commit as "any staged page whose committed version moved past
// my checkout epoch" (first committer wins; the loser aborts cleanly with
// the conflict list and retries with backoff).
//
// Scope: only segments registered with the manager (the ASR tree segments)
// are versioned. Everything else — and everything on a disk with no manager
// attached — takes the exact legacy path, including its metering, so the
// paper-facing page counts of single-writer runs are bit-identical.
//
// Retention is copy-on-write at commit time: when a new version of a page is
// about to replace an image some live snapshot still needs, the old image is
// retained in memory keyed by its version and garbage-collected when the
// last snapshot inside its validity window is released. The version table
// itself is volatile — epochs restart at zero after a crash, which is sound
// because snapshots and in-flight transactions do not survive the process,
// and committed transactions are re-derivable from the MaintenanceJournal.
//
// Lock order: mvcc mutex before the disk's segment-table mutex, never the
// reverse. Live (non-snapshot) reads of registered segments take the shared
// side of the version-table mutex — enough to exclude a commit rewriting the
// backend image mid-read while keeping readers concurrent with each other;
// logical writer isolation for them is still the ASR store-claim protocol.
// Snapshot reads and all registered-segment writes serialize here too.
#ifndef ASR_STORAGE_MVCC_H_
#define ASR_STORAGE_MVCC_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/macros.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "obs/latency.h"
#include "obs/metrics.h"
#include "storage/page.h"

namespace asr::storage {

class Disk;
class MvccManager;
class WriteAheadLog;

// Monotonic commit counter. Epoch 0 is "before every commit": a page absent
// from the version table has version 0 and its backend image is valid for
// every snapshot.
using MvccEpoch = uint64_t;

// Named lock handles for the two sides of the version-table mutex. Aliases
// rather than raw std::unique_lock/shared_lock at the call sites so the
// lock-discipline analyzer (and a human reader) can tell a commit-side
// exclusive section from a snapshot-side shared one.
using TxnCommitLock = std::unique_lock<std::shared_mutex>;
using SnapshotReadLock = std::shared_lock<std::shared_mutex>;

// A reader's checkout of one consistent page-version epoch. While the handle
// is live, every registered page's image as of epoch() stays readable via
// Disk::ReadPageSnapshot — commits that overwrite such a page first retain
// the old image. Movable, not copyable; releasing (or destroying) the handle
// lets the retained images it pinned be collected.
class PageSnapshot {
 public:
  PageSnapshot() = default;
  PageSnapshot(PageSnapshot&& other) noexcept { *this = std::move(other); }
  PageSnapshot& operator=(PageSnapshot&& other) noexcept;
  ~PageSnapshot() { Release(); }
  ASR_DISALLOW_COPY_AND_ASSIGN(PageSnapshot);

  bool valid() const { return mvcc_ != nullptr; }
  MvccEpoch epoch() const { return epoch_; }
  void Release();

 private:
  friend class MvccManager;
  PageSnapshot(MvccManager* mvcc, MvccEpoch epoch)
      : mvcc_(mvcc), epoch_(epoch) {}

  MvccManager* mvcc_ = nullptr;
  MvccEpoch epoch_ = 0;
};

// An optimistic writer transaction over a set of registered segments. While
// active, the constructing thread's Disk::WritePage calls to covered
// segments stage private images here instead of reaching the backend, and
// its ReadPage calls see those staged images first (read-your-writes). The
// binding is thread-local: exactly one active transaction per thread, and
// the transaction must be committed or aborted on the thread that opened it.
//
// Commit validates every staged page against the checkout epoch, writes the
// survivors through to the backend under the commit lock (one counted page
// write per distinct staged page — write combining is part of the design,
// not a metering leak), and advances the committed epoch. On conflict
// nothing is applied and the staged set is discarded; the caller backs off
// and retries against the new epoch.
class PageTransaction {
 public:
  PageTransaction(MvccManager* mvcc, std::vector<uint32_t> segments);
  ~PageTransaction();
  ASR_DISALLOW_COPY_AND_ASSIGN(PageTransaction);

  // Returns OK and makes every staged page durable-visible at a single new
  // epoch, or Aborted with the conflicting pages in `*conflicts` (when non
  // null) and no effect. IOError from the backend also leaves the
  // transaction inactive; the journal intent stays unresolved for Recover().
  Status Commit(std::vector<PageId>* conflicts = nullptr);
  // Discards the staged set. Idempotent; also implied by the destructor.
  void Abort();

  bool active() const { return active_; }
  MvccEpoch checkout_epoch() const { return checkout_; }
  size_t staged_page_count() const { return staged_.size(); }
  bool covers(uint32_t segment) const;

 private:
  friend class MvccManager;

  MvccManager* mvcc_;
  std::vector<uint32_t> segments_;
  MvccEpoch checkout_ = 0;
  // Private page images, visible only to the owning thread until commit.
  std::unordered_map<PageId, Page> staged_;
  bool active_ = false;
};

// The version table and snapshot/transaction registry for one Disk. Attach
// with Disk::AttachMvcc; the manager is borrowed by the disk and must
// outlive it. All public methods are thread-safe.
class MvccManager {
 public:
  MvccManager() = default;
  ASR_DISALLOW_COPY_AND_ASSIGN(MvccManager);

  // Marks `segment` as version-managed: its direct writes are auto-versioned
  // (each write commits a single-page epoch), its pages become snapshot
  // readable, and transactions may cover it. Idempotent.
  void RegisterSegment(uint32_t segment);
  bool IsRegistered(uint32_t segment) const;

  // Optional: commits append an 'X' marker record (epoch, page count) to
  // this WAL, unsynced — it rides on the next journal commit sync. Foreign
  // to the journal's own replay (size-checked), it exists for audit tools.
  void AttachWal(WriteAheadLog* wal);

  // Checks out the current committed epoch for reading.
  PageSnapshot BeginSnapshot();
  MvccEpoch committed_epoch() const;
  size_t live_snapshots() const;
  // Retained old images across all pages. O(pages with retained images).
  size_t retained_pages() const;
  // Pages with a version-table entry: those committed at least once since
  // the manager was attached. Every other page is at version 0.
  size_t versioned_pages() const;

  // The version of the image of `id` that a snapshot at `epoch` reads:
  // the backend's version when it is <= epoch, otherwise the largest
  // retained version <= epoch. `epoch` must be held by a live snapshot
  // (retention then guarantees that image exists). A page image is fully
  // named by (id, version), so a copy cached under one snapshot is valid
  // for every later snapshot that resolves the page to the same version.
  MvccEpoch ResolveVersion(PageId id, MvccEpoch epoch) const;

#if ASR_PARANOID_ENABLED
  // The image a snapshot at `epoch` reads, resolved exactly like a snapshot
  // read but unmetered and unverified: the cold-path oracle against which
  // cached snapshot frames are cross-checked without moving a page count.
  Status PeekSnapshotPage(PageId id, MvccEpoch epoch, Page* out) const;
#endif

  // The transaction bound to the calling thread, if any.
  static PageTransaction* CurrentTransaction();

  // Counters for the obs surface. commits/conflicts also mirror into
  // LiveTelemetry as txn.commits / txn.conflicts.
  const obs::SharedCounter& commits() const { return commits_; }
  const obs::SharedCounter& conflicts() const { return conflicts_; }

  void ExportMetrics(obs::MetricsRegistry* registry,
                     const std::string& prefix) const;

 private:
  friend class Disk;
  friend class PageSnapshot;
  friend class PageTransaction;

  // --- Disk hooks (called with no mvcc lock held) --------------------------
  // Serves `id` from the calling thread's active transaction. Returns false
  // (out untouched) when there is no binding or no staged image.
  bool TryReadStaged(PageId id, Page* out) const;
  // Routes a write: stages it in the calling thread's transaction, or
  // applies it as an auto-versioned direct write when the segment is
  // registered. Returns false when the write is not mvcc-managed, in which
  // case the disk takes its legacy path.
  bool RouteWrite(Disk* disk, PageId id, const Page& page, Status* result);
  // Routes a live read of a registered segment under the shared side of the
  // version-table mutex, so it cannot observe a commit half-way through
  // rewriting the backend image. Returns false (out untouched) when the
  // segment is not registered, in which case the disk takes its legacy path.
  bool RouteRead(Disk* disk, PageId id, Page* out, Status* result);
  // Exclusive lock for registered-segment page allocation (checksum-vector
  // growth must not race snapshot readers). Empty when not registered.
  TxnCommitLock LockForAllocate(uint32_t segment);
  // Snapshot read: the image of `id` as of snap.epoch(). Counted as a page
  // read on the owning segment, like any other query access.
  Status ReadSnapshotPage(Disk* disk, PageId id, const PageSnapshot& snap,
                          Page* out);

  // --- internals -----------------------------------------------------------
  void ReleaseSnapshot(MvccEpoch epoch);
  Status CommitTransaction(PageTransaction* txn, std::vector<PageId>* conflicts)
      ASR_EXCLUDES(mu_);
  void AbortTransaction(PageTransaction* txn);
  // Epoch of the backend image of `id`; 0 when it has no entry.
  MvccEpoch CurrentVersion(PageId id) const ASR_REQUIRES(mu_);
  // The retained image a snapshot at `epoch` reads when the backend image
  // is newer than `epoch`: the largest retained version <= epoch. Aborts
  // when it is missing, which retention rules out for a live snapshot.
  std::map<MvccEpoch, Page>::const_iterator RetainedAt(PageId id,
                                                       MvccEpoch epoch) const
      ASR_REQUIRES(mu_);
  // Writes `page` as the image of `id` at `version`: retains the image it
  // replaces when some live snapshot still needs it, and records the new
  // version only once the backend write succeeds. On failure the version
  // table is left exactly as it was (no entry is created, and a retention
  // made for the failed write is undone).
  Status WriteVersion(Disk* disk, PageId id, const Page& page,
                      MvccEpoch version) ASR_REQUIRES(mu_);
  // Retains the backend image of `id` (currently at version `current`) when
  // some live snapshot still needs it. Returns true when a copy was taken.
  bool RetainIfNeeded(Disk* disk, PageId id, MvccEpoch current)
      ASR_REQUIRES(mu_);
  void UpdateSnapshotAge() ASR_REQUIRES(mu_);
  // True when some live snapshot epoch lies in [lo, hi).
  bool AnySnapshotIn(MvccEpoch lo, MvccEpoch hi) const ASR_REQUIRES(mu_);
  // Drops every retained image whose validity window holds no live
  // snapshot. Visits only retained_, never the whole version table.
  void CollectRetained() ASR_REQUIRES(mu_);
#if ASR_PARANOID_ENABLED
  // Asserts that every retained image is needed by a live snapshot and
  // that no retained_ entry is empty. O(retained images).
  void CheckRetained() const ASR_REQUIRES(mu_);
#endif

  mutable std::shared_mutex mu_;
  std::unordered_set<uint32_t> registered_ ASR_GUARDED_BY(mu_);
  // The version table, split in two so that snapshot release visits only
  // the pages that can free something:
  //   current_[id]  epoch of the image in the backend, for every page
  //                 committed since attach (absent = 0, the pre-MVCC image);
  //   retained_[id] old images still needed by live snapshots; retained_
  //                 [id][v] serves snapshot epochs in [v, the next retained
  //                 version or current_[id]).
  // Invariant: retained_ holds an entry only for a page with at least one
  // retained image (an entry is erased when its map empties), and every
  // such page also has a current_ entry above all its retained versions.
  std::unordered_map<PageId, MvccEpoch> current_ ASR_GUARDED_BY(mu_);
  std::unordered_map<PageId, std::map<MvccEpoch, Page>> retained_
      ASR_GUARDED_BY(mu_);
  // Live snapshot epochs (multiset: several readers may share an epoch).
  std::multiset<MvccEpoch> snapshots_ ASR_GUARDED_BY(mu_);
  MvccEpoch epoch_ ASR_GUARDED_BY(mu_) = 0;
  WriteAheadLog* wal_ ASR_GUARDED_BY(mu_) = nullptr;
  Disk* disk_ = nullptr;  // set by Disk::AttachMvcc before first use

  obs::SharedCounter commits_;
  obs::SharedCounter conflicts_;
  obs::SharedCounter direct_versioned_writes_;
  obs::SharedCounter snapshot_reads_;
  obs::SharedCounter retained_copies_;
  obs::SharedHistogram commit_pages_;
};

}  // namespace asr::storage

#endif  // ASR_STORAGE_MVCC_H_
