// Buffer manager: pin/unpin interface with LRU replacement over the
// simulated disk.
//
// The analytical model charges one secondary-storage access per page touched,
// i.e. it assumes no buffering across the pages of one operation. Metered
// experiments therefore run with capacity 0 — every unpin immediately evicts
// (writing back if dirty), so each logical page visit is one counted disk
// access — while applications that just want the library fast can configure a
// real cache capacity.
#ifndef ASR_STORAGE_BUFFER_MANAGER_H_
#define ASR_STORAGE_BUFFER_MANAGER_H_

#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/macros.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "obs/latency.h"
#include "obs/metrics.h"
#include "storage/disk.h"
#include "storage/mvcc.h"
#include "storage/page.h"

namespace asr::storage {

class BufferManager;

// RAII pin on one page. While alive, the frame is resident and stable;
// destruction unpins (and, if marked dirty, schedules a write-back).
class PageGuard {
 public:
  PageGuard() = default;
  PageGuard(PageGuard&& other) noexcept { *this = std::move(other); }
  PageGuard& operator=(PageGuard&& other) noexcept;
  ~PageGuard() { Release(); }
  ASR_DISALLOW_COPY_AND_ASSIGN(PageGuard);

  bool valid() const { return manager_ != nullptr; }
  PageId id() const { return id_; }

  Page& page();
  const Page& page() const;

  // Marks the frame dirty; it is written back to disk when evicted.
  void MarkDirty();

  // Unpins early (also done by the destructor).
  void Release();

 private:
  friend class BufferManager;
  PageGuard(BufferManager* manager, PageId id, Page* frame)
      : manager_(manager), id_(id), frame_(frame) {}

  BufferManager* manager_ = nullptr;
  PageId id_;
  Page* frame_ = nullptr;
  bool dirty_pending_ = false;
};

class BufferManager {
 public:
  // `capacity` is the number of unpinned frames retained; 0 means unbuffered
  // (metering mode). Pinned frames are always resident regardless. The
  // write-back sync policy comes from the disk's options (DurabilityMode):
  // kOff issues no syncs (bit-identical to a durability-unaware pool), kPage
  // syncs the segment after every dirty write-back, kGroup batches
  // flush_batch write-backs and syncs each touched segment once per run.
  BufferManager(Disk* disk, size_t capacity)
      : disk_(disk),
        capacity_(capacity),
        durability_(disk->options().durability),
        flush_batch_(disk->options().flush_batch < 1
                         ? 1
                         : disk->options().flush_batch),
        time_io_(disk->options().backend == BackendKind::kFile) {}
  // Snapshot-mode pool: every miss reads the page image as of `snapshot`'s
  // epoch (Disk::ReadPageSnapshot) instead of the live state, and the pool
  // is read-only — dirtying a frame or allocating through it is a
  // programming error. The snapshot handle is borrowed and must outlive
  // the pool's use under it (see Repoint).
  //
  // Each frame is tagged with the MVCC version of its image. A page image
  // is fully named by (PageId, version), so a frame stays valid across
  // snapshots for as long as the version table resolves its page to the
  // same version: a hit on a frame cached under an earlier epoch compares
  // its tag with MvccManager::ResolveVersion at the current epoch and, on
  // a mismatch, drops the frame and reads the page as a miss. A pinned
  // frame is never stale — the snapshot it was pinned under has a fixed
  // epoch.
  BufferManager(Disk* disk, size_t capacity, const PageSnapshot* snapshot)
      : BufferManager(disk, capacity) {
    snapshot_mode_ = true;
    snapshot_ = snapshot;
  }
  // Destruction is best-effort teardown; a caller that needs durability (or
  // wants to observe write-back faults) calls FlushAll() itself first.
  // justified: the destructor has no way to surface a Status, and the sticky
  // write_error_ already recorded any failure for commit points to consult.
  ~BufferManager() { (void)FlushAll(); }
  ASR_DISALLOW_COPY_AND_ASSIGN(BufferManager);

  // Pins `id`, reading it from disk on a miss. Aborts if the read fails
  // (checksum mismatch or injected fault) — the hot-path contract that pages
  // reached through healthy structures are readable. Triage paths that
  // expect damage use TryPin.
  PageGuard Pin(PageId id);

  // Pin variant that surfaces read failures as a Status instead of
  // aborting.
  Result<PageGuard> TryPin(PageId id);

  // Allocates a fresh zeroed page in `segment` and pins it dirty, without a
  // disk read (the page has no prior contents).
  PageGuard AllocatePinned(uint32_t segment);

  // Writes back all dirty frames and drops every unpinned frame. Returns
  // the first write-back failure — including one recorded earlier by an
  // eviction (the sticky error below) — while still flushing what it can.
  Status FlushAll();

  // Re-points a snapshot-mode pool at `snapshot`, a later checkout on the
  // same MvccManager, keeping its unpinned frames warm: each is revalidated
  // against the version table at its next pin. nullptr parks the pool
  // between snapshots (no pin until the next Repoint). Requires a
  // snapshot-mode pool with no pinned frame.
  void Repoint(const PageSnapshot* snapshot);

  // Discards every unpinned frame WITHOUT write-back and clears the sticky
  // write error: the restart point after a simulated crash, where cached
  // (possibly never-persisted) frames are RAM contents that did not survive.
  void DropAll();

  // First write-back failure since the last DropAll(), from any eviction or
  // flush. Evictions cannot propagate a Status to the unpin that triggered
  // them, so the error sticks here; maintenance commit points consult it
  // before declaring an operation durable. (By value: a reference into
  // guarded state would dangle once the lock is released.)
  Status write_error() const {
    std::lock_guard<std::mutex> lock(mu_);
    return write_error_;
  }
  bool has_write_error() const {
    std::lock_guard<std::mutex> lock(mu_);
    return !write_error_.ok();
  }

  Disk* disk() { return disk_; }
  size_t capacity() const { return capacity_; }
  // True for a read-only pool built over a PageSnapshot.
  bool snapshot_mode() const { return snapshot_mode_; }
  uint64_t hits() const {
    std::lock_guard<std::mutex> lock(mu_);
    return hits_;
  }
  uint64_t misses() const {
    std::lock_guard<std::mutex> lock(mu_);
    return misses_;
  }
  uint64_t evictions() const {
    std::lock_guard<std::mutex> lock(mu_);
    return evictions_.value();
  }
  uint64_t writebacks() const {
    std::lock_guard<std::mutex> lock(mu_);
    return writebacks_.value();
  }
  DurabilityMode durability() const { return durability_; }
  uint64_t group_flushes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return group_flushes_;
  }

  // Wall-clock latency of dirty-eviction write-backs and group-flush sync
  // runs, microseconds. Timed only on the file backend (time_io_), so the
  // metered memory-backend hot path never reads the clock.
  obs::HistogramSnapshot writeback_latency() const {
    return evict_writeback_us_.snapshot();
  }
  obs::HistogramSnapshot flush_run_latency() const {
    return flush_run_us_.snapshot();
  }

  // Pushes this pool's counters into `registry` under `prefix`: totals
  // (hits/misses/evictions/writebacks) plus, when metrics are compiled in,
  // per-segment hit/miss/eviction attribution keyed by segment name. Cold
  // path only — call at quiescent points (the single-writer discipline).
  void ExportMetrics(obs::MetricsRegistry* registry,
                     const std::string& prefix) const;

 private:
  friend class PageGuard;

  struct Frame {
    Page page;
    int pin_count = 0;
    bool dirty = false;
    // Position in lru_ when unpinned; lru_.end() while pinned.
    std::list<PageId>::iterator lru_pos;
    bool in_lru = false;
    // Snapshot-mode pools only: the MVCC version of the image.
    MvccEpoch version = 0;
  };

  void Unpin(PageId id, bool dirty);
  void EnforceCapacity() ASR_REQUIRES(mu_);
  void EvictFrame(PageId id) ASR_REQUIRES(mu_);
  // Snapshot-mode hit check: true when `frame` holds the image the pinned
  // epoch reads, i.e. its version is the one that epoch resolves to. Under
  // ASR_PARANOID every hit is also compared byte for byte with an
  // unmetered cold read, unless the disk is crashed.
  bool SnapshotFrameCurrent(PageId id, Frame* frame) ASR_REQUIRES(mu_);

  // Durability hook after every dirty write-back: kPage syncs the segment
  // immediately; kGroup marks it touched and syncs the whole run when
  // flush_batch write-backs accumulated. Sync failures stick in
  // write_error_ like write-back failures (commit points consult it).
  void NoteWriteBack(uint32_t segment) ASR_REQUIRES(mu_);
  // Syncs every touched segment and closes the current run.
  void FlushRun() ASR_REQUIRES(mu_);

#if ASR_METRICS_ENABLED
  // Per-segment attribution of buffer behavior (hit/miss/eviction), indexed
  // by segment id.
  struct SegmentCounters {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
  };
  SegmentCounters& SegCounters(uint32_t segment) ASR_REQUIRES(mu_) {
    if (segment >= seg_counters_.size()) seg_counters_.resize(segment + 1);
    return seg_counters_[segment];
  }
  std::vector<SegmentCounters> seg_counters_ ASR_GUARDED_BY(mu_);
#endif

  Disk* disk_;
  size_t capacity_;
  // Write-back sync policy (snapshot of the disk's options at construction).
  DurabilityMode durability_ = DurabilityMode::kOff;
  uint32_t flush_batch_ = 64;

  // One lock for the pool: frame table, LRU, flush-run state, counters.
  // Uncontended in today's single-accessor workloads; the precondition for
  // the ROADMAP's multi-writer ASR maintenance sharing one pool. Lock order:
  // mu_ is held across Disk calls (pool -> disk, never the reverse).
  mutable std::mutex mu_;
  // Snapshot-mode pools are read-only and read through snapshot_, the
  // epoch they serve (nullptr while parked, see Repoint). Set once, at
  // construction.
  bool snapshot_mode_ = false;
  const PageSnapshot* snapshot_ ASR_GUARDED_BY(mu_) = nullptr;
  uint32_t unsynced_writebacks_ ASR_GUARDED_BY(mu_) = 0;
  // Segments touched since the last sync run.
  std::vector<uint32_t> dirty_segments_ ASR_GUARDED_BY(mu_);
  // Plain (not HotCounter): benches assert it.
  uint64_t group_flushes_ ASR_GUARDED_BY(mu_) = 0;
  std::unordered_map<PageId, Frame> frames_ ASR_GUARDED_BY(mu_);
  // front = oldest unpinned frame
  std::list<PageId> lru_ ASR_GUARDED_BY(mu_);
  uint64_t hits_ ASR_GUARDED_BY(mu_) = 0;
  uint64_t misses_ ASR_GUARDED_BY(mu_) = 0;
  Status write_error_ ASR_GUARDED_BY(mu_);
  obs::HotCounter evictions_ ASR_GUARDED_BY(mu_);
  obs::HotCounter writebacks_ ASR_GUARDED_BY(mu_);
  // Write-backs covered per sync run.
  obs::HotHistogram flush_run_sizes_ ASR_GUARDED_BY(mu_);
  // Whether seam operations are wall-clock timed (file backend only).
  bool time_io_ = false;
  // Shared-safe atomics; sampled concurrently by the telemetry thread.
  obs::SharedHistogram evict_writeback_us_;
  obs::SharedHistogram flush_run_us_;
};

}  // namespace asr::storage

#endif  // ASR_STORAGE_BUFFER_MANAGER_H_
