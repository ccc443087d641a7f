#include "storage/buffer_manager.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <utility>

namespace asr::storage {

PageGuard& PageGuard::operator=(PageGuard&& other) noexcept {
  if (this != &other) {
    Release();
    manager_ = other.manager_;
    id_ = other.id_;
    frame_ = other.frame_;
    dirty_pending_ = other.dirty_pending_;
    other.manager_ = nullptr;
    other.frame_ = nullptr;
  }
  return *this;
}

Page& PageGuard::page() {
  ASR_DCHECK(valid());
  return *frame_;
}

const Page& PageGuard::page() const {
  ASR_DCHECK(valid());
  return *frame_;
}

void PageGuard::MarkDirty() {
  ASR_DCHECK(valid());
  dirty_pending_ = true;
}

void PageGuard::Release() {
  if (manager_ != nullptr) {
    manager_->Unpin(id_, dirty_pending_);
    manager_ = nullptr;
    frame_ = nullptr;
    dirty_pending_ = false;
  }
}

PageGuard BufferManager::Pin(PageId id) {
  Result<PageGuard> guard = TryPin(id);
  if (!guard.ok()) {
    std::fprintf(stderr, "BufferManager::Pin(%s): %s\n", id.ToString().c_str(),
                 guard.status().ToString().c_str());
    ASR_CHECK(guard.ok());
  }
  return std::move(*std::move(guard));
}

Result<PageGuard> BufferManager::TryPin(PageId id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = frames_.find(id);
  ASR_CHECK(!snapshot_mode_ || snapshot_ != nullptr);  // parked: unpinnable
  if (it != frames_.end() && snapshot_mode_ &&
      !SnapshotFrameCurrent(id, &it->second)) {
    // A commit since this frame was cached replaced its image before the
    // pinned epoch: drop it and read the right image as a miss.
    lru_.erase(it->second.lru_pos);
    frames_.erase(it);
    it = frames_.end();
  }
  if (it == frames_.end()) {
    ++misses_;
#if ASR_METRICS_ENABLED
    ++SegCounters(id.segment).misses;
    obs::LiveTelemetry::Instance().buffer_misses.Inc();
#endif
    Frame frame;
    if (snapshot_mode_) {
      frame.version = disk_->mvcc()->ResolveVersion(id, snapshot_->epoch());
      ASR_RETURN_IF_ERROR(disk_->ReadPageSnapshot(id, *snapshot_, &frame.page));
    } else {
      ASR_RETURN_IF_ERROR(disk_->ReadPage(id, &frame.page));
    }
    it = frames_.emplace(id, std::move(frame)).first;
  } else {
    ++hits_;
#if ASR_METRICS_ENABLED
    ++SegCounters(id.segment).hits;
    obs::LiveTelemetry::Instance().buffer_hits.Inc();
#endif
    if (it->second.in_lru) {
      lru_.erase(it->second.lru_pos);
      it->second.in_lru = false;
    }
  }
  ++it->second.pin_count;
  return PageGuard(this, id, &it->second.page);
}

bool BufferManager::SnapshotFrameCurrent(PageId id, Frame* frame) {
  const MvccEpoch epoch = snapshot_->epoch();
  if (disk_->mvcc()->ResolveVersion(id, epoch) != frame->version) {
    // Cached under an earlier snapshot (a pinned frame's epoch is this
    // one), so unpinned: safe to drop.
    ASR_CHECK(frame->pin_count == 0);
    return false;
  }
#if ASR_PARANOID_ENABLED
  // Skipped while the disk is crashed: a torn write has then landed on the
  // backend without a version, so a cold read returns the failed write's
  // image while the frame keeps the last committed one.
  const FaultInjector* injector = disk_->fault_injector();
  if (injector == nullptr || !injector->crashed()) {
    Page cold;
    ASR_CHECK(disk_->mvcc()->PeekSnapshotPage(id, epoch, &cold).ok());
    ASR_CHECK(std::memcmp(cold.data(), frame->page.data(), kPageSize) == 0);
  }
#endif
  return true;
}

PageGuard BufferManager::AllocatePinned(uint32_t segment) {
  ASR_CHECK(!snapshot_mode_);  // snapshot pools are read-only
  PageId id = disk_->AllocatePage(segment);
  std::lock_guard<std::mutex> lock(mu_);
  Frame frame;
  frame.dirty = true;
  auto it = frames_.emplace(id, std::move(frame)).first;
  ++it->second.pin_count;
  return PageGuard(this, id, &it->second.page);
}

void BufferManager::Unpin(PageId id, bool dirty) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = frames_.find(id);
  ASR_CHECK(it != frames_.end());
  Frame& frame = it->second;
  ASR_CHECK(frame.pin_count > 0);
  ASR_CHECK(!(dirty && snapshot_mode_));  // snapshot pools are read-only
  if (dirty) frame.dirty = true;
  if (--frame.pin_count == 0) {
    lru_.push_back(id);
    frame.lru_pos = std::prev(lru_.end());
    frame.in_lru = true;
    EnforceCapacity();
  }
}

void BufferManager::EnforceCapacity() {
  while (lru_.size() > capacity_) {
    PageId victim = lru_.front();
    EvictFrame(victim);
  }
}

void BufferManager::EvictFrame(PageId id) {
  auto it = frames_.find(id);
  ASR_CHECK(it != frames_.end());
  Frame& frame = it->second;
  ASR_CHECK(frame.pin_count == 0 && frame.in_lru);
  evictions_.Inc();
#if ASR_METRICS_ENABLED
  ++SegCounters(id.segment).evictions;
#endif
  if (frame.dirty) {
    writebacks_.Inc();
    Status st;
    {
      obs::LatencyTimer timer(time_io_, &evict_writeback_us_);
      st = disk_->WritePage(id, frame.page);
    }
    // The unpin that triggered this eviction cannot receive a Status, so the
    // first failure sticks; the frame is dropped regardless (its content is
    // what the crash lost).
    if (!st.ok() && write_error_.ok()) write_error_ = st;
    if (st.ok()) NoteWriteBack(id.segment);
  }
  lru_.erase(frame.lru_pos);
  frames_.erase(it);
}

void BufferManager::NoteWriteBack(uint32_t segment) {
  if (durability_ == DurabilityMode::kOff) return;
  ++unsynced_writebacks_;
  if (std::find(dirty_segments_.begin(), dirty_segments_.end(), segment) ==
      dirty_segments_.end()) {
    dirty_segments_.push_back(segment);
  }
  if (durability_ == DurabilityMode::kPage ||
      unsynced_writebacks_ >= flush_batch_) {
    FlushRun();
  }
}

void BufferManager::FlushRun() {
  if (unsynced_writebacks_ == 0) return;
  {
    obs::LatencyTimer timer(time_io_, &flush_run_us_);
    for (uint32_t segment : dirty_segments_) {
      Status st = disk_->SyncSegment(segment);
      if (!st.ok() && write_error_.ok()) write_error_ = st;
    }
  }
  flush_run_sizes_.Observe(unsynced_writebacks_);
  ++group_flushes_;
  unsynced_writebacks_ = 0;
  dirty_segments_.clear();
}

Status BufferManager::FlushAll() {
  std::lock_guard<std::mutex> lock(mu_);
  // Write back all dirty frames (pinned frames stay resident but clean),
  // best-effort: a failed write-back does not stop the remaining flushes.
  for (auto& [id, frame] : frames_) {
    if (frame.dirty) {
      writebacks_.Inc();
      Status st = disk_->WritePage(id, frame.page);
      if (!st.ok() && write_error_.ok()) write_error_ = st;
      if (st.ok()) NoteWriteBack(id.segment);
      frame.dirty = false;
    }
  }
  // Drop unpinned frames.
  while (!lru_.empty()) EvictFrame(lru_.front());
  // A flush is a durability point in every non-off mode: close the open run
  // so nothing written back here is left unsynced.
  if (durability_ != DurabilityMode::kOff) FlushRun();
  return write_error_;
}

void BufferManager::Repoint(const PageSnapshot* snapshot) {
  std::lock_guard<std::mutex> lock(mu_);
  ASR_CHECK(snapshot_mode_);
  ASR_CHECK(lru_.size() == frames_.size());  // no frame pinned
  snapshot_ = snapshot;
}

void BufferManager::DropAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = frames_.begin(); it != frames_.end();) {
    Frame& frame = it->second;
    if (frame.pin_count > 0) {
      ++it;
      continue;
    }
    if (frame.in_lru) lru_.erase(frame.lru_pos);
    it = frames_.erase(it);
  }
  write_error_ = Status::OK();
  // Restart point: whatever was in the open flush run died with the cached
  // frames; the next write-back starts a fresh run.
  unsynced_writebacks_ = 0;
  dirty_segments_.clear();
}

void BufferManager::ExportMetrics(obs::MetricsRegistry* registry,
                                  const std::string& prefix) const {
  std::lock_guard<std::mutex> lock(mu_);
  registry->Set(prefix + ".hits", hits_);
  registry->Set(prefix + ".misses", misses_);
  registry->Set(prefix + ".evictions", evictions_.value());
  registry->Set(prefix + ".writebacks", writebacks_.value());
  registry->Set(prefix + ".capacity", capacity_);
  registry->Set(prefix + ".group_flushes", group_flushes_);
  registry->SetHistogram(prefix + ".flush_run_sizes", flush_run_sizes_);
  registry->SetHistogram(prefix + ".evict_writeback_us",
                         evict_writeback_us_.snapshot());
  registry->SetHistogram(prefix + ".flush_run_us", flush_run_us_.snapshot());
#if ASR_METRICS_ENABLED
  for (uint32_t seg = 0; seg < seg_counters_.size(); ++seg) {
    const SegmentCounters& c = seg_counters_[seg];
    if (c.hits == 0 && c.misses == 0 && c.evictions == 0) continue;
    const std::string seg_prefix =
        prefix + ".segment." + disk_->SegmentName(seg);
    registry->Set(seg_prefix + ".hits", c.hits);
    registry->Set(seg_prefix + ".misses", c.misses);
    registry->Set(seg_prefix + ".evictions", c.evictions);
  }
#endif
}

}  // namespace asr::storage
