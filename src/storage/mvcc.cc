#include "storage/mvcc.h"

#include <algorithm>
#include <utility>

#include "storage/disk.h"
#include "storage/wal.h"

namespace asr::storage {

namespace {

// The thread's active transaction. One per thread by construction
// (PageTransaction's constructor checks); the binding is what lets
// Disk::WritePage route a covered write without any argument threading
// through the BufferManager and B+ tree layers between them.
thread_local PageTransaction* t_current_txn = nullptr;

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

}  // namespace

// ---------------------------------------------------------------------------
// PageSnapshot
// ---------------------------------------------------------------------------

PageSnapshot& PageSnapshot::operator=(PageSnapshot&& other) noexcept {
  if (this != &other) {
    Release();
    mvcc_ = other.mvcc_;
    epoch_ = other.epoch_;
    other.mvcc_ = nullptr;
    other.epoch_ = 0;
  }
  return *this;
}

void PageSnapshot::Release() {
  if (mvcc_ != nullptr) {
    mvcc_->ReleaseSnapshot(epoch_);
    mvcc_ = nullptr;
    epoch_ = 0;
  }
}

// ---------------------------------------------------------------------------
// PageTransaction
// ---------------------------------------------------------------------------

PageTransaction::PageTransaction(MvccManager* mvcc,
                                 std::vector<uint32_t> segments)
    : mvcc_(mvcc), segments_(std::move(segments)) {
  ASR_CHECK(mvcc_ != nullptr);
  // One transaction per thread: nested checkouts would make the write
  // routing ambiguous.
  ASR_CHECK(t_current_txn == nullptr);
  TxnCommitLock lock(mvcc_->mu_);
  for (uint32_t s : segments_) mvcc_->registered_.insert(s);
  checkout_ = mvcc_->epoch_;
  active_ = true;
  t_current_txn = this;
}

PageTransaction::~PageTransaction() { Abort(); }

bool PageTransaction::covers(uint32_t segment) const {
  return std::find(segments_.begin(), segments_.end(), segment) !=
         segments_.end();
}

Status PageTransaction::Commit(std::vector<PageId>* conflicts) {
  ASR_CHECK(active_);
  ASR_CHECK(t_current_txn == this);  // committed on the opening thread
  Status st = mvcc_->CommitTransaction(this, conflicts);
  staged_.clear();
  active_ = false;
  t_current_txn = nullptr;
  return st;
}

void PageTransaction::Abort() {
  if (!active_) return;
  ASR_CHECK(t_current_txn == this);
  mvcc_->AbortTransaction(this);
  staged_.clear();
  active_ = false;
  t_current_txn = nullptr;
}

// ---------------------------------------------------------------------------
// MvccManager
// ---------------------------------------------------------------------------

void MvccManager::RegisterSegment(uint32_t segment) {
  TxnCommitLock lock(mu_);
  registered_.insert(segment);
}

bool MvccManager::IsRegistered(uint32_t segment) const {
  SnapshotReadLock lock(mu_);
  return registered_.count(segment) > 0;
}

void MvccManager::AttachWal(WriteAheadLog* wal) {
  TxnCommitLock lock(mu_);
  wal_ = wal;
}

PageSnapshot MvccManager::BeginSnapshot() {
  TxnCommitLock lock(mu_);
  snapshots_.insert(epoch_);
  UpdateSnapshotAge();
  return PageSnapshot(this, epoch_);
}

MvccEpoch MvccManager::committed_epoch() const {
  SnapshotReadLock lock(mu_);
  return epoch_;
}

size_t MvccManager::live_snapshots() const {
  SnapshotReadLock lock(mu_);
  return snapshots_.size();
}

size_t MvccManager::retained_pages() const {
  SnapshotReadLock lock(mu_);
  size_t n = 0;
  for (const auto& [id, images] : retained_) n += images.size();
  return n;
}

size_t MvccManager::versioned_pages() const {
  SnapshotReadLock lock(mu_);
  return current_.size();
}

PageTransaction* MvccManager::CurrentTransaction() { return t_current_txn; }

bool MvccManager::TryReadStaged(PageId id, Page* out) const {
  const PageTransaction* txn = t_current_txn;
  if (txn == nullptr || txn->mvcc_ != this || !txn->active_) return false;
  auto it = txn->staged_.find(id);
  if (it == txn->staged_.end()) return false;
  *out = it->second;
  return true;
}

bool MvccManager::RouteWrite(Disk* disk, PageId id, const Page& page,
                             Status* result) {
  PageTransaction* txn = t_current_txn;
  if (txn != nullptr && txn->mvcc_ == this && txn->active_ &&
      txn->covers(id.segment)) {
    // Staged privately; the counted backend write happens at commit, once
    // per distinct page.
    txn->staged_[id] = page;
    *result = Status::OK();
    return true;
  }
  TxnCommitLock lock(mu_);
  if (registered_.count(id.segment) == 0) return false;
  // Auto-versioned direct write: a registered segment written outside any
  // transaction (legacy maintenance, shared-store reconcile) commits a
  // single-page epoch so live snapshots keep reading the image they pinned.
  *result = WriteVersion(disk, id, page, epoch_ + 1);
  if (result->ok()) {
    ++epoch_;
    direct_versioned_writes_.Inc();
    UpdateSnapshotAge();
  }
  return true;
}

bool MvccManager::RouteRead(Disk* disk, PageId id, Page* out, Status* result) {
  SnapshotReadLock lock(mu_);
  if (registered_.count(id.segment) == 0) return false;
  // The shared lock excludes a committer (TxnCommitLock) replacing this
  // page's backend image mid-read; readers stay concurrent with each other,
  // and the metered read counters are atomics, so no exclusive section is
  // needed here.
  *result = disk->ReadPageUnversioned(id, out);
  return true;
}

TxnCommitLock MvccManager::LockForAllocate(uint32_t segment) {
  TxnCommitLock lock(mu_);
  if (registered_.count(segment) == 0) lock.unlock();
  return lock;
}

Status MvccManager::ReadSnapshotPage(Disk* disk, PageId id,
                                     const PageSnapshot& snap, Page* out) {
  ASR_CHECK(snap.valid() && snap.mvcc_ == this);
  SnapshotReadLock lock(mu_);
  snapshot_reads_.Inc();
  if (CurrentVersion(id) <= snap.epoch_) {
    // The backend image is the one this snapshot pinned. Reading under the
    // shared lock excludes a commit replacing it mid-copy.
    return disk->ReadPageUnversioned(id, out);
  }
  // Replaced since checkout: serve the retained image with the largest
  // version <= the snapshot epoch.
  *out = RetainedAt(id, snap.epoch_)->second;
  // A real system would read this old version from the page's version
  // chain on disk: charge the same unit as any other query access.
  disk->CountSnapshotRead(id);
  return Status::OK();
}

MvccEpoch MvccManager::ResolveVersion(PageId id, MvccEpoch epoch) const {
  SnapshotReadLock lock(mu_);
  const MvccEpoch current = CurrentVersion(id);
  return current <= epoch ? current : RetainedAt(id, epoch)->first;
}

#if ASR_PARANOID_ENABLED
Status MvccManager::PeekSnapshotPage(PageId id, MvccEpoch epoch,
                                     Page* out) const {
  SnapshotReadLock lock(mu_);
  if (CurrentVersion(id) <= epoch) return disk_->ReadPageRaw(id, out);
  *out = RetainedAt(id, epoch)->second;
  return Status::OK();
}
#endif

void MvccManager::ReleaseSnapshot(MvccEpoch epoch) {
  TxnCommitLock lock(mu_);
  auto it = snapshots_.find(epoch);
  ASR_CHECK(it != snapshots_.end());
  snapshots_.erase(it);
  CollectRetained();
  UpdateSnapshotAge();
}

Status MvccManager::CommitTransaction(PageTransaction* txn,
                                      std::vector<PageId>* conflicts) {
  TxnCommitLock lock(mu_);
  // First committer wins: any staged page whose committed version moved
  // past our checkout epoch belongs to a transaction that got there first.
  std::vector<PageId> losers;
  for (const auto& [id, page] : txn->staged_) {
    if (CurrentVersion(id) > txn->checkout_) losers.push_back(id);
  }
  if (!losers.empty()) {
    conflicts_.Inc();
#if ASR_METRICS_ENABLED
    obs::LiveTelemetry::Instance().txn_conflicts.Inc();
#endif
    std::string msg = "page-version conflict on " +
                      std::to_string(losers.size()) + " of " +
                      std::to_string(txn->staged_.size()) +
                      " staged pages (checkout epoch " +
                      std::to_string(txn->checkout_) + ", committed epoch " +
                      std::to_string(epoch_) + ")";
    if (conflicts != nullptr) *conflicts = std::move(losers);
    return Status::Aborted(std::move(msg));
  }
  if (!txn->staged_.empty()) {
    // Epoch advances before the writes so a partial failure (injected
    // IOError mid-commit) can never leave a page version above the
    // committed epoch. BeginSnapshot also takes mu_, so nothing observes
    // the epoch until the writes below finish.
    const MvccEpoch commit_epoch = ++epoch_;
    for (const auto& [id, page] : txn->staged_) {
      ASR_RETURN_IF_ERROR(WriteVersion(disk_, id, page, commit_epoch));
    }
    if (wal_ != nullptr) {
      // Unsynced audit marker; the journal's commit record syncs the tail.
      std::string record;
      record.push_back('X');
      PutU64(&record, commit_epoch);
      PutU32(&record, static_cast<uint32_t>(txn->staged_.size()));
      ASR_RETURN_IF_ERROR(wal_->Append(record));
    }
  }
  commits_.Inc();
  commit_pages_.Observe(txn->staged_.size());
#if ASR_METRICS_ENABLED
  obs::LiveTelemetry::Instance().txn_commits.Inc();
#endif
  UpdateSnapshotAge();
  return Status::OK();
}

void MvccManager::AbortTransaction(PageTransaction* txn) {
  (void)txn;  // staging is txn-local; nothing global to undo
}

MvccEpoch MvccManager::CurrentVersion(PageId id) const {
  auto it = current_.find(id);
  return it == current_.end() ? 0 : it->second;
}

std::map<MvccEpoch, Page>::const_iterator MvccManager::RetainedAt(
    PageId id, MvccEpoch epoch) const {
  // Retention at commit time guarantees the image while a snapshot at
  // `epoch` is live.
  auto images = retained_.find(id);
  ASR_CHECK(images != retained_.end());
  auto r = images->second.upper_bound(epoch);
  ASR_CHECK(r != images->second.begin());
  return std::prev(r);
}

Status MvccManager::WriteVersion(Disk* disk, PageId id, const Page& page,
                                 MvccEpoch version) {
  const MvccEpoch current = CurrentVersion(id);
  const bool retained = RetainIfNeeded(disk, id, current);
  Status st = disk->WritePageUnversioned(id, page);
  if (!st.ok()) {
    // The image at `current` is still the backend image, so the copy just
    // taken has an empty validity window: drop it rather than leave it for
    // a collection pass.
    if (retained) {
      auto images = retained_.find(id);
      images->second.erase(current);
      if (images->second.empty()) retained_.erase(images);
    }
    return st;
  }
  current_[id] = version;
  return Status::OK();
}

bool MvccManager::RetainIfNeeded(Disk* disk, PageId id, MvccEpoch current) {
  if (snapshots_.empty()) return false;
  // The image about to be replaced is valid for snapshot epochs in
  // [current, new version). Every live snapshot epoch is below the new
  // version (it has not been minted yet), so the image is needed iff some
  // live snapshot is at or past its birth version. Earlier snapshots are
  // served by images retained when those versions died.
  if (*snapshots_.rbegin() < current) return false;
  Page old_image;
  // Uncounted raw read: version retention is bookkeeping, not workload.
  if (!disk->ReadPageRaw(id, &old_image).ok()) return false;
  if (!retained_[id].emplace(current, old_image).second) return false;
  retained_copies_.Inc();
  return true;
}

bool MvccManager::AnySnapshotIn(MvccEpoch lo, MvccEpoch hi) const {
  auto s = snapshots_.lower_bound(lo);
  return s != snapshots_.end() && *s < hi;
}

void MvccManager::CollectRetained() {
  for (auto p = retained_.begin(); p != retained_.end();) {
    auto& retained = p->second;
    const MvccEpoch current = CurrentVersion(p->first);
    for (auto r = retained.begin(); r != retained.end();) {
      auto next = std::next(r);
      const MvccEpoch upper = next != retained.end() ? next->first : current;
      // retained[v] serves snapshots in [v, upper); drop it when none live.
      if (!AnySnapshotIn(r->first, upper)) {
        r = retained.erase(r);
      } else {
        r = next;
      }
    }
    if (retained.empty()) {
      p = retained_.erase(p);
    } else {
      ++p;
    }
  }
#if ASR_PARANOID_ENABLED
  CheckRetained();
#endif
}

#if ASR_PARANOID_ENABLED
void MvccManager::CheckRetained() const {
  for (const auto& [id, retained] : retained_) {
    ASR_CHECK(!retained.empty());
    const MvccEpoch current = CurrentVersion(id);
    for (auto r = retained.begin(); r != retained.end(); ++r) {
      auto next = std::next(r);
      const MvccEpoch upper = next != retained.end() ? next->first : current;
      ASR_CHECK(AnySnapshotIn(r->first, upper));
    }
  }
}
#endif

void MvccManager::UpdateSnapshotAge() {
#if ASR_METRICS_ENABLED
  const uint64_t age =
      snapshots_.empty() ? 0 : epoch_ - *snapshots_.begin();
  obs::LiveTelemetry::Instance().snapshot_age_epochs.Set(age);
#endif
}

void MvccManager::ExportMetrics(obs::MetricsRegistry* registry,
                                const std::string& prefix) const {
  SnapshotReadLock lock(mu_);
  registry->Set(prefix + ".epoch", epoch_);
  registry->Set(prefix + ".commits", commits_.value());
  registry->Set(prefix + ".conflicts", conflicts_.value());
  registry->Set(prefix + ".direct_versioned_writes",
                direct_versioned_writes_.value());
  registry->Set(prefix + ".snapshot_reads", snapshot_reads_.value());
  registry->Set(prefix + ".retained_copies", retained_copies_.value());
  registry->Set(prefix + ".live_snapshots", snapshots_.size());
  size_t retained = 0;
  for (const auto& [id, images] : retained_) retained += images.size();
  registry->Set(prefix + ".retained_pages", retained);
  registry->SetHistogram(prefix + ".commit_pages", commit_pages_.snapshot());
}

}  // namespace asr::storage
