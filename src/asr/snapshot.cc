#include "asr/snapshot.h"

#include <mutex>
#include <utility>

#include "asr/access_support_relation.h"
#include "storage/mvcc.h"

namespace asr {

Result<std::unique_ptr<AsrSnapshot>> AccessSupportRelation::OpenSnapshot() {
  if (!options_.transactional) {
    return Status::NotSupported(
        "OpenSnapshot requires AsrOptions::transactional");
  }
  storage::MvccManager* manager = mvcc();
  if (manager == nullptr) {
    return Status::NotSupported(
        "OpenSnapshot requires an MvccManager on the disk "
        "(Database::EnableMvcc)");
  }
  if (degraded()) {
    // Quarantined trees are untrusted on disk; a snapshot of them would
    // faithfully preserve garbage. Repair() first.
    return Status::NotSupported(
        "cannot snapshot a degraded ASR; run Repair() first");
  }
  // Claims (blocking, canonical address order) fence the capture against
  // in-flight writers: the epoch and the tree Metas are taken at an
  // operation boundary, together.
  std::vector<std::unique_lock<std::mutex>> claims;
  for (PartitionStore* ps : DistinctStores()) {
    claims.emplace_back(ps->claim_mu);
  }
  for (PartitionStore* ps : DistinctStores()) {
    // Committed transactions already wrote through; this sweeps any
    // remaining buffered page (e.g. build leftovers) to the backend so the
    // pinned epoch covers the full tree images.
    ASR_RETURN_IF_ERROR(ps->buffers->FlushAll());
  }
  std::unique_ptr<AsrSnapshot> snapshot(new AsrSnapshot(this));
  snapshot->snap_ = manager->BeginSnapshot();
  snapshot->pool_ =
      TakeSnapshotPool(&snapshot->snap_, &snapshot->pool_generation_);
  // Private trees over the captured Metas; views never degrade (capture
  // refused a degraded ASR above).
  auto capture = [&](const btree::BTree& live) {
    snapshot->trees_.push_back(
        std::make_unique<btree::BTree>(snapshot->pool_.get(), live.meta()));
    return snapshot->trees_.back().get();
  };
  snapshot->views_.reserve(partitions_.size());
  for (const Partition& part : partitions_) {
    btree::BTree* forward = capture(*part.store->forward);
    btree::BTree* backward = capture(*part.store->backward);
    snapshot->views_.push_back(
        {part.first, part.last, forward, backward, /*degraded=*/false});
  }
  return snapshot;
}

std::unique_ptr<storage::BufferManager> AccessSupportRelation::TakeSnapshotPool(
    const storage::PageSnapshot* snap, uint64_t* generation) {
  std::unique_ptr<storage::BufferManager> pool;
  {
    std::lock_guard<std::mutex> lock(snapshot_pool_mu_);
    pool = std::move(spare_snapshot_pool_);
    *generation = snapshot_pool_generation_;
  }
  if (pool == nullptr) {
    return std::make_unique<storage::BufferManager>(
        store_->buffers()->disk(), store_->buffers()->capacity(), snap);
  }
  pool->Repoint(snap);
  return pool;
}

void AccessSupportRelation::ReturnSnapshotPool(
    std::unique_ptr<storage::BufferManager> pool, uint64_t generation) {
  std::lock_guard<std::mutex> lock(snapshot_pool_mu_);
  if (generation == snapshot_pool_generation_ &&
      spare_snapshot_pool_ == nullptr) {
    spare_snapshot_pool_ = std::move(pool);
  }
  // Otherwise `pool` is freed on return, outside the lock.
}

void AccessSupportRelation::DiscardSnapshotPool() {
  std::unique_ptr<storage::BufferManager> spare;
  std::lock_guard<std::mutex> lock(snapshot_pool_mu_);
  spare = std::move(spare_snapshot_pool_);
  ++snapshot_pool_generation_;
}

AsrSnapshot::~AsrSnapshot() {
  // The trees unpin through pool_, so they go first; the pool is parked
  // before snap_ is released (after this body), and then handed back.
  trees_.clear();
  if (pool_ != nullptr) {
    pool_->Repoint(nullptr);
    asr_->ReturnSnapshotPool(std::move(pool_), pool_generation_);
  }
}

Result<std::vector<AsrKey>> AsrSnapshot::EvalForward(AsrKey start, uint32_t i,
                                                     uint32_t j) {
  return asr_->EvalHops(AccessSupportRelation::HopDirection::kForward, start,
                        i, j, views_.data());
}

Result<std::vector<AsrKey>> AsrSnapshot::EvalBackward(AsrKey target,
                                                      uint32_t i, uint32_t j) {
  return asr_->EvalHops(AccessSupportRelation::HopDirection::kBackward,
                        target, i, j, views_.data());
}

}  // namespace asr
