#include "asr/snapshot.h"

#include <algorithm>
#include <mutex>
#include <unordered_set>
#include <utility>

#include "asr/access_support_relation.h"
#include "asr/extension.h"
#include "storage/mvcc.h"

namespace asr {

namespace {

// Scalar frontier probe against a snapshot tree: key-by-key cluster lookups,
// collecting the non-null values of `rel_col`. The snapshot path always
// probes scalar. It serves isolation tests, concurrent readers and the
// `snapshot_rw` workload of perfbench/, which times this loop end to end.
void ProbeSnapshotFrontier(btree::BTree* tree,
                           const std::unordered_set<AsrKey>& frontier,
                           uint32_t rel_col,
                           std::unordered_set<AsrKey>* next) {
  for (AsrKey key : frontier) {
    if (key.IsNull()) continue;
    tree->LookupEach(key, [&](const std::vector<AsrKey>& row) {
      AsrKey v = row[rel_col];
      if (!v.IsNull()) next->insert(v);
      return true;
    });
  }
}

}  // namespace

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
  snapshot->pool_ = std::make_unique<storage::BufferManager>(
      store_->buffers()->disk(), store_->buffers()->capacity(),
      &snapshot->snap_);
  snapshot->partitions_.reserve(partitions_.size());
  for (const Partition& part : partitions_) {
    AsrSnapshot::SnapPartition sp;
    sp.first = part.first;
    sp.last = part.last;
    sp.forward = std::make_unique<btree::BTree>(snapshot->pool_.get(),
                                                part.store->forward->meta());
    sp.backward = std::make_unique<btree::BTree>(snapshot->pool_.get(),
                                                 part.store->backward->meta());
    snapshot->partitions_.push_back(std::move(sp));
  }
  return snapshot;
}

Result<std::vector<AsrKey>> AsrSnapshot::EvalForward(AsrKey start, uint32_t i,
                                                     uint32_t j) {
  if (i >= j || j > asr_->path().n()) {
    return Status::InvalidArgument("need 0 <= i < j <= n");
  }
  if (!asr_->SupportsQuery(i, j)) {
    return Status::NotSupported(
        "the " + std::string(ExtensionKindName(asr_->kind())) +
        " extension does not support Q_{" + std::to_string(i) + "," +
        std::to_string(j) + "}");
  }
  const Decomposition& dec = asr_->decomposition();
  uint32_t c = asr_->ColumnOfPosition(i);
  const uint32_t cj = asr_->ColumnOfPosition(j);
  std::unordered_set<AsrKey> frontier{start};

  // The live hop loop of AccessSupportRelation::EvalForward, over the
  // captured trees: cluster lookups at partition boundaries, full partition
  // scans for interior entry columns (Eq. 33).
  while (c < cj && !frontier.empty()) {
    int p_idx = dec.PartitionStartingAt(c);
    bool via_lookup = (p_idx >= 0 && c < dec.m());
    if (!via_lookup) p_idx = dec.PartitionCovering(c);
    ASR_CHECK(p_idx >= 0);
    const SnapPartition& part = partitions_[p_idx];
    uint32_t target = std::min(part.last, cj);
    std::unordered_set<AsrKey> next;
    if (via_lookup) {
      ProbeSnapshotFrontier(part.forward.get(), frontier, target - part.first,
                            &next);
    } else {
      uint32_t rel_c = c - part.first;
      Status st = part.forward->ScanAll(
          [&](const std::vector<AsrKey>& row) -> Status {
            if (frontier.count(row[rel_c]) > 0 && !row[rel_c].IsNull()) {
              AsrKey v = row[target - part.first];
              if (!v.IsNull()) next.insert(v);
            }
            return Status::OK();
          });
      ASR_RETURN_IF_ERROR(st);
    }
    frontier = std::move(next);
    c = target;
  }
  return std::vector<AsrKey>(frontier.begin(), frontier.end());
}

Result<std::vector<AsrKey>> AsrSnapshot::EvalBackward(AsrKey target,
                                                      uint32_t i, uint32_t j) {
  if (i >= j || j > asr_->path().n()) {
    return Status::InvalidArgument("need 0 <= i < j <= n");
  }
  if (!asr_->SupportsQuery(i, j)) {
    return Status::NotSupported(
        "the " + std::string(ExtensionKindName(asr_->kind())) +
        " extension does not support Q_{" + std::to_string(i) + "," +
        std::to_string(j) + "}");
  }
  const Decomposition& dec = asr_->decomposition();
  const uint32_t ci = asr_->ColumnOfPosition(i);
  uint32_t c = asr_->ColumnOfPosition(j);
  std::unordered_set<AsrKey> frontier{target};

  while (c > ci && !frontier.empty()) {
    int p_idx = dec.PartitionEndingAt(c);
    bool via_lookup = (p_idx >= 0 && c > 0);
    if (!via_lookup) p_idx = dec.PartitionCovering(c);
    ASR_CHECK(p_idx >= 0);
    const SnapPartition& part = partitions_[p_idx];
    uint32_t dest = std::max(part.first, ci);
    std::unordered_set<AsrKey> next;
    if (via_lookup) {
      ProbeSnapshotFrontier(part.backward.get(), frontier, dest - part.first,
                            &next);
    } else {
      uint32_t rel_c = c - part.first;
      Status st = part.forward->ScanAll(
          [&](const std::vector<AsrKey>& row) -> Status {
            if (frontier.count(row[rel_c]) > 0 && !row[rel_c].IsNull()) {
              AsrKey v = row[dest - part.first];
              if (!v.IsNull()) next.insert(v);
            }
            return Status::OK();
          });
      ASR_RETURN_IF_ERROR(st);
    }
    frontier = std::move(next);
    c = dest;
  }
  return std::vector<AsrKey>(frontier.begin(), frontier.end());
}

}  // namespace asr
