// Transactional edge maintenance: the multi-writer counterpart of the
// journal-enveloped single-writer path in maintenance.cc.
//
// One operation = claim the partition stores it spans (try-lock, address
// order), run the ordinary ins_i/del_i implementation with every tree write
// staged in a storage::PageTransaction, flush the staged pages and commit
// them as one epoch. Two rollback mechanisms pair up on failure: staged page
// images are dropped and each tree's Meta is restored (the physical side),
// and the undo log reverses the in-memory full_rows_/refcount edits (the
// logical side). A failed claim or a commit-time conflict surfaces as
// Aborted; RunEdgeTxn backs off and retries against the new epoch.
//
// The claim protocol is the ASR-level conflict surface: writers over
// disjoint partition stores never contend, writers sharing a store
// serialize, and the storage layer's first-committer-wins check is the
// safety net underneath. Try-lockers release everything on failure (no
// hold-and-wait), so the blocking lockers — snapshot capture and Rebuild,
// both taking claims in the same address order — cannot deadlock with them.

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <thread>
#include <vector>

#include "asr/access_support_relation.h"
#include "btree/btree.h"
#include "obs/latency.h"
#include "obs/span.h"
#include "storage/mvcc.h"

namespace asr {

namespace {

// Deterministic per-thread jittered exponential backoff. No clock reads
// (this is a metering path): the jitter seed is the thread id hashed through
// an LCG step, varied per attempt.
uint32_t BackoffMicros(uint32_t base_us, uint32_t attempt) {
  const uint64_t seed =
      std::hash<std::thread::id>{}(std::this_thread::get_id()) ^
      (static_cast<uint64_t>(attempt) * 0x9E3779B97F4A7C15ull);
  const uint64_t mixed = seed * 6364136223846793005ull + 1442695040888963407ull;
  const uint32_t cap = base_us << std::min<uint32_t>(attempt, 10);
  if (cap == 0) return 0;
  return static_cast<uint32_t>(mixed % cap) + 1;
}

uint32_t EnvU32(const char* name, uint32_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return static_cast<uint32_t>(std::strtoul(v, nullptr, 10));
}

}  // namespace

AsrOptions AsrOptions::FromEnv() {
  AsrOptions options;
  options.txn_max_retries = EnvU32("ASR_TXN_RETRIES", options.txn_max_retries);
  options.txn_backoff_us =
      EnvU32("ASR_TXN_BACKOFF_US", options.txn_backoff_us);
  return options;
}

storage::MvccManager* AccessSupportRelation::mvcc() const {
  return store_->buffers()->disk()->mvcc();
}

std::vector<PartitionStore*> AccessSupportRelation::DistinctStores() const {
  std::vector<PartitionStore*> stores;
  stores.reserve(partitions_.size());
  for (const Partition& part : partitions_) {
    stores.push_back(part.store.get());
  }
  std::sort(stores.begin(), stores.end());
  stores.erase(std::unique(stores.begin(), stores.end()), stores.end());
  return stores;
}

Status AccessSupportRelation::RegisterTreeSegments() {
  storage::MvccManager* manager = mvcc();
  if (manager == nullptr) {
    return Status::NotSupported(
        "AsrOptions::transactional requires an MvccManager on the disk "
        "(Database::EnableMvcc)");
  }
  for (PartitionStore* ps : DistinctStores()) {
    // Push every buffered build/rebuild page to the backend first: once the
    // segment is registered, snapshot readers resolve its pages from the
    // backend image, which must therefore be complete at registration.
    ASR_RETURN_IF_ERROR(ps->buffers->FlushAll());
  }
  for (const Partition& part : partitions_) {
    manager->RegisterSegment(part.store->forward->segment());
    manager->RegisterSegment(part.store->backward->segment());
  }
  return Status::OK();
}

Status AccessSupportRelation::AttemptEdgeTxn(MaintOp op, Oid u, uint32_t p,
                                             AsrKey w) {
  // Every edge operation may touch every partition (fragments span the whole
  // path), so claim all distinct stores. Address order + try-lock keeps the
  // claim deadlock-free; failure means a concurrent writer shares a store.
  std::vector<PartitionStore*> stores = DistinctStores();
  std::vector<std::unique_lock<std::mutex>> claims;
  claims.reserve(stores.size());
  for (PartitionStore* ps : stores) {
    std::unique_lock<std::mutex> claim(ps->claim_mu, std::try_to_lock);
    if (!claim.owns_lock()) {
      return Status::Aborted("partition store '" + ps->name +
                             "' claimed by a concurrent writer");
    }
    claims.push_back(std::move(claim));
  }

  // Physical rollback points: each tree's in-memory state now, paired with
  // the discard of its staged pages.
  struct TreeMark {
    PartitionStore* store;
    btree::BTree::Meta fwd;
    btree::BTree::Meta bwd;
  };
  std::vector<TreeMark> marks;
  marks.reserve(stores.size());
  std::vector<uint32_t> segments;
  segments.reserve(stores.size() * 2);
  for (PartitionStore* ps : stores) {
    marks.push_back({ps, ps->forward->meta(), ps->backward->meta()});
    segments.push_back(ps->forward->segment());
    segments.push_back(ps->backward->segment());
  }

  undo_log_.clear();
  undo_active_ = true;
  Status st;
  {
    storage::PageTransaction txn(mvcc(), std::move(segments));
    st = op == MaintOp::kEdgeInsert ? OnEdgeInsertedImpl(u, p, w)
                                    : OnEdgeRemovedImpl(u, p, w);
    if (st.ok()) {
      // Push every dirty tree page into the transaction's staged set (the
      // pools write through Disk::WritePage, which routes to the thread's
      // transaction), then commit them as one epoch.
      for (PartitionStore* ps : stores) {
        Status flushed = ps->buffers->FlushAll();
        if (!flushed.ok()) st = flushed;
      }
      if (st.ok()) st = txn.Commit();
    }
    if (!st.ok()) {
      txn.Abort();
      for (const TreeMark& mark : marks) {
        // The pools may cache staged images that never committed; they are
        // not valid reads after the abort.
        mark.store->buffers->DropAll();
        mark.store->forward->RestoreMeta(mark.fwd);
        mark.store->backward->RestoreMeta(mark.bwd);
      }
      for (auto it = undo_log_.rbegin(); it != undo_log_.rend(); ++it) {
        (*it)();
      }
    }
  }
  undo_active_ = false;
  undo_log_.clear();
  return st;
}

Status AccessSupportRelation::RunEdgeTxn(MaintOp op, Oid u, uint32_t p,
                                         AsrKey w) {
  if (mvcc() == nullptr) {
    return Status::NotSupported(
        "AsrOptions::transactional requires an MvccManager on the disk "
        "(Database::EnableMvcc)");
  }
  obs::ScopedSpan span(op == MaintOp::kEdgeInsert ? "ins_i_txn" : "del_i_txn");
  // Journal intent once: retries are one logical operation, and a crash in
  // any attempt leaves the same unresolved intent for Recover().
  const uint64_t seq = journal_.BeginEdge(op, u, p, w);
  Status st;
  uint32_t attempt = 0;
  for (;; ++attempt) {
    st = AttemptEdgeTxn(op, u, p, w);
    if (!st.IsAborted()) break;
    if (attempt + 1 >= options_.txn_max_retries) break;
    const uint32_t sleep_us = BackoffMicros(options_.txn_backoff_us, attempt);
    if (sleep_us > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(sleep_us));
    }
  }
  obs::LiveTelemetry::Instance().txn_retries.Observe(attempt);
  if (span.active()) span.Attr("retries", static_cast<uint64_t>(attempt));
  if (st.ok() && !AnyWriteError()) {
    journal_.Commit(seq);
    return st;
  }
  if (st.IsAborted()) {
    // Every retry lost its conflict and rolled back cleanly: the disk never
    // saw the operation, so the intent resolves with no recovery debt. The
    // caller decides whether to re-issue the operation.
    journal_.MarkAborted(seq);
    return st;
  }
  return MarkWritesLost(seq, "transactional maintenance", st);
}

}  // namespace asr
