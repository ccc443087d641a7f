// Crash recovery, quarantine, and degrade-to-navigation for ASRs.
//
// The paper's redundancy argument (Defs. 3.3-3.8, Thm 3.9) is that an ASR
// adds no information to the object base — every partition is a projection
// of an extension derivable from the base alone. Recovery leans on exactly
// that: after a simulated crash, partitions are triaged physically
// (checksums, tree structure, forward/backward agreement); if anything is
// unresolved or damaged, the extension is recomputed from the base — the
// base is updated BEFORE maintenance runs, so it is authoritative and
// replaying pending intents and rolling back half-applied ones coincide.
// Healthy trees are patched by slice diff; damaged ones are quarantined and
// their path slice answered by object-base navigation (correct answers,
// navigation page counts) until Repair() bulk-rebuilds them.
#include <algorithm>
#include <unordered_map>
#include <utility>

#include "asr/access_support_relation.h"
#include "obs/events.h"
#include "obs/span.h"

namespace asr {

std::string RecoveryReport::ToString() const {
  std::string out = "recovery: ";
  out += clean ? "clean" : "dirty";
  out += " checked=" + std::to_string(partitions_checked);
  out += " quarantined=" + std::to_string(partitions_quarantined);
  out += " reconciled=" + std::to_string(partitions_reconciled);
  out += " repaired=" + std::to_string(partitions_repaired);
  out += " journal_resolved=" + std::to_string(journal_resolved);
  out += " rows_recomputed=" + std::to_string(rows_recomputed);
  out += " slices(+" + std::to_string(slices_inserted) + "/-" +
         std::to_string(slices_erased) + ")";
  return out;
}

Status PartitionStore::RebuildTrees(double fill_factor) {
  std::vector<rel::Row> slices;
  slices.reserve(refcounts.size());
  for (const auto& [slice, count] : refcounts) slices.push_back(slice);
  forward = std::make_unique<btree::BTree>(buffers, name + ":fwd", width, 0);
  backward =
      std::make_unique<btree::BTree>(buffers, name + ":bwd", width, width - 1);
  ASR_RETURN_IF_ERROR(forward->BulkLoad(slices, fill_factor));
  ASR_RETURN_IF_ERROR(backward->BulkLoad(std::move(slices), fill_factor));
  quarantined = false;
  return Status::OK();
}

bool AccessSupportRelation::degraded() const {
  return quarantined_count() > 0;
}

size_t AccessSupportRelation::quarantined_count() const {
  size_t count = 0;
  for (const Partition& part : partitions_) {
    if (part.store->quarantined) ++count;
  }
  return count;
}

bool AccessSupportRelation::AnyWriteError() const {
  if (store_->buffers()->has_write_error()) return true;
  for (const Partition& part : partitions_) {
    if (part.store->private_buffers != nullptr &&
        part.store->private_buffers->has_write_error()) {
      return true;
    }
  }
  return false;
}

Status AccessSupportRelation::MarkWritesLost(uint64_t seq,
                                             const std::string& op,
                                             const Status& st) {
  journal_.MarkLost(seq);
  DiscardSnapshotPool();
  if (!st.ok() && !AnyWriteError()) return st;
  std::string msg = op + " writes were lost; ASR requires Recover()";
  if (!st.ok()) msg += " (then: " + st.ToString() + ")";
  return Status::IOError(std::move(msg));
}

Status AccessSupportRelation::TriagePartitionStore(PartitionStore* store) {
  storage::Disk* disk = store->buffers->disk();
  // Checksums first: a torn page must be caught before any tree walk pins
  // it (Pin on a checksum-failing page aborts by contract).
  ASR_RETURN_IF_ERROR(disk->VerifySegment(store->forward->segment()));
  ASR_RETURN_IF_ERROR(disk->VerifySegment(store->backward->segment()));
  ASR_RETURN_IF_ERROR(store->forward->CheckIntegrity());
  ASR_RETURN_IF_ERROR(store->backward->CheckIntegrity());
  if (store->forward->tuple_count() != store->backward->tuple_count()) {
    return Status::Corruption(
        store->name + ": forward tree holds " +
        std::to_string(store->forward->tuple_count()) + " tuples, backward " +
        std::to_string(store->backward->tuple_count()));
  }
  // Lost writes keep old content with a valid checksum, so cross-structure
  // agreement is the check that actually catches them (§5.2 redundancy).
  std::set<rel::Row> fwd_rows;
  std::set<rel::Row> bwd_rows;
  ASR_RETURN_IF_ERROR(
      store->forward->ScanAll([&](const rel::Row& row) -> Status {
        fwd_rows.insert(row);
        return Status::OK();
      }));
  ASR_RETURN_IF_ERROR(
      store->backward->ScanAll([&](const rel::Row& row) -> Status {
        bwd_rows.insert(row);
        return Status::OK();
      }));
  if (fwd_rows != bwd_rows) {
    return Status::Corruption(store->name +
                              ": forward and backward trees disagree");
  }
  return Status::OK();
}

namespace {

bool SliceAllNull(const rel::Row& slice) {
  for (AsrKey k : slice) {
    if (!k.IsNull()) return false;
  }
  return true;
}

// This ASR's contribution to a [first..last] partition store: every
// projected slice with its multiplicity over `rows`.
std::map<rel::Row, uint32_t> ProjectContribution(const std::set<rel::Row>& rows,
                                                 uint32_t first,
                                                 uint32_t last) {
  std::map<rel::Row, uint32_t> contrib;
  for (const rel::Row& row : rows) {
    rel::Row slice(row.begin() + first, row.begin() + last + 1);
    if (SliceAllNull(slice)) continue;
    ++contrib[std::move(slice)];
  }
  return contrib;
}

// Makes `tree` hold exactly the keys of `refcounts` (healthy-tree patch-up;
// every insert/erase is a normal metered descent).
Status ReconcileTree(btree::BTree* tree,
                     const std::map<rel::Row, uint32_t>& refcounts,
                     uint64_t* inserted, uint64_t* erased) {
  std::set<rel::Row> stored;
  ASR_RETURN_IF_ERROR(tree->ScanAll([&](const rel::Row& row) -> Status {
    stored.insert(row);
    return Status::OK();
  }));
  for (const rel::Row& row : stored) {
    if (refcounts.find(row) == refcounts.end()) {
      tree->Erase(row);
      ++*erased;
    }
  }
  for (const auto& [slice, count] : refcounts) {
    if (stored.find(slice) == stored.end()) {
      tree->Insert(slice);
      ++*inserted;
    }
  }
  return Status::OK();
}

}  // namespace

Status AccessSupportRelation::Recover(RecoveryReport* report_out) {
  RecoveryReport scratch;
  RecoveryReport& report = report_out != nullptr ? *report_out : scratch;
  report = RecoveryReport{};
  recoveries_.Inc();
  obs::ScopedSpan span("recover");
  ASR_EVENT(obs::EventKind::kRecoveryStart,
            "unresolved=" + std::to_string(journal_.unresolved()) +
                " partitions=" + std::to_string(partitions_.size()));

  // Restart point: torn sectors become visible, the injector disarms, and
  // every cached frame — RAM that did not survive the crash — is dropped
  // (which also clears the pools' sticky write errors). Snapshot-pool
  // frames go too: revealed torn sectors change images without a version.
  store_->buffers()->disk()->RecoverFromCrash();
  DiscardSnapshotPool();
  store_->buffers()->DropAll();
  for (Partition& part : partitions_) {
    if (part.store->private_buffers != nullptr) {
      part.store->private_buffers->DropAll();
    }
  }

  // Physical triage.
  bool any_damage = false;
  for (size_t p = 0; p < partitions_.size(); ++p) {
    Partition& part = partitions_[p];
    ++report.partitions_checked;
    Status st = TriagePartitionStore(part.store.get());
    part.store->quarantined = !st.ok();
    if (part.store->quarantined) {
      ++report.partitions_quarantined;
      any_damage = true;
      ASR_EVENT(obs::EventKind::kPartitionQuarantine,
                "partition=" + std::to_string(p) +
                    " phase=triage reason=" + st.message());
    }
  }

  if (journal_.unresolved() == 0 && !any_damage) {
    report.clean = true;
    if (span.active()) span.Attr("clean", uint64_t{1});
    ASR_EVENT(obs::EventKind::kRecoveryFinish, "clean=1");
    return ParanoidValidate();
  }

  // Dirty path: re-derive the extension from the object base.
  Result<rel::Relation> extension =
      ComputeExtension(store_, path_, kind_, options_.drop_set_columns,
                       options_.anchor_collection);
  ASR_RETURN_IF_ERROR(extension.status());
  report.rows_recomputed = extension->rows().size();
  std::set<rel::Row> old_rows;
  old_rows.swap(full_rows_);
  for (const rel::Row& row : extension->rows()) full_rows_.insert(row);

  for (size_t p = 0; p < partitions_.size(); ++p) {
    Partition& part = partitions_[p];
    std::map<rel::Row, uint32_t> fresh =
        ProjectContribution(full_rows_, part.first, part.last);
    if (part.store->owners <= 1) {
      part.store->refcounts = std::move(fresh);
    } else {
      // Shared store (§5.4): swap this ASR's contribution, leave sibling
      // slices and counts untouched. The refcounts live in memory and
      // survived the page-write crash together with full_rows_, so the old
      // contribution is exactly the projection of the old row set.
      std::map<rel::Row, uint32_t> stale =
          ProjectContribution(old_rows, part.first, part.last);
      for (const auto& [slice, count] : stale) {
        auto it = part.store->refcounts.find(slice);
        if (it == part.store->refcounts.end()) continue;
        if (it->second <= count) {
          part.store->refcounts.erase(it);
        } else {
          it->second -= count;
        }
      }
      for (const auto& [slice, count] : fresh) {
        part.store->refcounts[slice] += count;
      }
    }
    if (part.store->quarantined) continue;  // Repair() rebuilds the trees
    uint64_t inserted = 0;
    uint64_t erased = 0;
    Status st = ReconcileTree(part.store->forward.get(),
                              part.store->refcounts, &inserted, &erased);
    if (st.ok()) {
      st = ReconcileTree(part.store->backward.get(), part.store->refcounts,
                         &inserted, &erased);
    }
    // ReconcileTree "succeeds" even when its tree writes never reach the
    // disk — eviction failures park in the pool's sticky error (the pool was
    // drained by DropAll above, so anything there now came from reconcile).
    if (st.ok() && part.store->buffers->has_write_error()) {
      st = part.store->buffers->write_error();
    }
    if (!st.ok()) {
      // The reconcile could not be persisted (e.g. the backend demoted
      // itself to read-only after a permanent write failure): the trees are
      // untrusted, so quarantine the partition and let degraded navigation
      // answer its slice. Recovery itself still completes.
      part.store->quarantined = true;
      ++report.partitions_quarantined;
      ASR_EVENT(obs::EventKind::kPartitionQuarantine,
                "partition=" + std::to_string(p) +
                    " phase=reconcile reason=" + st.message());
      continue;
    }
    if (inserted + erased > 0) ++report.partitions_reconciled;
    report.slices_inserted += inserted;
    report.slices_erased += erased;
  }

  report.journal_resolved = journal_.MarkAllRecovered();
  ASR_EVENT(obs::EventKind::kRecoveryFinish,
            "clean=0 quarantined=" +
                std::to_string(report.partitions_quarantined) +
                " rows_recomputed=" + std::to_string(report.rows_recomputed) +
                " journal_resolved=" +
                std::to_string(report.journal_resolved));
  if (span.active()) {
    span.Attr("quarantined", static_cast<uint64_t>(
                                 report.partitions_quarantined));
    span.Attr("rows_recomputed", report.rows_recomputed);
    span.Attr("journal_resolved", report.journal_resolved);
  }
  return ValidateStructure();
}

Status AccessSupportRelation::Repair(RecoveryReport* report_out) {
  RecoveryReport scratch;
  RecoveryReport& report = report_out != nullptr ? *report_out : scratch;
  obs::ScopedSpan span("repair");
  DiscardSnapshotPool();
  uint32_t repaired = 0;
  for (Partition& part : partitions_) {
    if (!part.store->quarantined) continue;
    repairs_.Inc();
    Status st = part.store->RebuildTrees(options_.fill_factor);
    if (st.ok() && part.store->buffers->has_write_error()) {
      st = part.store->buffers->write_error();
    }
    if (!st.ok()) {
      // Repair needs a writable backend; keep the store quarantined (its
      // slice still answers via navigation) and surface why.
      part.store->quarantined = true;
      return st;
    }
    ++repaired;
  }
  report.partitions_repaired += repaired;
  if (span.active()) span.Attr("repaired", static_cast<uint64_t>(repaired));
  if (repaired == 0) return Status::OK();
  if (options_.transactional) {
    // The rebuilt trees live in fresh segments: version-manage them before
    // a snapshot can read them, so every later write to their pages (a
    // tuple-at-a-time Rebuild, say) gets a version and leaves snapshots,
    // and recycled snapshot frames, on the images they pinned.
    ASR_RETURN_IF_ERROR(RegisterTreeSegments());
  }
  return ValidateStructure();
}

// --- Degraded navigation ---------------------------------------------------

int AccessSupportRelation::PositionOfColumn(uint32_t col) const {
  if (options_.drop_set_columns) {
    return col <= path_.n() ? static_cast<int>(col) : -1;
  }
  for (uint32_t q = 0; q <= path_.n(); ++q) {
    if (path_.ColumnOfPosition(q) == col) return static_cast<int>(q);
  }
  return -1;
}

Result<std::vector<AsrKey>> AccessSupportRelation::StepRight(AsrKey key,
                                                             uint32_t col) {
  const int q = PositionOfColumn(col);
  if (q < 0) {
    // Retained set-instance column: `key` is the set; its members occupy
    // the next column.
    if (!key.IsOid()) return std::vector<AsrKey>{};
    Result<gom::SetView> set = store_->GetSet(key.ToOid());
    ASR_RETURN_IF_ERROR(set.status());
    return set->members;
  }
  ASR_CHECK(static_cast<uint32_t>(q) < path_.n());
  if (!key.IsOid()) return std::vector<AsrKey>{};
  const PathStep& step = path_.step(static_cast<uint32_t>(q) + 1);
  Result<uint32_t> idx =
      store_->schema().FindAttribute(key.ToOid().type_id(), step.attr_name);
  ASR_RETURN_IF_ERROR(idx.status());
  Result<AsrKey> value = store_->GetAttribute(key.ToOid(), *idx);
  ASR_RETURN_IF_ERROR(value.status());
  if (value->IsNull()) return std::vector<AsrKey>{};
  if (!step.set_occurrence) return std::vector<AsrKey>{*value};
  if (!options_.drop_set_columns) {
    // The set instance itself occupies the next (retained) column.
    return std::vector<AsrKey>{*value};
  }
  Result<gom::SetView> set = store_->GetSet(value->ToOid());
  ASR_RETURN_IF_ERROR(set.status());
  return set->members;
}

Result<std::unordered_set<AsrKey>> AccessSupportRelation::NavigateForward(
    const std::unordered_set<AsrKey>& frontier, uint32_t from_col,
    uint32_t to_col) {
  std::unordered_set<AsrKey> cur = frontier;
  // An anchored ASR (§3) materializes only paths originating in C; the
  // navigation fallback must filter the same way.
  if (from_col == ColumnOfPosition(0) &&
      !options_.anchor_collection.IsNull()) {
    std::unordered_set<AsrKey> anchored;
    for (AsrKey key : cur) {
      Result<bool> member =
          store_->SetContains(options_.anchor_collection, key);
      ASR_RETURN_IF_ERROR(member.status());
      if (*member) anchored.insert(key);
    }
    cur = std::move(anchored);
  }
  for (uint32_t col = from_col; col < to_col && !cur.empty(); ++col) {
    std::unordered_set<AsrKey> next;
    for (AsrKey key : cur) {
      if (key.IsNull()) continue;
      Result<std::vector<AsrKey>> succ = StepRight(key, col);
      ASR_RETURN_IF_ERROR(succ.status());
      next.insert(succ->begin(), succ->end());
    }
    cur = std::move(next);
  }
  return cur;
}

Result<std::unordered_set<AsrKey>> AccessSupportRelation::NavigateBackward(
    const std::unordered_set<AsrKey>& frontier, uint32_t from_col,
    uint32_t to_col) {
  ASR_CHECK(to_col < from_col);
  const int q = PositionOfColumn(to_col);
  if (q < 0) {
    return Status::NotSupported(
        "degraded backward navigation cannot enter a retained set-instance "
        "column; Repair() the quarantined partition first");
  }
  // References are stored with the referencing object, so the backward hop
  // is answered the §5.6.2 way: enumerate the candidate objects of the
  // destination position, expand them forward, and back-propagate.
  const gom::Schema& schema = store_->schema();
  std::unordered_set<AsrKey> candidates;
  for (TypeId t = 0; t < schema.type_count(); ++t) {
    if (!schema.IsTuple(t) ||
        !schema.IsSubtypeOf(t, path_.type_at(static_cast<uint32_t>(q)))) {
      continue;
    }
    Status st = store_->ScanTuples(t, [&](const gom::TupleView& view) {
      candidates.insert(AsrKey::FromOid(view.oid));
      return Status::OK();
    });
    ASR_RETURN_IF_ERROR(st);
  }
  if (q == 0 && !options_.anchor_collection.IsNull()) {
    std::unordered_set<AsrKey> anchored;
    for (AsrKey key : candidates) {
      Result<bool> member =
          store_->SetContains(options_.anchor_collection, key);
      ASR_RETURN_IF_ERROR(member.status());
      if (*member) anchored.insert(key);
    }
    candidates = std::move(anchored);
  }
  // Forward expansion with per-column predecessor lists.
  const uint32_t span_cols = from_col - to_col;
  std::vector<std::unordered_map<AsrKey, std::vector<AsrKey>>> preds(
      span_cols);
  std::unordered_set<AsrKey> cur = candidates;
  for (uint32_t col = to_col; col < from_col && !cur.empty(); ++col) {
    std::unordered_set<AsrKey> next;
    auto& pm = preds[col - to_col];
    for (AsrKey key : cur) {
      if (key.IsNull()) continue;
      Result<std::vector<AsrKey>> succ = StepRight(key, col);
      ASR_RETURN_IF_ERROR(succ.status());
      for (AsrKey s : *succ) {
        pm[s].push_back(key);
        next.insert(s);
      }
    }
    cur = std::move(next);
  }
  // Back-propagate the frontier to the destination column.
  std::unordered_set<AsrKey> level = frontier;
  for (uint32_t col = from_col; col > to_col && !level.empty(); --col) {
    const auto& pm = preds[col - to_col - 1];
    std::unordered_set<AsrKey> prev;
    for (AsrKey key : level) {
      auto it = pm.find(key);
      if (it == pm.end()) continue;
      prev.insert(it->second.begin(), it->second.end());
    }
    level = std::move(prev);
  }
  return level;
}

}  // namespace asr
