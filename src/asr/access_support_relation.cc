#include "asr/access_support_relation.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <unordered_set>
#include <utility>

#include "obs/events.h"
#include "obs/latency.h"
#include "obs/span.h"

namespace asr {

namespace {

bool AllNull(const rel::Row& row) {
  for (AsrKey k : row) {
    if (!k.IsNull()) return false;
  }
  return true;
}

rel::Row Slice(const rel::Row& row, uint32_t first, uint32_t last) {
  return rel::Row(row.begin() + first, row.begin() + last + 1);
}

// One lookup hop: probes `tree` with every frontier key and collects the
// non-null values of `rel_col` into `next`. Strict-metering configurations
// (buffer capacity 0) probe key by key so the realized page counts match the
// model's per-source ht + nlp charge exactly, and so do snapshot-mode pools,
// where every pin revalidates its frame's version and the batched probe's
// extra sibling-leaf pins cost more than its shared descents save
// (DESIGN.md §14.3). A live pool with a real capacity gets the frontier
// sorted and fed to the B+ tree's batched sorted probe, which amortizes
// descents across keys landing in the same leaves and prefetches sibling
// leaves — identical rows, fewer instructions.
void ProbeFrontier(btree::BTree* tree,
                   const std::unordered_set<AsrKey>& frontier,
                   uint32_t rel_col, std::unordered_set<AsrKey>* next) {
  const storage::BufferManager* pool = tree->buffers();
  if (pool->capacity() == 0 || pool->snapshot_mode()) {
    for (AsrKey key : frontier) {
      if (key.IsNull()) continue;
      tree->LookupEach(key, [&](const rel::Row& row) {
        AsrKey v = row[rel_col];
        if (!v.IsNull()) next->insert(v);
        return true;
      });
    }
    return;
  }
  std::vector<AsrKey> keys;
  keys.reserve(frontier.size());
  for (AsrKey key : frontier) {
    if (!key.IsNull()) keys.push_back(key);
  }
  std::sort(keys.begin(), keys.end(),
            [](AsrKey a, AsrKey b) { return a.raw() < b.raw(); });
  tree->LookupBatch(keys, [&](size_t, const rel::Row& row) {
    AsrKey v = row[rel_col];
    if (!v.IsNull()) next->insert(v);
    return true;
  });
}

// Runs `tasks` on up to `threads` workers (inline when one suffices). Tasks
// must touch disjoint state; the join provides the happens-before edge that
// makes the workers' disk-segment counters visible to the caller.
void RunOnPool(uint32_t threads, std::vector<std::function<void()>>* tasks) {
  if (tasks->empty()) return;
  uint32_t workers =
      std::min<uint32_t>(threads, static_cast<uint32_t>(tasks->size()));
  if (workers <= 1) {
    for (auto& task : *tasks) task();
    return;
  }
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (uint32_t w = 0; w < workers; ++w) {
    pool.emplace_back([&] {
      for (size_t i = next.fetch_add(1); i < tasks->size();
           i = next.fetch_add(1)) {
        (*tasks)[i]();
      }
    });
  }
  for (std::thread& t : pool) t.join();
}

}  // namespace

std::shared_ptr<PartitionStore> PartitionStore::Create(
    storage::BufferManager* shared, const std::string& name, uint32_t width,
    bool own_buffers) {
  auto store = std::make_shared<PartitionStore>();
  store->width = width;
  store->name = name;
  if (own_buffers) {
    store->private_buffers = std::make_unique<storage::BufferManager>(
        shared->disk(), shared->capacity());
  }
  store->buffers = own_buffers ? store->private_buffers.get() : shared;
  store->forward = std::make_unique<btree::BTree>(store->buffers,
                                                  name + ":fwd", width, 0);
  store->backward = std::make_unique<btree::BTree>(
      store->buffers, name + ":bwd", width, width - 1);
  return store;
}

Status PartitionStore::BulkLoad(std::vector<rel::Row> slices,
                                double fill_factor) {
  ASR_RETURN_IF_ERROR(forward->BulkLoad(slices, fill_factor));
  return backward->BulkLoad(std::move(slices), fill_factor);
}

void PartitionStore::ResetTrees() {
  ASR_CHECK(owners <= 1);
  forward = std::make_unique<btree::BTree>(buffers, name + ":fwd", width, 0);
  backward =
      std::make_unique<btree::BTree>(buffers, name + ":bwd", width, width - 1);
  refcounts.clear();
}

AccessSupportRelation::AccessSupportRelation(gom::ObjectStore* store,
                                             PathExpression path,
                                             ExtensionKind kind,
                                             Decomposition decomposition,
                                             AsrOptions options)
    : store_(store),
      path_(std::move(path)),
      kind_(kind),
      decomposition_(std::move(decomposition)),
      options_(options) {
  width_ = (options_.drop_set_columns ? path_.n() : path_.m()) + 1;
}

uint32_t AccessSupportRelation::ColumnOfPosition(uint32_t pos) const {
  return options_.drop_set_columns ? pos : path_.ColumnOfPosition(pos);
}

Result<std::unique_ptr<AccessSupportRelation>> AccessSupportRelation::Build(
    gom::ObjectStore* store, PathExpression path, ExtensionKind kind,
    Decomposition decomposition, AsrOptions options,
    const PartitionProvider& provider) {
  uint32_t m = options.drop_set_columns ? path.n() : path.m();
  if (decomposition.m() != m) {
    return Status::InvalidArgument(
        "decomposition " + decomposition.ToString() +
        " does not match the relation arity m=" + std::to_string(m));
  }
  Result<rel::Relation> extension =
      ComputeExtension(store, path, kind, options.drop_set_columns,
                       options.anchor_collection);
  ASR_RETURN_IF_ERROR(extension.status());

  std::unique_ptr<AccessSupportRelation> asr(
      new AccessSupportRelation(store, std::move(path), kind,
                                std::move(decomposition), options));

  std::string base = asr->path_.ToString() + ":" + ExtensionKindName(kind);
  std::vector<bool> fresh;
  for (size_t p = 0; p < asr->decomposition_.partition_count(); ++p) {
    auto [first, last] = asr->decomposition_.partition(p);
    Partition part;
    part.first = first;
    part.last = last;
    uint32_t w = last - first + 1;
    if (provider != nullptr) part.store = provider(p, first, last);
    bool is_fresh = (part.store == nullptr);
    if (!is_fresh) {
      if (part.store->width != w) {
        return Status::InvalidArgument(
            "shared partition store has width " +
            std::to_string(part.store->width) + ", partition needs " +
            std::to_string(w));
      }
      if (options.transactional && part.store->private_buffers == nullptr) {
        // A transactional writer stages its commit by flushing the store's
        // pool; sharing the object store's pool would sweep foreign dirty
        // pages into the transaction.
        return Status::InvalidArgument(
            "transactional ASRs require shared partition stores with "
            "private buffer pools (create the sibling ASR transactional "
            "too)");
      }
    } else {
      std::string pname =
          base + ":" + std::to_string(first) + "-" + std::to_string(last);
      part.store = PartitionStore::Create(
          store->buffers(), pname, w,
          /*own_buffers=*/options.transactional ||
              (options.bulk_load && options.build_threads > 1));
    }
    ++part.store->owners;
    fresh.push_back(is_fresh);
    asr->partitions_.push_back(std::move(part));
  }

  if (!options.bulk_load) {
    for (const rel::Row& row : extension->rows()) {
      asr->InsertRow(row);
    }
  } else {
    ASR_RETURN_IF_ERROR(asr->LoadRows(extension->rows(), fresh));
  }
  if (options.transactional) {
    // Version-manage the tree segments from here on: snapshot readers can
    // pin epochs and maintenance writes stage through transactions. The
    // build itself ran on the legacy path (no snapshot can predate us).
    ASR_RETURN_IF_ERROR(asr->RegisterTreeSegments());
  }
  ASR_RETURN_IF_ERROR(asr->ParanoidValidate());
  return asr;
}

Status AccessSupportRelation::LoadRows(const std::vector<rel::Row>& rows,
                                       const std::vector<bool>& fresh_store) {
  ASR_DCHECK(fresh_store.size() == partitions_.size());
  for (const rel::Row& row : rows) {
    ASR_DCHECK(row.size() == width_);
    full_rows_.insert(row);
  }
  // Slice and refcount serially; collect each fresh partition's distinct
  // slices for bulk load and push slices of pre-populated (shared) stores
  // tuple-at-a-time so existing contributions stay intact.
  std::vector<std::vector<rel::Row>> bulk_slices(partitions_.size());
  for (const rel::Row& row : full_rows_) {
    for (size_t p = 0; p < partitions_.size(); ++p) {
      Partition& part = partitions_[p];
      rel::Row slice = Slice(row, part.first, part.last);
      if (AllNull(slice)) continue;
      uint32_t& count = part.store->refcounts[slice];
      if (count++ != 0) continue;
      if (fresh_store[p]) {
        bulk_slices[p].push_back(std::move(slice));
      } else {
        part.store->forward->Insert(slice);
        part.store->backward->Insert(slice);
      }
    }
  }
  std::vector<Status> results(partitions_.size(), Status::OK());
  std::vector<std::function<void()>> tasks;
  bool all_private = true;
  for (size_t p = 0; p < partitions_.size(); ++p) {
    if (!fresh_store[p]) continue;
    if (partitions_[p].store->private_buffers == nullptr) all_private = false;
    tasks.push_back([this, p, &bulk_slices, &results] {
      results[p] = partitions_[p].store->BulkLoad(std::move(bulk_slices[p]),
                                                  options_.fill_factor);
    });
  }
  // Concurrency is only sound when every builder pins through its own pool
  // (stores created for a serial build share the object store's pool).
  RunOnPool(all_private ? options_.build_threads : 1, &tasks);
  for (const Status& st : results) {
    ASR_RETURN_IF_ERROR(st);
  }
  return Status::OK();
}

void AccessSupportRelation::InsertRow(const rel::Row& row) {
  ASR_DCHECK(row.size() == width_);
  if (!full_rows_.insert(row).second) return;  // already present
  if (undo_active_) {
    undo_log_.push_back([this, row] { full_rows_.erase(row); });
  }
  for (size_t p = 0; p < partitions_.size(); ++p) {
    Partition& part = partitions_[p];
    rel::Row slice = Slice(row, part.first, part.last);
    if (AllNull(slice)) continue;
    if (undo_active_) {
      // Reverse only the refcount effect; the tree insert rolls back
      // physically (staged pages dropped, meta restored).
      PartitionStore* ps = part.store.get();
      undo_log_.push_back([ps, slice] {
        auto it = ps->refcounts.find(slice);
        if (it != ps->refcounts.end() && --it->second == 0) {
          ps->refcounts.erase(it);
        }
      });
    }
    uint32_t& count = part.store->refcounts[slice];
    if (count++ == 0 && !part.store->quarantined) {
      // Quarantined trees are untrusted and untouched; the refcounts stay
      // exact so Repair() can rebuild from them.
      part.store->forward->Insert(slice);
      part.store->backward->Insert(slice);
    }
  }
}

void AccessSupportRelation::EraseRow(const rel::Row& row) {
  ASR_DCHECK(row.size() == width_);
  if (full_rows_.erase(row) == 0) return;  // row was not present
  if (undo_active_) {
    undo_log_.push_back([this, row] { full_rows_.insert(row); });
  }
  for (size_t p = 0; p < partitions_.size(); ++p) {
    Partition& part = partitions_[p];
    rel::Row slice = Slice(row, part.first, part.last);
    if (AllNull(slice)) continue;
    auto it = part.store->refcounts.find(slice);
    if (it == part.store->refcounts.end()) continue;  // row was not present
    if (undo_active_) {
      PartitionStore* ps = part.store.get();
      undo_log_.push_back([ps, slice] { ++ps->refcounts[slice]; });
    }
    if (--it->second == 0) {
      if (!part.store->quarantined) {
        part.store->forward->Erase(slice);
        part.store->backward->Erase(slice);
      }
      part.store->refcounts.erase(it);
    }
  }
}

Result<std::vector<rel::Row>> AccessSupportRelation::PartitionRowsWithValue(
    size_t p_idx, uint32_t col, AsrKey value) {
  Partition& part = partitions_[p_idx];
  ASR_CHECK(part.first <= col && col <= part.last);
  std::vector<rel::Row> out;
  if (col == part.first) {
    part.store->forward->Lookup(value, &out);
    return out;
  }
  if (col == part.last) {
    part.store->backward->Lookup(value, &out);
    return out;
  }
  // Interior column: every page of the partition must be inspected (the ap
  // term of Eqs. 33/34).
  uint32_t rel_col = col - part.first;
  Status st = part.store->forward->ScanAll(
      [&](const std::vector<AsrKey>& row) -> Status {
        if (row[rel_col] == value) out.push_back(row);
        return Status::OK();
      });
  ASR_RETURN_IF_ERROR(st);
  return out;
}

Status AccessSupportRelation::PartitionEachRowWithValue(
    size_t p_idx, uint32_t col, AsrKey value,
    const std::function<bool(const rel::Row&)>& fn) {
  Partition& part = partitions_[p_idx];
  ASR_CHECK(part.first <= col && col <= part.last);
  if (col == part.first) {
    part.store->forward->LookupEach(value, fn);
    return Status::OK();
  }
  if (col == part.last) {
    part.store->backward->LookupEach(value, fn);
    return Status::OK();
  }
  uint32_t rel_col = col - part.first;
  bool stop = false;
  return part.store->forward->ScanAll(
      [&](const std::vector<AsrKey>& row) -> Status {
        if (!stop && row[rel_col] == value) stop = !fn(row);
        return Status::OK();
      });
}

Result<std::vector<AsrKey>> AccessSupportRelation::EvalForward(AsrKey start,
                                                               uint32_t i,
                                                               uint32_t j) {
  return EvalHops(HopDirection::kForward, start, i, j, /*captured=*/nullptr);
}

Result<std::vector<AsrKey>> AccessSupportRelation::EvalBackward(AsrKey target,
                                                                uint32_t i,
                                                                uint32_t j) {
  return EvalHops(HopDirection::kBackward, target, i, j, /*captured=*/nullptr);
}

Result<std::vector<AsrKey>> AccessSupportRelation::EvalHops(
    HopDirection dir, AsrKey key, uint32_t i, uint32_t j,
    const PartitionView* captured) {
  if (i >= j || j > path_.n()) {
    return Status::InvalidArgument("need 0 <= i < j <= n");
  }
  if (!SupportsQuery(i, j)) {
    return Status::NotSupported(
        "the " + ExtensionKindName(kind_) +
        " extension does not support Q_{" + std::to_string(i) + "," +
        std::to_string(j) + "}");
  }
  const bool fwd = (dir == HopDirection::kForward);
  const char* dir_name = fwd ? "fwd" : "bwd";
  const bool live = (captured == nullptr);
  if (live) (fwd ? fwd_queries_ : bwd_queries_).Inc();
  const uint32_t ci = ColumnOfPosition(i);
  const uint32_t cj = ColumnOfPosition(j);
  uint32_t c = fwd ? ci : cj;
  std::unordered_set<AsrKey> frontier{key};

  // Each hop carries the frontier across one partition. At a partition
  // boundary it is a cluster lookup in the tree keyed on column c; at an
  // interior column every page of the covering partition is scanned
  // (Eq. 33). A boundary always has a partition on the far side: forward
  // c < cj <= m, backward c > ci >= 0.
  while ((fwd ? c < cj : c > ci) && !frontier.empty()) {
    int p_idx = fwd ? decomposition_.PartitionStartingAt(c)
                    : decomposition_.PartitionEndingAt(c);
    const bool via_lookup = (p_idx >= 0);
    if (!via_lookup) p_idx = decomposition_.PartitionCovering(c);
    ASR_CHECK(p_idx >= 0);
    const Partition& stored = partitions_[p_idx];
    const PartitionView part =
        live ? PartitionView{stored.first, stored.last,
                             stored.store->forward.get(),
                             stored.store->backward.get(),
                             stored.store->quarantined}
             : captured[p_idx];
    const uint32_t to =
        fwd ? std::min(part.last, cj) : std::max(part.first, ci);
    if (live) {
      frontier_sizes_.Observe(frontier.size());
      (part.degraded ? degraded_hops_
                     : via_lookup ? hop_lookups_ : hop_scans_).Inc();
    }
    if (part.degraded) {
      obs::LiveTelemetry::Instance().degraded_hops.Inc();
      ASR_EVENT(obs::EventKind::kDegradedNavigation,
                std::string("dir=") + dir_name +
                    " partition=" + stored.store->name);
    }
    obs::ScopedSpan hop("hop");
    if (hop.active()) {
      hop.Attr("dir", std::string(dir_name));
      hop.Attr("partition", stored.store->name);
      hop.Attr("mode", std::string(part.degraded ? "degraded"
                                   : via_lookup  ? "lookup"
                                                 : "scan"));
      hop.Attr("from_col", static_cast<uint64_t>(c));
      hop.Attr("to_col", static_cast<uint64_t>(to));
      hop.Attr("frontier", static_cast<uint64_t>(frontier.size()));
    }
    std::unordered_set<AsrKey> next;
    const uint32_t rel_to = to - part.first;
    if (part.degraded) {
      // Degrade to object-base navigation for this path slice (§4.1): same
      // answers, navigation page counts — metered separately.
      Result<std::unordered_set<AsrKey>> reached =
          fwd ? NavigateForward(frontier, c, to)
              : NavigateBackward(frontier, c, to);
      ASR_RETURN_IF_ERROR(reached.status());
      next = std::move(*reached);
    } else if (via_lookup) {
      ProbeFrontier(fwd ? part.forward : part.backward, frontier, rel_to,
                    &next);
    } else {
      const uint32_t rel_c = c - part.first;
      Status st = part.forward->ScanAll(
          [&](const std::vector<AsrKey>& row) -> Status {
            if (frontier.count(row[rel_c]) > 0 && !row[rel_c].IsNull()) {
              AsrKey v = row[rel_to];
              if (!v.IsNull()) next.insert(v);
            }
            return Status::OK();
          });
      ASR_RETURN_IF_ERROR(st);
    }
    frontier = std::move(next);
    c = to;
  }
  return std::vector<AsrKey>(frontier.begin(), frontier.end());
}

Status AccessSupportRelation::Rebuild() {
  // Transactional mode: hold every partition claim for the whole rebuild so
  // concurrent edge writers serialize against it (blocking, in the same
  // address order the try-lockers use — deadlock-free because try-lockers
  // never hold-and-wait). Snapshot readers are unaffected: solely-owned
  // stores rebuild into fresh segments, and retractions from shared stores
  // auto-version, so a snapshot's epoch keeps reading the old images.
  std::vector<std::unique_lock<std::mutex>> claims;
  if (options_.transactional) {
    for (PartitionStore* ps : DistinctStores()) {
      claims.emplace_back(ps->claim_mu);
    }
  }
  // Journal envelope: log intent, rebuild, commit only if every tree write
  // reached the disk (AnyWriteError is the durability signal — sticky write
  // errors on the shared and private pools).
  const uint64_t seq = journal_.BeginRebuild();
  Status st = RebuildImpl();
  if (st.ok() && !AnyWriteError()) {
    journal_.Commit(seq);
    return st;
  }
  return MarkWritesLost(seq, "rebuild", st);
}

Status AccessSupportRelation::RebuildImpl() {
  rebuilds_.Inc();
  obs::ScopedSpan span("rebuild");
  Result<rel::Relation> extension =
      ComputeExtension(store_, path_, kind_, options_.drop_set_columns,
                       options_.anchor_collection);
  ASR_RETURN_IF_ERROR(extension.status());
  rebuild_rows_.Inc(extension->rows().size());
  if (span.active()) {
    span.Attr("rows", static_cast<uint64_t>(extension->rows().size()));
    span.Attr("partitions", static_cast<uint64_t>(partitions_.size()));
    span.Attr("mode", std::string(options_.bulk_load ? "bulk" : "tuple"));
  }
  if (!options_.bulk_load) {
    // A rebuild restores quarantined stores too: their refcounts are exact,
    // so the trees can be reconstituted before normal maintenance resumes.
    for (Partition& part : partitions_) {
      if (part.store->quarantined) {
        ASR_RETURN_IF_ERROR(part.store->RebuildTrees(options_.fill_factor));
      }
    }
    // Retract this ASR's current rows (leaves sibling contributions to
    // shared stores untouched), then install the fresh extension.
    std::vector<rel::Row> old_rows(full_rows_.begin(), full_rows_.end());
    for (const rel::Row& row : old_rows) {
      EraseRow(row);
    }
    for (const rel::Row& row : extension->rows()) {
      InsertRow(row);
    }
    if (options_.transactional) {
      // Quarantined stores above got fresh segments; re-register.
      ASR_RETURN_IF_ERROR(RegisterTreeSegments());
    }
    return ParanoidValidate();
  }
  // Bulk path: solely-owned partition stores are reset to empty trees (their
  // shared_ptr identity survives, so catalog registrations stay valid) and
  // re-packed by sorted bulk load; shared stores must keep sibling ASRs'
  // contributions, so this ASR's old slices are retracted and the new ones
  // inserted tuple-at-a-time.
  std::vector<bool> fresh(partitions_.size(), false);
  std::vector<rel::Row> old_rows(full_rows_.begin(), full_rows_.end());
  for (size_t p = 0; p < partitions_.size(); ++p) {
    Partition& part = partitions_[p];
    if (part.store->owners == 1) {
      part.store->ResetTrees();
      part.store->quarantined = false;  // fresh trees are trustworthy
      fresh[p] = true;
      continue;
    }
    if (part.store->quarantined) {
      // The retraction below edits the trees, which are untrusted; restore
      // them from the (exact, in-memory) refcounts first.
      ASR_RETURN_IF_ERROR(part.store->RebuildTrees(options_.fill_factor));
    }
    for (const rel::Row& row : old_rows) {
      rel::Row slice = Slice(row, part.first, part.last);
      if (AllNull(slice)) continue;
      auto it = part.store->refcounts.find(slice);
      if (it == part.store->refcounts.end()) continue;
      if (--it->second == 0) {
        part.store->forward->Erase(slice);
        part.store->backward->Erase(slice);
        part.store->refcounts.erase(it);
      }
    }
  }
  full_rows_.clear();
  ASR_RETURN_IF_ERROR(LoadRows(extension->rows(), fresh));
  if (options_.transactional) {
    // ResetTrees/RebuildTrees gave stores fresh segments; their bulk-loaded
    // pages were written pre-registration (unversioned — no snapshot can
    // reference a segment that did not exist), and from here on they are
    // version-managed again.
    ASR_RETURN_IF_ERROR(RegisterTreeSegments());
  }
  return ParanoidValidate();
}

Result<rel::Relation> AccessSupportRelation::DumpPartition(size_t idx) {
  ASR_CHECK(idx < partitions_.size());
  Partition& part = partitions_[idx];
  rel::Relation out(part.last - part.first + 1);
  Status st = part.store->forward->ScanAll(
      [&](const std::vector<AsrKey>& row) -> Status {
        out.AddRow(row);
        return Status::OK();
      });
  ASR_RETURN_IF_ERROR(st);
  return out;
}

Status AccessSupportRelation::ValidateStructure() {
  for (size_t p = 0; p < partitions_.size(); ++p) {
    Partition& part = partitions_[p];
    btree::BTree* fwd = part.store->forward.get();
    btree::BTree* bwd = part.store->backward.get();
    const std::string site = "partition " + part.store->name;
    if (part.store->quarantined) {
      // The trees are untrusted and must not be read; the refcounts are the
      // live state, so only their internal sanity can be checked here.
      for (const auto& [slice, count] : part.store->refcounts) {
        (void)slice;
        if (count == 0) {
          return Status::Corruption(site + ": zero refcount retained");
        }
      }
      if (part.store->owners == 1) {
        std::set<rel::Row> expected;
        for (const rel::Row& row : full_rows_) {
          rel::Row slice = Slice(row, part.first, part.last);
          if (!AllNull(slice)) expected.insert(std::move(slice));
        }
        if (expected.size() != part.store->refcounts.size()) {
          return Status::Corruption(
              site + ": quarantined refcounts do not key the projection");
        }
        for (const rel::Row& slice : expected) {
          if (part.store->refcounts.find(slice) ==
              part.store->refcounts.end()) {
            return Status::Corruption(
                site + ": quarantined refcounts miss a projected slice");
          }
        }
      }
      continue;
    }
    ASR_RETURN_IF_ERROR(fwd->CheckIntegrity());
    ASR_RETURN_IF_ERROR(bwd->CheckIntegrity());
    if (fwd->tuple_count() != bwd->tuple_count()) {
      return Status::Corruption(
          site + ": forward tree holds " +
          std::to_string(fwd->tuple_count()) + " tuples, backward " +
          std::to_string(bwd->tuple_count()));
    }
    // The two redundant trees (§5.2) must store the same tuple set.
    std::set<rel::Row> fwd_rows;
    std::set<rel::Row> bwd_rows;
    ASR_RETURN_IF_ERROR(fwd->ScanAll([&](const rel::Row& row) -> Status {
      fwd_rows.insert(row);
      return Status::OK();
    }));
    ASR_RETURN_IF_ERROR(bwd->ScanAll([&](const rel::Row& row) -> Status {
      bwd_rows.insert(row);
      return Status::OK();
    }));
    if (fwd_rows != bwd_rows) {
      return Status::Corruption(site +
                                ": forward and backward trees disagree");
    }
    // Refcounts key exactly the distinct slices the trees hold.
    if (part.store->refcounts.size() != fwd_rows.size()) {
      return Status::Corruption(
          site + ": " + std::to_string(part.store->refcounts.size()) +
          " refcounted slices vs " + std::to_string(fwd_rows.size()) +
          " stored tuples");
    }
    for (const auto& [slice, count] : part.store->refcounts) {
      if (count == 0) {
        return Status::Corruption(site + ": zero refcount retained");
      }
      if (fwd_rows.count(slice) == 0) {
        return Status::Corruption(site +
                                  ": refcounted slice missing from trees");
      }
    }
    // A solely owned store is exactly the Def. 3.8 projection of this ASR's
    // relation (shared stores additionally hold sibling contributions).
    if (part.store->owners == 1) {
      std::set<rel::Row> expected;
      for (const rel::Row& row : full_rows_) {
        rel::Row slice = Slice(row, part.first, part.last);
        if (!AllNull(slice)) expected.insert(std::move(slice));
      }
      if (expected != fwd_rows) {
        return Status::Corruption(
            site + ": stored tuples are not the projection of the relation");
      }
    }
  }
  return Status::OK();
}

std::string AccessSupportRelation::Describe() const {
  std::string out = "ASR over " + path_.ToString() + "  extension=" +
                    ExtensionKindName(kind_) + "  decomposition=" +
                    decomposition_.ToString() + "\n";
  out += "  rows=" + std::to_string(full_rows_.size()) + "  pages=" +
         std::to_string(TotalPages()) + "\n";
  for (size_t p = 0; p < partitions_.size(); ++p) {
    const Partition& part = partitions_[p];
    out += "  partition [" + std::to_string(part.first) + ".." +
           std::to_string(part.last) + "]";
    if (part.store->owners > 1) {
      out += " (shared by " + std::to_string(part.store->owners) + " ASRs)";
    }
    out += ": tuples=" + std::to_string(part.store->forward->tuple_count()) +
           " leaf_pages=" +
           std::to_string(part.store->forward->leaf_page_count()) +
           "+" + std::to_string(part.store->backward->leaf_page_count()) +
           " height=" + std::to_string(part.store->forward->height()) +
           "\n";
  }
  return out;
}

uint64_t AccessSupportRelation::TotalPages() const {
  uint64_t pages = 0;
  for (const Partition& part : partitions_) {
    pages += part.store->TotalPages();
  }
  return pages;
}

void AccessSupportRelation::ExportMetrics(obs::MetricsRegistry* registry,
                                          const std::string& prefix) const {
  registry->Set(prefix + ".queries.forward", fwd_queries_);
  registry->Set(prefix + ".queries.backward", bwd_queries_);
  registry->Set(prefix + ".hops.lookup", hop_lookups_);
  registry->Set(prefix + ".hops.scan", hop_scans_);
  registry->SetHistogram(prefix + ".frontier_size", frontier_sizes_);
  registry->Set(prefix + ".maintenance.edge_inserts", maint_edge_inserts_);
  registry->Set(prefix + ".maintenance.edge_removes", maint_edge_removes_);
  registry->Set(prefix + ".rebuilds", rebuilds_);
  registry->Set(prefix + ".rebuild_rows", rebuild_rows_);
  registry->Set(prefix + ".hops.degraded", degraded_hops_);
  registry->Set(prefix + ".recoveries", recoveries_);
  registry->Set(prefix + ".repairs", repairs_);
  registry->Set(prefix + ".quarantined", quarantined_count());
  journal_.ExportMetrics(registry, prefix + ".journal");
  registry->Set(prefix + ".rows", full_rows_.size());
  registry->Set(prefix + ".pages", TotalPages());
  registry->Set(prefix + ".partitions", partitions_.size());
  for (size_t p = 0; p < partitions_.size(); ++p) {
    const Partition& part = partitions_[p];
    const std::string pp = prefix + ".partition." + part.store->name;
    registry->Set(pp + ".first_col", part.first);
    registry->Set(pp + ".last_col", part.last);
    registry->Set(pp + ".owners", part.store->owners);
    registry->Set(pp + ".quarantined", part.store->quarantined ? 1 : 0);
    registry->Set(pp + ".tuples", part.store->forward->tuple_count());
    registry->Set(pp + ".pages", part.store->TotalPages());
    part.store->forward->ExportMetrics(registry, pp + ".fwd");
    part.store->backward->ExportMetrics(registry, pp + ".bwd");
  }
}

}  // namespace asr
