// Tests for transactional ASR maintenance and consistent-epoch snapshot
// readers (asr/txn.cc, asr/snapshot.h): snapshot isolation across all four
// extension kinds against a fault-free twin, multi-writer maintenance over
// shared and disjoint partition stores (the TSan stress surface), clean
// Aborted resolution when retries exhaust, snapshot-pool recycling
// (version-tagged frames, the spare slot and its generation, Repair and
// torn-write faults, capacity-0 metering, readers churning against a
// writer), and the OpenSnapshot preconditions.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <functional>
#include <memory>
#include <mutex>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "asr/access_support_relation.h"
#include "asr/snapshot.h"
#include "paper_example.h"
#include "storage/fault_injector.h"
#include "storage/mvcc.h"

namespace asr {
namespace {

using testing::CompanyBase;
using testing::MakeCompanyBase;
using testing::MakeCompanyPath;

constexpr ExtensionKind kAllKinds[] = {
    ExtensionKind::kCanonical, ExtensionKind::kFull,
    ExtensionKind::kLeftComplete, ExtensionKind::kRightComplete};

AsrOptions TxnOptions() {
  AsrOptions options;
  options.transactional = true;
  options.txn_max_retries = 64;  // generous: stress tests must not flake
  options.txn_backoff_us = 20;
  return options;
}

// Every supported query of `asr`, evaluated from a fixed candidate frontier
// per path position, as one canonical sorted answer table. Two ASRs over
// isomorphic bases agree iff their tables are equal — the "bit-identical to
// the twin" oracle.
std::vector<std::vector<uint64_t>> AnswerTable(
    AccessSupportRelation* asr, const std::vector<std::vector<AsrKey>>& keys) {
  std::vector<std::vector<uint64_t>> table;
  const uint32_t n = asr->path().n();
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = i + 1; j <= n; ++j) {
      if (!asr->SupportsQuery(i, j)) continue;
      for (AsrKey start : keys[i]) {
        std::vector<uint64_t> row{i, j, 0, start.raw()};
        for (AsrKey k : asr->EvalForward(start, i, j).value()) {
          row.push_back(k.raw());
        }
        std::sort(row.begin() + 4, row.end());
        table.push_back(std::move(row));
      }
      for (AsrKey target : keys[j]) {
        std::vector<uint64_t> row{i, j, 1, target.raw()};
        for (AsrKey k : asr->EvalBackward(target, i, j).value()) {
          row.push_back(k.raw());
        }
        std::sort(row.begin() + 4, row.end());
        table.push_back(std::move(row));
      }
    }
  }
  return table;
}

// Snapshot variant of AnswerTable (AsrSnapshot mirrors the Eval contract).
std::vector<std::vector<uint64_t>> SnapshotAnswerTable(
    AsrSnapshot* snap, const AccessSupportRelation* asr,
    const std::vector<std::vector<AsrKey>>& keys) {
  std::vector<std::vector<uint64_t>> table;
  const uint32_t n = asr->path().n();
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = i + 1; j <= n; ++j) {
      if (!asr->SupportsQuery(i, j)) continue;
      for (AsrKey start : keys[i]) {
        std::vector<uint64_t> row{i, j, 0, start.raw()};
        for (AsrKey k : snap->EvalForward(start, i, j).value()) {
          row.push_back(k.raw());
        }
        std::sort(row.begin() + 4, row.end());
        table.push_back(std::move(row));
      }
      for (AsrKey target : keys[j]) {
        std::vector<uint64_t> row{i, j, 1, target.raw()};
        for (AsrKey k : snap->EvalBackward(target, i, j).value()) {
          row.push_back(k.raw());
        }
        std::sort(row.begin() + 4, row.end());
        table.push_back(std::move(row));
      }
    }
  }
  return table;
}

// The Company base's objects, one candidate frontier per path position.
std::vector<std::vector<AsrKey>> CompanyKeys(CompanyBase* base) {
  return {
      {base->Key(base->auto_division), base->Key(base->truck_division),
       base->Key(base->space_division)},
      {base->Key(base->sec560), base->Key(base->mbtrak),
       base->Key(base->sausage)},
      {base->Key(base->door), base->Key(base->pepper)},
      {base->Name("Door"), base->Name("Pepper")},
  };
}

// Compares every partition of `asr` against a from-scratch rebuild over the
// same store (built transactionally too, so stores get private pools).
void ExpectMatchesRebuild(gom::ObjectStore* store, AccessSupportRelation* asr,
                          const std::string& context) {
  auto rebuilt =
      AccessSupportRelation::Build(store, asr->path(), asr->kind(),
                                   asr->decomposition(), asr->options())
          .value();
  ASSERT_EQ(rebuilt->partition_count(), asr->partition_count());
  for (size_t p = 0; p < asr->partition_count(); ++p) {
    rel::Relation actual = asr->DumpPartition(p).value();
    rel::Relation expected = rebuilt->DumpPartition(p).value();
    EXPECT_TRUE(actual.EqualsAsSet(expected))
        << context << " partition " << p << "\nactual:\n"
        << actual.ToString() << "expected:\n"
        << expected.ToString();
  }
}

class MvccTxnTest : public ::testing::TestWithParam<ExtensionKind> {
 protected:
  MvccTxnTest() : base_(MakeCompanyBase()), path_(MakeCompanyPath(*base_)) {
    base_->disk.AttachMvcc(&mvcc_);
  }

  std::unique_ptr<AccessSupportRelation> BuildTxn(ExtensionKind kind) {
    return AccessSupportRelation::Build(base_->store.get(), path_, kind,
                                        Decomposition::Binary(3), TxnOptions())
        .value();
  }

  storage::MvccManager mvcc_;
  std::unique_ptr<CompanyBase> base_;
  PathExpression path_;
};

TEST_P(MvccTxnTest, TransactionalEdgeOpsMatchRebuild) {
  auto asr = BuildTxn(GetParam());
  gom::ObjectStore* store = base_->store.get();

  AsrKey sausage = base_->Key(base_->sausage);
  AsrKey pepper = base_->Key(base_->pepper);
  AsrKey door = base_->Key(base_->door);

  ASSERT_TRUE(store->AddToSet(base_->prodset_auto, sausage).ok());
  ASSERT_TRUE(asr->OnEdgeInserted(base_->auto_division, 0, sausage).ok());
  ExpectMatchesRebuild(store, asr.get(), "after insert p=0");

  ASSERT_TRUE(store->AddToSet(base_->parts_560, pepper).ok());
  ASSERT_TRUE(asr->OnEdgeInserted(base_->sec560, 1, pepper).ok());
  ExpectMatchesRebuild(store, asr.get(), "after insert p=1");

  ASSERT_TRUE(store->RemoveFromSet(base_->parts_560, door).ok());
  ASSERT_TRUE(asr->OnEdgeRemoved(base_->sec560, 1, door).ok());
  ExpectMatchesRebuild(store, asr.get(), "after remove p=1");

  EXPECT_EQ(asr->journal().committed(), 3u);
  EXPECT_EQ(asr->journal().aborted(), 0u);
  EXPECT_EQ(asr->journal().unresolved(), 0u);
  EXPECT_GE(mvcc_.committed_epoch(), 3u);
}

// The tentpole isolation property: a snapshot opened before maintenance
// answers every supported query exactly like a fault-free twin that never
// saw the ops — across all four extension kinds — while the live ASR moves
// on underneath it.
TEST_P(MvccTxnTest, SnapshotIsBitIdenticalToFaultFreeTwin) {
  auto asr = BuildTxn(GetParam());

  // The twin: an identical Company base (object creation is deterministic,
  // so keys compare raw-for-raw) that receives no maintenance.
  auto twin_base = MakeCompanyBase();
  auto twin = AccessSupportRelation::Build(
                  twin_base->store.get(), MakeCompanyPath(*twin_base),
                  GetParam(), Decomposition::Binary(3))
                  .value();

  auto snapshot = asr->OpenSnapshot().value();
  const storage::MvccEpoch pinned = snapshot->epoch();

  // Maintenance commits after the snapshot was pinned.
  gom::ObjectStore* store = base_->store.get();
  AsrKey sausage = base_->Key(base_->sausage);
  AsrKey pepper = base_->Key(base_->pepper);
  AsrKey door = base_->Key(base_->door);
  ASSERT_TRUE(store->AddToSet(base_->prodset_auto, sausage).ok());
  ASSERT_TRUE(asr->OnEdgeInserted(base_->auto_division, 0, sausage).ok());
  ASSERT_TRUE(store->AddToSet(base_->parts_560, pepper).ok());
  ASSERT_TRUE(asr->OnEdgeInserted(base_->sec560, 1, pepper).ok());
  ASSERT_TRUE(store->RemoveFromSet(base_->parts_560, door).ok());
  ASSERT_TRUE(asr->OnEdgeRemoved(base_->sec560, 1, door).ok());

  auto keys = CompanyKeys(base_.get());
  auto twin_keys = CompanyKeys(twin_base.get());
  EXPECT_EQ(SnapshotAnswerTable(snapshot.get(), asr.get(), keys),
            AnswerTable(twin.get(), twin_keys));
  EXPECT_EQ(snapshot->epoch(), pinned);

  // Sanity: the live ASR really did move — its answers differ from the
  // twin's (the inserted sausage/pepper paths are visible live).
  EXPECT_NE(AnswerTable(asr.get(), keys), AnswerTable(twin.get(), twin_keys));

  // A snapshot taken now sees the post-maintenance state.
  auto fresh = asr->OpenSnapshot().value();
  EXPECT_GT(fresh->epoch(), pinned);
  EXPECT_EQ(SnapshotAnswerTable(fresh.get(), asr.get(), keys),
            AnswerTable(asr.get(), keys));
}

TEST_P(MvccTxnTest, SnapshotSurvivesRebuild) {
  auto asr = BuildTxn(GetParam());
  auto keys = CompanyKeys(base_.get());
  auto before = AnswerTable(asr.get(), keys);

  auto snapshot = asr->OpenSnapshot().value();

  gom::ObjectStore* store = base_->store.get();
  AsrKey sausage = base_->Key(base_->sausage);
  ASSERT_TRUE(store->AddToSet(base_->prodset_auto, sausage).ok());
  ASSERT_TRUE(asr->OnEdgeInserted(base_->auto_division, 0, sausage).ok());
  // A full in-place rebuild reloads every partition mid-snapshot.
  ASSERT_TRUE(asr->Rebuild().ok());

  EXPECT_EQ(SnapshotAnswerTable(snapshot.get(), asr.get(), keys), before);
  EXPECT_NE(AnswerTable(asr.get(), keys), before);
  ExpectMatchesRebuild(store, asr.get(), "after rebuild under snapshot");
}

INSTANTIATE_TEST_SUITE_P(AllExtensions, MvccTxnTest,
                         ::testing::ValuesIn(kAllKinds),
                         [](const ::testing::TestParamInfo<ExtensionKind>& i) {
                           return ExtensionKindName(i.param);
                         });

// --- Snapshot-pool recycling ------------------------------------------------

// One base update plus its maintenance call: `member` joins or leaves the
// set `set`, which is attribute A_{p+1} of `owner`. Applied by name, so the
// same op lands identically on a base and its twin.
struct EdgeOp {
  bool insert;
  Oid CompanyBase::*set;
  Oid CompanyBase::*owner;
  uint32_t p;
  Oid CompanyBase::*member;
};

constexpr EdgeOp kInsSausage{true, &CompanyBase::prodset_auto,
                             &CompanyBase::auto_division, 0,
                             &CompanyBase::sausage};
constexpr EdgeOp kRemSausage{false, &CompanyBase::prodset_auto,
                             &CompanyBase::auto_division, 0,
                             &CompanyBase::sausage};
constexpr EdgeOp kInsPepper{true, &CompanyBase::parts_560,
                            &CompanyBase::sec560, 1, &CompanyBase::pepper};
constexpr EdgeOp kRemPepper{false, &CompanyBase::parts_560,
                            &CompanyBase::sec560, 1, &CompanyBase::pepper};
constexpr EdgeOp kInsDoor{true, &CompanyBase::parts_560, &CompanyBase::sec560,
                          1, &CompanyBase::door};
constexpr EdgeOp kRemDoor{false, &CompanyBase::parts_560,
                          &CompanyBase::sec560, 1, &CompanyBase::door};

// The base update of `op` alone.
Status UpdateBase(const EdgeOp& op, CompanyBase* base) {
  AsrKey member = base->Key(base->*op.member);
  gom::ObjectStore* store = base->store.get();
  return op.insert ? store->AddToSet(base->*op.set, member)
                   : store->RemoveFromSet(base->*op.set, member);
}

// The maintenance call of `op` alone.
Status Maintain(const EdgeOp& op, CompanyBase* base,
                AccessSupportRelation* asr) {
  AsrKey member = base->Key(base->*op.member);
  return op.insert ? asr->OnEdgeInserted(base->*op.owner, op.p, member)
                   : asr->OnEdgeRemoved(base->*op.owner, op.p, member);
}

Status ApplyEdgeOp(const EdgeOp& op, CompanyBase* base,
                   AccessSupportRelation* asr) {
  Status st = UpdateBase(op, base);
  if (!st.ok()) return st;
  return Maintain(op, base, asr);
}

// Page reads (all segments) that `fn` causes on `disk`.
template <typename Fn>
uint64_t ReadsDuring(storage::Disk* disk, Fn&& fn) {
  const uint64_t before = disk->stats().reads();
  fn();
  return disk->stats().reads() - before;
}

// Object-store pool capacity for the recycling tests: larger than every
// tree of the Company ASR together, so a warm snapshot pool holds it all.
constexpr size_t kPoolFrames = 64;

// A transactional ASR over a Company base with a real pool capacity (the
// snapshot pool inherits it), plus a fault-free twin that receives the same
// edge ops through the plain single-writer path: the answer oracle.
class SnapshotRecyclingTest : public ::testing::TestWithParam<ExtensionKind> {
 protected:
  SnapshotRecyclingTest()
      : base_(MakeCompanyBase(storage::DiskOptions::FromEnv(), kPoolFrames)),
        twin_base_(MakeCompanyBase()) {
    base_->disk.AttachMvcc(&mvcc_);
    asr_ = AccessSupportRelation::Build(base_->store.get(),
                                        MakeCompanyPath(*base_), GetParam(),
                                        Decomposition::Binary(3), TxnOptions())
               .value();
    twin_ = AccessSupportRelation::Build(twin_base_->store.get(),
                                         MakeCompanyPath(*twin_base_),
                                         GetParam(), Decomposition::Binary(3))
                .value();
    keys_ = CompanyKeys(base_.get());
    twin_keys_ = CompanyKeys(twin_base_.get());
  }

  void Apply(const EdgeOp& op) {
    ASSERT_TRUE(ApplyEdgeOp(op, base_.get(), asr_.get()).ok());
    ASSERT_TRUE(ApplyEdgeOp(op, twin_base_.get(), twin_.get()).ok());
  }
  std::vector<std::vector<uint64_t>> Snap(AsrSnapshot* snap) {
    return SnapshotAnswerTable(snap, asr_.get(), keys_);
  }
  std::vector<std::vector<uint64_t>> Twin() {
    return AnswerTable(twin_.get(), twin_keys_);
  }
  // Page reads of one full snapshot answer table.
  uint64_t TableReads(AsrSnapshot* snap) {
    return ReadsDuring(&base_->disk, [&] { Snap(snap); });
  }

  storage::MvccManager mvcc_;
  // Outlives base_, so a test that stops early never leaves the disk
  // pointing at a destroyed injector.
  storage::FaultInjector injector_;
  std::unique_ptr<CompanyBase> base_;
  std::unique_ptr<CompanyBase> twin_base_;
  std::unique_ptr<AccessSupportRelation> asr_;
  std::unique_ptr<AccessSupportRelation> twin_;
  std::vector<std::vector<AsrKey>> keys_;
  std::vector<std::vector<AsrKey>> twin_keys_;
};

// Consecutive snapshots with commits between them answer like the twin.
// Each round also builds the case a version tag exists for: a cold pool
// caches pages from retained versions (a commit landed after its epoch),
// goes back to the spare slot, and the next snapshot, at a later epoch,
// must re-resolve those frames to the current version instead of serving
// the old images.
TEST_P(SnapshotRecyclingTest, ConsecutiveSnapshotsMatchTwinAcrossCommits) {
  const EdgeOp ops[] = {kInsSausage, kInsPepper, kRemDoor,
                        kRemSausage, kInsDoor,   kRemPepper};
  { EXPECT_EQ(Snap(asr_->OpenSnapshot().value().get()), Twin()); }
  for (const EdgeOp& op : ops) {
    auto warm = asr_->OpenSnapshot().value();  // the spare pool
    auto cold = asr_->OpenSnapshot().value();  // slot empty: a cold pool
    const auto expected = Twin();
    Apply(op);
    EXPECT_GT(mvcc_.retained_pages(), 0u);
    // The cold pool now caches retained versions of the pages op changed.
    EXPECT_EQ(Snap(cold.get()), expected);
    EXPECT_EQ(Snap(warm.get()), expected);
    cold.reset();  // refills the slot
    warm.reset();  // slot full: freed
    auto next = asr_->OpenSnapshot().value();
    EXPECT_EQ(Snap(next.get()), Twin());
    EXPECT_EQ(Snap(next.get()), AnswerTable(asr_.get(), keys_));
  }
}

// Two overlapping snapshots at different epochs, one on the recycled pool
// and one on a cold pool, both answer their own epoch; whichever pool comes
// back first refills the slot.
TEST_P(SnapshotRecyclingTest, OverlappingRecycledAndColdSnapshots) {
  { Snap(asr_->OpenSnapshot().value().get()); }  // warm the spare pool
  auto recycled = asr_->OpenSnapshot().value();
  const auto at_recycled = Twin();
  Apply(kInsSausage);
  auto cold = asr_->OpenSnapshot().value();
  const auto at_cold = Twin();
  Apply(kInsPepper);
  EXPECT_NE(at_recycled, at_cold);
  for (int round = 0; round < 2; ++round) {
    EXPECT_EQ(Snap(recycled.get()), at_recycled);
    EXPECT_EQ(Snap(cold.get()), at_cold);
  }
  cold.reset();
  recycled.reset();
  auto next = asr_->OpenSnapshot().value();
  EXPECT_EQ(Snap(next.get()), Twin());
}

// Recover() and Repair() discard the spare pool, and a pool that was out
// during either call is freed when it comes back instead of re-entering the
// slot. Observable through page reads: with no commit in between, a
// recycled pool answers the whole table from its frames (0 reads), while a
// cold one reads every page again.
TEST_P(SnapshotRecyclingTest, PoolsDiscardedByRecoverAndRepair) {
  uint64_t cold_reads = 0;
  { cold_reads = TableReads(asr_->OpenSnapshot().value().get()); }
  ASSERT_GT(cold_reads, 0u);
  { EXPECT_EQ(TableReads(asr_->OpenSnapshot().value().get()), 0u); }

  const std::function<Status()> resets[] = {
      [&] { return asr_->Recover(); }, [&] { return asr_->Repair(); }};
  for (const auto& reset : resets) {
    // The pool is out (held by a live snapshot) during the call.
    auto held = asr_->OpenSnapshot().value();
    EXPECT_EQ(TableReads(held.get()), 0u);
    ASSERT_TRUE(reset().ok());
    EXPECT_EQ(Snap(held.get()), Twin());
    held.reset();
    { EXPECT_EQ(TableReads(asr_->OpenSnapshot().value().get()), cold_reads); }
    // The pool sits in the spare slot during the call.
    ASSERT_TRUE(reset().ok());
    { EXPECT_EQ(TableReads(asr_->OpenSnapshot().value().get()), cold_reads); }
    { EXPECT_EQ(TableReads(asr_->OpenSnapshot().value().get()), 0u); }
  }
}

// Repair() rebuilds a quarantined store's trees into fresh segments, which
// must be version-managed before a snapshot caches their pages: a later
// tuple-at-a-time Rebuild() rewrites those pages in place, and a recycled
// frame is trusted only while every change to its page gets a new version.
TEST_P(SnapshotRecyclingTest, RepairedTreesStayVersionedAcrossRebuild) {
  AsrOptions options = TxnOptions();
  options.bulk_load = false;  // Rebuild() rewrites pages in place
  asr_ = AccessSupportRelation::Build(base_->store.get(),
                                      MakeCompanyPath(*base_), GetParam(),
                                      Decomposition::Binary(3), options)
             .value();
  // The object base is durable; Recover() drops every cached frame.
  ASSERT_TRUE(base_->buffers.FlushAll().ok());
  // A zeroed page with a valid checksum fails triage structurally.
  const uint32_t seg = asr_->partition_store(0)->forward->segment();
  ASSERT_TRUE(
      base_->disk.WritePage(storage::PageId{seg, 0}, storage::Page{}).ok());
  ASSERT_TRUE(asr_->Recover().ok());
  ASSERT_TRUE(asr_->degraded());
  ASSERT_TRUE(asr_->Repair().ok());
  // The spare pool now caches the repaired trees' pages.
  { EXPECT_EQ(Snap(asr_->OpenSnapshot().value().get()), Twin()); }

  // The object base moves without edge maintenance; Rebuild() re-derives.
  for (const EdgeOp& op : {kInsSausage, kInsPepper, kRemDoor}) {
    ASSERT_TRUE(UpdateBase(op, base_.get()).ok());
    ASSERT_TRUE(ApplyEdgeOp(op, twin_base_.get(), twin_.get()).ok());
  }
  ASSERT_TRUE(asr_->Rebuild().ok());
  auto next = asr_->OpenSnapshot().value();
  EXPECT_EQ(Snap(next.get()), Twin());
  EXPECT_EQ(Snap(next.get()), AnswerTable(asr_.get(), keys_));
}

// A torn write lands in full on the backend and still fails, so its page
// changes without a new version. The failed operation frees the spare pool
// and starts a new generation, whether the pool sat in the slot or was out
// with a snapshot held across the failure; that snapshot keeps serving the
// images it cached, which are the last committed ones (under ASR_PARANOID
// the cold-read cross-check stands down while the disk is crashed).
TEST_P(SnapshotRecyclingTest, TornCommitDiscardsRecycledPools) {
  base_->disk.set_fault_injector(&injector_);
  for (const EdgeOp& op : {kInsPepper, kRemPepper}) {
    const bool held_across = op.insert;
    { Snap(asr_->OpenSnapshot().value().get()); }  // warm the spare pool
    std::unique_ptr<AsrSnapshot> held;
    const auto committed = Twin();
    if (held_across) {
      held = asr_->OpenSnapshot().value();
      EXPECT_EQ(TableReads(held.get()), 0u);  // every page a recycled hit
    }

    // The base update is durable; the maintenance commit tears.
    ASSERT_TRUE(UpdateBase(op, base_.get()).ok());
    ASSERT_TRUE(base_->buffers.FlushAll().ok());
    storage::FaultSpec spec;
    spec.kind = storage::FaultKind::kTornWrite;
    spec.segment_prefix = "btree:";
    injector_.Arm(spec);
    const Status st = Maintain(op, base_.get(), asr_.get());
    ASSERT_TRUE(injector_.fired());
    EXPECT_TRUE(st.IsIOError()) << st.ToString();
    if (held_across) {
      EXPECT_EQ(Snap(held.get()), committed);
      held.reset();  // freed: its generation ended with the failure
    }
    // The epoch did not move, so a recycled pool would read nothing.
    { EXPECT_GT(TableReads(asr_->OpenSnapshot().value().get()), 0u); }

    // Restart: recovery re-derives the trees from the object base.
    ASSERT_TRUE(ApplyEdgeOp(op, twin_base_.get(), twin_.get()).ok());
    ASSERT_TRUE(asr_->Recover().ok());
    ASSERT_TRUE(asr_->Repair().ok());
    ASSERT_FALSE(injector_.crashed());
    { EXPECT_EQ(Snap(asr_->OpenSnapshot().value().get()), Twin()); }
    { EXPECT_EQ(Snap(asr_->OpenSnapshot().value().get()), Twin()); }
  }
}

INSTANTIATE_TEST_SUITE_P(AllExtensions, SnapshotRecyclingTest,
                         ::testing::ValuesIn(kAllKinds),
                         [](const ::testing::TestParamInfo<ExtensionKind>& i) {
                           return ExtensionKindName(i.param);
                         });

// The metering contract: at buffer capacity 0 (the paper-facing setting)
// a pool keeps no unpinned frame, so a recycled snapshot pool charges every
// query exactly the page reads of a never-recycled one.
TEST_P(MvccTxnTest, CapacityZeroRecycledSnapshotMetersLikeCold) {
  auto asr = BuildTxn(GetParam());
  auto keys = CompanyKeys(base_.get());
  { SnapshotAnswerTable(asr->OpenSnapshot().value().get(), asr.get(), keys); }
  ASSERT_TRUE(ApplyEdgeOp(kInsSausage, base_.get(), asr.get()).ok());

  auto recycled = asr->OpenSnapshot().value();
  auto cold = asr->OpenSnapshot().value();
  ASSERT_EQ(recycled->epoch(), cold->epoch());
  auto per_query_reads = [&](AsrSnapshot* snap) {
    std::vector<uint64_t> reads;
    const uint32_t n = asr->path().n();
    for (uint32_t i = 0; i < n; ++i) {
      for (uint32_t j = i + 1; j <= n; ++j) {
        if (!asr->SupportsQuery(i, j)) continue;
        for (AsrKey start : keys[i]) {
          reads.push_back(ReadsDuring(&base_->disk, [&] {
            ASSERT_TRUE(snap->EvalForward(start, i, j).ok());
          }));
        }
        for (AsrKey target : keys[j]) {
          reads.push_back(ReadsDuring(&base_->disk, [&] {
            ASSERT_TRUE(snap->EvalBackward(target, i, j).ok());
          }));
        }
      }
    }
    return reads;
  };
  const std::vector<uint64_t> recycled_reads = per_query_reads(recycled.get());
  EXPECT_EQ(recycled_reads, per_query_reads(cold.get()));
  EXPECT_GT(std::accumulate(recycled_reads.begin(), recycled_reads.end(),
                            uint64_t{0}),
            0u);
}

// Two writers on ONE transactional ASR: every operation claims all its
// partition stores, so the writers serialize through Aborted-claim retries
// with backoff. Both must succeed on every op and the final trees must match
// a rebuild. (The edges touch disjoint row sets, so the object-store reads
// inside each maintenance op are unaffected by the other writer's churn.)
TEST(MvccTxnConcurrencyTest, SharedStoreWritersSerializeViaRetry) {
  auto base = MakeCompanyBase();
  storage::MvccManager mvcc;
  base->disk.AttachMvcc(&mvcc);
  auto asr = AccessSupportRelation::Build(
                 base->store.get(), MakeCompanyPath(*base),
                 ExtensionKind::kCanonical, Decomposition::Binary(3),
                 TxnOptions())
                 .value();
  gom::ObjectStore* store = base->store.get();

  constexpr int kIters = 25;
  std::thread writer_a([&] {
    AsrKey sausage = AsrKey::FromOid(base->sausage);
    for (int i = 0; i < kIters; ++i) {
      ASSERT_TRUE(store->AddToSet(base->prodset_auto, sausage).ok());
      ASSERT_TRUE(
          asr->OnEdgeInserted(base->auto_division, 0, sausage).ok());
      ASSERT_TRUE(store->RemoveFromSet(base->prodset_auto, sausage).ok());
      ASSERT_TRUE(asr->OnEdgeRemoved(base->auto_division, 0, sausage).ok());
    }
  });
  std::thread writer_b([&] {
    AsrKey pepper = AsrKey::FromOid(base->pepper);
    for (int i = 0; i < kIters; ++i) {
      ASSERT_TRUE(store->AddToSet(base->parts_560, pepper).ok());
      ASSERT_TRUE(asr->OnEdgeInserted(base->sec560, 1, pepper).ok());
      ASSERT_TRUE(store->RemoveFromSet(base->parts_560, pepper).ok());
      ASSERT_TRUE(asr->OnEdgeRemoved(base->sec560, 1, pepper).ok());
    }
  });
  writer_a.join();
  writer_b.join();

  EXPECT_EQ(asr->journal().committed(), 4u * kIters);
  EXPECT_EQ(asr->journal().unresolved(), 0u);
  EXPECT_EQ(asr->journal().aborted(), 0u);
  ExpectMatchesRebuild(store, asr.get(), "after concurrent shared-store ops");
}

// N writers over DISJOINT partitions: one shared base, one anchored
// transactional ASR per writer over its own private subgraph. Claims never
// collide; the conflict surface shrinks to the storage commit lock. Under
// -DASR_SANITIZE=thread this is the multi-writer race check. ASR_WRITERS
// picks the fleet size (default 4).
TEST(MvccTxnConcurrencyTest, DisjointAnchoredWritersRunConcurrently) {
  int writers = 4;
  if (const char* env = std::getenv("ASR_WRITERS")) {
    writers = std::max(2, std::min(8, std::atoi(env)));
  }

  auto base = MakeCompanyBase();
  storage::MvccManager mvcc;
  base->disk.AttachMvcc(&mvcc);
  gom::ObjectStore* store = base->store.get();
  TypeId division_set =
      base->schema.DefineSetType("DivisionSET", base->division_type).value();

  // Writer k's private chain: division -> prodset -> product -> partset
  // -> base part, plus a second base part whose edge the writer churns.
  struct Chain {
    Oid division, prodset, product, partset, part_a, part_b, anchor;
  };
  std::vector<Chain> chains(static_cast<size_t>(writers));
  for (int k = 0; k < writers; ++k) {
    Chain& c = chains[k];
    c.division = store->CreateObject(base->division_type).value();
    c.prodset = store->CreateSet(base->prodset_type).value();
    c.product = store->CreateObject(base->product_type).value();
    c.partset = store->CreateSet(base->basepartset_type).value();
    c.part_a = store->CreateObject(base->basepart_type).value();
    c.part_b = store->CreateObject(base->basepart_type).value();
    std::string tag = std::to_string(k);
    ASSERT_TRUE(store->SetString(c.division, "Name", "Div" + tag).ok());
    ASSERT_TRUE(store->SetRef(c.division, "Manufactures", c.prodset).ok());
    ASSERT_TRUE(
        store->AddToSet(c.prodset, AsrKey::FromOid(c.product)).ok());
    ASSERT_TRUE(store->SetString(c.product, "Name", "Prod" + tag).ok());
    ASSERT_TRUE(store->SetRef(c.product, "Composition", c.partset).ok());
    ASSERT_TRUE(
        store->AddToSet(c.partset, AsrKey::FromOid(c.part_a)).ok());
    ASSERT_TRUE(store->SetString(c.part_a, "Name", "PartA" + tag).ok());
    ASSERT_TRUE(store->SetString(c.part_b, "Name", "PartB" + tag).ok());
    c.anchor = store->CreateSet(division_set).value();
    ASSERT_TRUE(
        store->AddToSet(c.anchor, AsrKey::FromOid(c.division)).ok());
  }

  PathExpression path = MakeCompanyPath(*base);
  std::vector<std::unique_ptr<AccessSupportRelation>> asrs;
  for (int k = 0; k < writers; ++k) {
    AsrOptions options = TxnOptions();
    options.anchor_collection = chains[k].anchor;
    // Canonical: an anchored ASR materializes only complete paths from its
    // own anchor, so the writers' extensions are truly disjoint. (Full /
    // right-complete would put every writer's dangling right fragments into
    // every ASR and re-impose the §5.4 maintain-all contract.)
    asrs.push_back(AccessSupportRelation::Build(store, path,
                                                ExtensionKind::kCanonical,
                                                Decomposition::Binary(3),
                                                options)
                       .value());
  }

  constexpr int kIters = 20;
  std::vector<std::thread> fleet;
  for (int k = 0; k < writers; ++k) {
    fleet.emplace_back([&, k] {
      const Chain& c = chains[k];
      AccessSupportRelation* asr = asrs[k].get();
      AsrKey part_b = AsrKey::FromOid(c.part_b);
      for (int i = 0; i < kIters; ++i) {
        ASSERT_TRUE(store->AddToSet(c.partset, part_b).ok());
        ASSERT_TRUE(asr->OnEdgeInserted(c.product, 1, part_b).ok());
        if (i + 1 < kIters) {
          ASSERT_TRUE(store->RemoveFromSet(c.partset, part_b).ok());
          ASSERT_TRUE(asr->OnEdgeRemoved(c.product, 1, part_b).ok());
        }
      }
    });
  }
  for (std::thread& t : fleet) t.join();

  // Every writer's last insert stuck; every ASR matches its own rebuild and
  // still answers its anchored queries.
  for (int k = 0; k < writers; ++k) {
    const Chain& c = chains[k];
    AccessSupportRelation* asr = asrs[k].get();
    EXPECT_EQ(asr->journal().committed(),
              static_cast<uint64_t>(2 * kIters - 1));
    EXPECT_EQ(asr->journal().unresolved(), 0u);
    auto fwd = asr->EvalForward(AsrKey::FromOid(c.division), 0, 3).value();
    std::set<uint64_t> names;
    for (AsrKey key : fwd) names.insert(key.raw());
    std::string tag = std::to_string(k);
    EXPECT_TRUE(names.count(
        AsrKey::FromString("PartB" + tag, store->string_dict()).raw()))
        << "writer " << k;
    ExpectMatchesRebuild(store, asr,
                         "writer " + std::to_string(k) + " final state");
  }
  EXPECT_GE(mvcc.committed_epoch(),
            static_cast<uint64_t>(writers) * (2 * kIters - 1));
}

// When every retry loses its claim, the operation resolves as a clean abort:
// Aborted to the caller, journal entry 'aborted' (not lost — recovery owes
// nothing), and the ASR unchanged. Releasing the claim and re-issuing
// converges to the rebuilt state.
TEST(MvccTxnConcurrencyTest, ExhaustedRetriesAbortCleanly) {
  auto base = MakeCompanyBase();
  storage::MvccManager mvcc;
  base->disk.AttachMvcc(&mvcc);
  AsrOptions options = TxnOptions();
  options.txn_max_retries = 2;
  options.txn_backoff_us = 1;
  auto asr = AccessSupportRelation::Build(
                 base->store.get(), MakeCompanyPath(*base),
                 ExtensionKind::kCanonical, Decomposition::Binary(3), options)
                 .value();
  gom::ObjectStore* store = base->store.get();
  AsrKey sausage = AsrKey::FromOid(base->sausage);
  ASSERT_TRUE(store->AddToSet(base->prodset_auto, sausage).ok());

  auto keys = CompanyKeys(base.get());
  auto before = AnswerTable(asr.get(), keys);
  {
    // A rival writer parks on one partition claim for the whole duration.
    std::unique_lock<std::mutex> rival(
        asr->partition_store(0)->claim_mu);
    Status st;
    std::thread writer([&] {
      st = asr->OnEdgeInserted(base->auto_division, 0, sausage);
    });
    writer.join();
    EXPECT_TRUE(st.IsAborted()) << st.ToString();
  }
  EXPECT_EQ(asr->journal().aborted(), 1u);
  EXPECT_EQ(asr->journal().lost(), 0u);
  EXPECT_EQ(asr->journal().unresolved(), 0u);
  EXPECT_EQ(AnswerTable(asr.get(), keys), before);

  // Re-issue with the claim free: converges.
  ASSERT_TRUE(asr->OnEdgeInserted(base->auto_division, 0, sausage).ok());
  ExpectMatchesRebuild(store, asr.get(), "after abort then retry");
}

// Two snapshot readers churn open/query/release (sharing, and racing for,
// the one spare pool) against a transactional writer. Each reader's answers
// stay stable within its snapshot and always equal one of the states the
// writer's cycle passes through. Under -DASR_SANITIZE=thread this is the
// recycling race check.
TEST(MvccTxnConcurrencyTest, SnapshotReadersChurnAgainstWriter) {
  auto base = MakeCompanyBase(storage::DiskOptions::FromEnv(), kPoolFrames);
  storage::MvccManager mvcc;
  base->disk.AttachMvcc(&mvcc);
  auto asr = AccessSupportRelation::Build(
                 base->store.get(), MakeCompanyPath(*base),
                 ExtensionKind::kCanonical, Decomposition::Binary(3),
                 TxnOptions())
                 .value();
  const auto keys = CompanyKeys(base.get());

  // Every state of the writer's cycle, from a single-threaded twin.
  const EdgeOp cycle[] = {kInsSausage, kInsPepper, kRemSausage, kRemPepper};
  auto twin_base = MakeCompanyBase();
  auto twin = AccessSupportRelation::Build(
                  twin_base->store.get(), MakeCompanyPath(*twin_base),
                  ExtensionKind::kCanonical, Decomposition::Binary(3))
                  .value();
  const auto twin_keys = CompanyKeys(twin_base.get());
  std::set<std::vector<std::vector<uint64_t>>> legal;
  for (const EdgeOp& op : cycle) {
    ASSERT_TRUE(ApplyEdgeOp(op, twin_base.get(), twin.get()).ok());
    legal.insert(AnswerTable(twin.get(), twin_keys));
  }
  ASSERT_GE(legal.size(), 2u);  // the writer really moves the answers

  std::atomic<bool> done{false};
  std::atomic<int> writer_failures{0};
  std::thread writer([&] {
    for (int i = 0; i < 20; ++i) {
      for (const EdgeOp& op : cycle) {
        if (!ApplyEdgeOp(op, base.get(), asr.get()).ok()) ++writer_failures;
      }
    }
    done = true;
  });
  auto reader = [&] {
    for (int rounds = 0; rounds < 8 || !done; ++rounds) {
      auto snap = asr->OpenSnapshot();
      ASSERT_TRUE(snap.ok()) << snap.status().ToString();
      const auto first = SnapshotAnswerTable(snap->get(), asr.get(), keys);
      std::this_thread::yield();
      EXPECT_EQ(SnapshotAnswerTable(snap->get(), asr.get(), keys), first);
      EXPECT_EQ(legal.count(first), 1u);
    }
  };
  std::thread reader_a(reader);
  std::thread reader_b(reader);
  writer.join();
  reader_a.join();
  reader_b.join();
  EXPECT_EQ(writer_failures.load(), 0);
  EXPECT_EQ(asr->journal().committed(), 80u);
  auto last = asr->OpenSnapshot().value();
  EXPECT_EQ(SnapshotAnswerTable(last.get(), asr.get(), keys),
            AnswerTable(twin.get(), twin_keys));
}

TEST(MvccTxnPreconditionTest, OpenSnapshotRequiresTransactionalMode) {
  auto base = MakeCompanyBase();
  storage::MvccManager mvcc;
  base->disk.AttachMvcc(&mvcc);
  auto asr = AccessSupportRelation::Build(base->store.get(),
                                          MakeCompanyPath(*base),
                                          ExtensionKind::kCanonical,
                                          Decomposition::Binary(3))
                 .value();
  Status st = asr->OpenSnapshot().status();
  EXPECT_TRUE(st.IsNotSupported()) << st.ToString();
}

TEST(MvccTxnPreconditionTest, TransactionalBuildRequiresMvccManager) {
  auto base = MakeCompanyBase();  // no manager attached
  auto built = AccessSupportRelation::Build(
      base->store.get(), MakeCompanyPath(*base), ExtensionKind::kCanonical,
      Decomposition::Binary(3), TxnOptions());
  ASSERT_FALSE(built.ok());
  EXPECT_TRUE(built.status().IsNotSupported()) << built.status().ToString();
}

TEST(MvccTxnPreconditionTest, FromEnvReadsRetryKnobs) {
  setenv("ASR_TXN_RETRIES", "17", 1);
  setenv("ASR_TXN_BACKOFF_US", "250", 1);
  AsrOptions options = AsrOptions::FromEnv();
  EXPECT_EQ(options.txn_max_retries, 17u);
  EXPECT_EQ(options.txn_backoff_us, 250u);
  unsetenv("ASR_TXN_RETRIES");
  unsetenv("ASR_TXN_BACKOFF_US");
  AsrOptions defaults = AsrOptions::FromEnv();
  EXPECT_EQ(defaults.txn_max_retries, AsrOptions{}.txn_max_retries);
  EXPECT_EQ(defaults.txn_backoff_us, AsrOptions{}.txn_backoff_us);
}

}  // namespace
}  // namespace asr
