// Corruption-injection suite for the invariant checker (src/check/).
//
// Every test builds a healthy ASR, injects one targeted corruption through
// the lowest-level interface that can express it — scribbling B+ tree leaf
// bytes, desynchronizing the two per-partition trees, mutating the object
// base behind the maintenance hooks' back, corrupting a slotted-page header
// — and asserts that the checker reports the violation in the *right*
// category. A final suite verifies the zero-violation clean pass over all
// four extension kinds and several decompositions.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "asr/access_support_relation.h"
#include "check/check_report.h"
#include "check/invariant_checker.h"
#include "paper_example.h"
#include "storage/slotted_page.h"
#include "workload/synthetic_base.h"

namespace asr {
namespace {

using check::Category;
using check::CheckOptions;
using check::CheckReport;
using check::InvariantChecker;
using testing::CompanyBase;
using testing::MakeCompanyBase;
using testing::MakeCompanyPath;

std::unique_ptr<workload::SyntheticBase> MakeTinyBase(uint64_t seed) {
  cost::ApplicationProfile profile;
  profile.n = 3;
  profile.c = {15, 25, 35, 20};
  profile.d = {12, 20, 28};
  profile.fan = {2, 1, 2};
  profile.size = {120, 120, 120, 120};
  return workload::SyntheticBase::Generate(profile, {seed, 64}).value();
}

// --- CheckReport -----------------------------------------------------------

TEST(CheckReportTest, AccumulatesAndSerializes) {
  CheckReport report;
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.ToString(), "clean");

  report.Add(Category::kBTreeStructure, "partition p0 fwd", "out of order");
  report.Add(Category::kLosslessness, "rel", "row lost");
  EXPECT_FALSE(report.clean());
  EXPECT_EQ(report.total(), 2u);
  EXPECT_EQ(report.count(Category::kBTreeStructure), 1u);
  EXPECT_EQ(report.count(Category::kRefcount), 0u);

  std::string json = report.ToJson();
  EXPECT_NE(json.find("\"clean\":false"), std::string::npos) << json;
  EXPECT_NE(json.find("\"btree_structure\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"losslessness\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("row lost"), std::string::npos) << json;
}

TEST(CheckReportTest, RecordingIsCappedPerCategory) {
  CheckReport report;
  for (int i = 0; i < 1000; ++i) {
    report.Add(Category::kRefcount, "site",
               std::string("v").append(std::to_string(i)));
  }
  EXPECT_EQ(report.total(), 1000u);
  EXPECT_EQ(report.count(Category::kRefcount), 1000u);
  EXPECT_EQ(report.violations().size(), CheckReport::kMaxRecordedPerCategory);
  EXPECT_NE(report.ToString().find("not recorded"), std::string::npos);
}

// --- clean pass ------------------------------------------------------------

TEST(CheckCleanTest, AllKindsAndDecompositionsPassOnAHealthyBase) {
  auto base = MakeTinyBase(17);
  InvariantChecker checker;

  CheckReport store_report;
  checker.CheckObjectStore(base->store(), &store_report);
  EXPECT_TRUE(store_report.clean()) << store_report.ToString();

  const uint32_t m = base->path().n();
  for (ExtensionKind kind :
       {ExtensionKind::kCanonical, ExtensionKind::kFull,
        ExtensionKind::kLeftComplete, ExtensionKind::kRightComplete}) {
    for (const Decomposition& dec :
         {Decomposition::None(m), Decomposition::Binary(m),
          Decomposition::Of({0, 2, 3}, m).value()}) {
      auto asr = AccessSupportRelation::Build(base->store(), base->path(),
                                              kind, dec)
                     .value();
      CheckReport report;
      checker.CheckAsr(asr.get(), &report);
      EXPECT_TRUE(report.clean())
          << ExtensionKindName(kind) << " " << dec.ToString() << "\n"
          << report.ToString();
    }
  }
}

TEST(CheckCleanTest, PaperCompanyBasePasses) {
  auto base = MakeCompanyBase();
  PathExpression path = MakeCompanyPath(*base);
  InvariantChecker checker;

  CheckReport store_report;
  checker.CheckObjectStore(base->store.get(), &store_report);
  EXPECT_TRUE(store_report.clean()) << store_report.ToString();

  for (ExtensionKind kind :
       {ExtensionKind::kCanonical, ExtensionKind::kFull,
        ExtensionKind::kLeftComplete, ExtensionKind::kRightComplete}) {
    auto asr = AccessSupportRelation::Build(base->store.get(), path, kind,
                                            Decomposition::Binary(path.n()))
                   .value();
    CheckReport report;
    checker.CheckAsr(asr.get(), &report);
    EXPECT_TRUE(report.clean())
        << ExtensionKindName(kind) << "\n" << report.ToString();
  }
}

// --- injected corruption: B+ tree structure --------------------------------

// Swapping two adjacent leaf entries wholesale preserves the stored tuple
// *set* (so no desync, no membership drift) but breaks the leaf key order —
// the checker must localize it as a btree_structure violation and nothing
// semantic.
TEST(CheckCorruptionTest, SwappedLeafEntriesAreBTreeStructure) {
  auto base = MakeTinyBase(23);
  auto asr = AccessSupportRelation::Build(
                 base->store(), base->path(), ExtensionKind::kFull,
                 Decomposition::None(base->path().n()))
                 .value();

  PartitionStore* store = asr->partition_store(0).get();
  btree::BTree* tree = store->forward.get();
  const uint32_t entry_bytes = 8 + 8 * tree->width();

  uint32_t victim_leaf = UINT32_MAX;
  ASSERT_TRUE(tree->ForEachLeaf([&](uint32_t page_no, uint16_t count) {
                    if (victim_leaf == UINT32_MAX && count >= 2) {
                      victim_leaf = page_no;
                    }
                    return Status::OK();
                  })
                  .ok());
  ASSERT_NE(victim_leaf, UINT32_MAX) << "no leaf with two entries";

  {
    storage::PageGuard guard =
        store->buffers->Pin(storage::PageId{tree->segment(), victim_leaf});
    std::vector<std::byte> first(entry_bytes);
    std::vector<std::byte> second(entry_bytes);
    guard.page().ReadBytes(8, first.data(), entry_bytes);
    guard.page().ReadBytes(8 + entry_bytes, second.data(), entry_bytes);
    guard.page().WriteBytes(8, second.data(), entry_bytes);
    guard.page().WriteBytes(8 + entry_bytes, first.data(), entry_bytes);
    guard.MarkDirty();
  }

  CheckReport report;
  InvariantChecker checker;
  checker.CheckAsr(asr.get(), &report);
  EXPECT_GE(report.count(Category::kBTreeStructure), 1u)
      << report.ToString();
}

// --- injected corruption: partition desync ---------------------------------

// Erasing a tuple from the first-column tree only leaves the two redundant
// trees of §5.2 disagreeing; the refcount table still references the erased
// slice.
TEST(CheckCorruptionTest, OneSidedEraseIsPartitionDesync) {
  auto base = MakeTinyBase(29);
  auto asr = AccessSupportRelation::Build(
                 base->store(), base->path(), ExtensionKind::kCanonical,
                 Decomposition::Binary(base->path().n()))
                 .value();

  PartitionStore* store = asr->partition_store(1).get();
  rel::Relation dump = asr->DumpPartition(1).value();
  ASSERT_FALSE(dump.rows().empty());
  const rel::Row victim = dump.rows().front();
  ASSERT_TRUE(store->forward->Erase(victim));

  CheckReport report;
  InvariantChecker checker;
  checker.CheckAsr(asr.get(), &report);
  EXPECT_GE(report.count(Category::kPartitionDesync), 1u)
      << report.ToString();
  EXPECT_GE(report.count(Category::kRefcount), 1u) << report.ToString();
}

// --- injected corruption: extension membership -----------------------------

// Mutating the object base behind the maintenance hooks' back is the
// canonical "silently dropped partial path": the stored left-complete
// extension keeps MB Trak's dead-end row and misses the new complete paths,
// both of which only the semantic recompute can see.
TEST(CheckCorruptionTest, UnmaintainedBaseMutationIsMembershipDrift) {
  auto base = MakeCompanyBase();
  PathExpression path = MakeCompanyPath(*base);
  auto asr = AccessSupportRelation::Build(base->store.get(), path,
                                          ExtensionKind::kLeftComplete,
                                          Decomposition::None(path.n()))
                 .value();

  // MB Trak gains a composition the ASR never hears about.
  ASSERT_TRUE(base->store
                  ->SetRef(base->mbtrak, "Composition", base->parts_unused)
                  .ok());

  CheckReport report;
  InvariantChecker checker;
  checker.CheckAsr(asr.get(), &report);
  EXPECT_GE(report.count(Category::kExtensionMembership), 1u)
      << report.ToString();

  // With the semantic recompute disabled the drift is invisible — the
  // stored structures are internally consistent.
  CheckReport structural_only;
  CheckOptions opts;
  opts.semantic = false;
  InvariantChecker structural(opts);
  structural.CheckAsr(asr.get(), &structural_only);
  EXPECT_TRUE(structural_only.clean()) << structural_only.ToString();
}

// A canonical extension must hold complete paths only (Def. 3.4). Insert a
// NULL-padded slice consistently into both trees and the refcounts: every
// structural layer stays green, but the shape rule flags it.
TEST(CheckCorruptionTest, PartialPathInCanonicalIsMembershipViolation) {
  auto base = MakeCompanyBase();
  PathExpression path = MakeCompanyPath(*base);
  auto asr = AccessSupportRelation::Build(base->store.get(), path,
                                          ExtensionKind::kCanonical,
                                          Decomposition::None(path.n()))
                 .value();

  PartitionStore* store = asr->partition_store(0).get();
  rel::Row bogus(store->width, AsrKey());
  bogus[0] = base->Key(base->space_division);  // (i3, NULL, ..., NULL)
  ASSERT_TRUE(store->forward->Insert(bogus));
  ASSERT_TRUE(store->backward->Insert(bogus));
  store->refcounts[bogus] = 1;

  CheckReport report;
  InvariantChecker checker;
  checker.CheckAsr(asr.get(), &report);
  EXPECT_GE(report.count(Category::kExtensionMembership), 1u)
      << report.ToString();
  EXPECT_EQ(report.count(Category::kPartitionDesync), 0u)
      << report.ToString();
}

// --- injected corruption: losslessness -------------------------------------

// Consistently deleting one slice from a middle partition (both trees and
// the refcounts) leaves every tree healthy and the shape rules satisfied,
// but the natural re-join of Theorem 3.9 loses the rows that ran through
// the slice — and the partition stops being the Def. 3.8 projection.
TEST(CheckCorruptionTest, ConsistentSliceLossIsLosslessnessViolation) {
  auto base = MakeTinyBase(31);
  auto asr = AccessSupportRelation::Build(
                 base->store(), base->path(), ExtensionKind::kCanonical,
                 Decomposition::Binary(base->path().n()))
                 .value();

  PartitionStore* store = asr->partition_store(1).get();
  rel::Relation dump = asr->DumpPartition(1).value();
  ASSERT_FALSE(dump.rows().empty());
  const rel::Row victim = dump.rows().front();
  ASSERT_TRUE(store->forward->Erase(victim));
  ASSERT_TRUE(store->backward->Erase(victim));
  store->refcounts.erase(victim);

  CheckReport report;
  CheckOptions opts;
  opts.semantic = false;  // isolate the decomposition-level detection
  InvariantChecker checker(opts);
  checker.CheckAsr(asr.get(), &report);
  EXPECT_GE(report.count(Category::kLosslessness), 1u) << report.ToString();
  EXPECT_EQ(report.count(Category::kPartitionDesync), 0u)
      << report.ToString();
  EXPECT_EQ(report.count(Category::kBTreeStructure), 0u)
      << report.ToString();
}

// --- injected corruption: slotted page -------------------------------------

// Scribbling a slotted-page header (free_end beyond the page) must be caught
// by the storage-layer sweep of CheckObjectStore.
TEST(CheckCorruptionTest, CorruptSlottedPageHeaderIsDetected) {
  auto base = MakeCompanyBase();
  const int64_t segment = base->store->SegmentOf(base->division_type);
  ASSERT_GE(segment, 0);

  {
    storage::PageGuard guard = base->buffers.Pin(
        storage::PageId{static_cast<uint32_t>(segment), 0});
    guard.page().Write<uint16_t>(2, storage::kPageSize + 17);
    guard.MarkDirty();
  }

  CheckReport report;
  InvariantChecker checker;
  checker.CheckSlottedPage(
      base->buffers.Pin(storage::PageId{static_cast<uint32_t>(segment), 0})
          .page(),
      "division page 0", &report);
  EXPECT_GE(report.count(Category::kSlottedPage), 1u) << report.ToString();

  CheckReport store_report;
  checker.CheckObjectStore(base->store.get(), &store_report);
  EXPECT_GE(store_report.count(Category::kSlottedPage), 1u)
      << store_report.ToString();
}

// Overlapping slot extents are the other slotted-page failure mode: point
// slot 1 into slot 0's record.
TEST(CheckCorruptionTest, OverlappingSlotsAreDetected) {
  auto base = MakeCompanyBase();
  const int64_t segment = base->store->SegmentOf(base->division_type);
  ASSERT_GE(segment, 0);
  const storage::PageId id{static_cast<uint32_t>(segment), 0};

  {
    storage::PageGuard guard = base->buffers.Pin(id);
    const storage::Page& page = guard.page();
    ASSERT_GE(storage::SlottedPage::slot_count(page), 2);
    const uint16_t offset0 = page.Read<uint16_t>(4);
    const uint16_t length0 = page.Read<uint16_t>(6);
    ASSERT_GT(length0 & ~storage::SlottedPage::kTombstoneBit, 0);
    // Slot 1 now claims the same extent as slot 0.
    guard.page().Write<uint16_t>(8, offset0);
    guard.page().Write<uint16_t>(10, length0);
    guard.MarkDirty();
  }

  CheckReport report;
  InvariantChecker checker;
  checker.CheckSlottedPage(base->buffers.Pin(id).page(), "division page 0",
                           &report);
  EXPECT_GE(report.count(Category::kSlottedPage), 1u) << report.ToString();
}

}  // namespace
}  // namespace asr
