// Property tests for incremental ASR maintenance (§6): after every edge
// insertion/removal, the incrementally maintained partitions must equal a
// from-scratch rebuild over the updated object base — for every extension
// and several decompositions.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "asr/access_support_relation.h"
#include "check/check_report.h"
#include "check/invariant_checker.h"
#include "common/macros.h"
#include "common/random.h"
#include "workload/synthetic_base.h"

namespace asr {
namespace {

using workload::GenerateOptions;
using workload::SyntheticBase;

cost::ApplicationProfile TinyProfile() {
  cost::ApplicationProfile p;
  p.n = 3;
  p.c = {12, 16, 20, 14};
  p.d = {9, 12, 15};
  p.fan = {2, 1, 2};  // set-valued, single-valued, set-valued hops
  p.size = {120, 120, 120, 120};
  return p;
}

// Compares every partition of `asr` with a rebuilt ASR over the same store.
void ExpectMatchesRebuild(gom::ObjectStore* store,
                          AccessSupportRelation* asr,
                          const std::string& context) {
  auto rebuilt = AccessSupportRelation::Build(
                     store, asr->path(), asr->kind(), asr->decomposition(),
                     asr->options())
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

struct MaintenanceCase {
  ExtensionKind kind;
  std::vector<uint32_t> cuts;
};

class MaintenanceTest : public ::testing::TestWithParam<MaintenanceCase> {};

TEST_P(MaintenanceTest, RandomEdgeChurnMatchesRebuild) {
  const MaintenanceCase& param = GetParam();
  auto base =
      SyntheticBase::Generate(TinyProfile(), GenerateOptions{11, 64}).value();
  gom::ObjectStore* store = base->store();
  const PathExpression& path = base->path();
  Decomposition dec = Decomposition::Of(param.cuts, path.n()).value();
  auto asr = AccessSupportRelation::Build(store, path, param.kind, dec)
                 .value();

  Rng rng(1234);
  int checked = 0;
  for (int op = 0; op < 60; ++op) {
    uint32_t p = static_cast<uint32_t>(rng.Uniform(path.n()));
    const PathStep& step = path.step(p + 1);
    const std::vector<Oid>& owners = base->objects_at(p);
    const std::vector<Oid>& targets = base->objects_at(p + 1);
    Oid u = owners[rng.Uniform(owners.size())];
    Oid w = targets[rng.Uniform(targets.size())];
    AsrKey wkey = AsrKey::FromOid(w);

    if (!step.set_occurrence) {
      // Single-valued: assignment (covers insert, replace, clear).
      AsrKey old_value =
          store->GetAttributeByName(u, step.attr_name).value();
      AsrKey new_value = rng.Bernoulli(0.2) ? AsrKey::Null() : wkey;
      ASSERT_TRUE(
          store->SetAttributeByName(u, step.attr_name, new_value).ok());
      ASSERT_TRUE(asr->OnAttributeAssigned(u, p, old_value, new_value).ok());
    } else {
      AsrKey set_key = store->GetAttributeByName(u, step.attr_name).value();
      if (set_key.IsNull()) {
        // Owner was undefined: give it a set instance and immediately its
        // first member, then run maintenance for the new edge. (A lingering
        // *empty* set would itself change the extension — an empty set
        // yields a dangling tuple where an undefined attribute yields none,
        // Def. 3.3 — so the set is never left empty here.)
        Oid set_oid = store->CreateSet(step.set_type).value();
        ASSERT_TRUE(store->SetAttributeByName(u, step.attr_name,
                                              AsrKey::FromOid(set_oid))
                        .ok());
        ASSERT_TRUE(store->AddToSet(set_oid, wkey).ok());
        ASSERT_TRUE(asr->OnEdgeInserted(u, p, wkey).ok());
        goto check;
      }
      {
        Oid set_oid = set_key.ToOid();
        bool contains = store->SetContains(set_oid, wkey).value();
        if (!contains && rng.Bernoulli(0.6)) {
          ASSERT_TRUE(store->AddToSet(set_oid, wkey).ok());
          ASSERT_TRUE(asr->OnEdgeInserted(u, p, wkey).ok());
        } else if (contains) {
          ASSERT_TRUE(store->RemoveFromSet(set_oid, wkey).ok());
          ASSERT_TRUE(asr->OnEdgeRemoved(u, p, wkey).ok());
        } else {
          continue;  // nothing to do this round
        }
      }
    check:;
    }

    ExpectMatchesRebuild(store, asr.get(),
                         "op " + std::to_string(op) + " at p=" +
                             std::to_string(p) + " u=" + u.ToString() +
                             " w=" + w.ToString());
    ++checked;
    if (::testing::Test::HasFailure()) return;  // stop at first divergence
  }
  ExpectMatchesRebuild(store, asr.get(), "final");
  EXPECT_GT(checked, 0);

#if ASR_PARANOID_ENABLED
  // Paranoid teardown: beyond the per-commit-point structural validation,
  // run the full invariant checker (Defs. 3.3-3.6 membership, Theorem 3.9
  // losslessness) over the churned ASR once.
  check::CheckReport report;
  check::InvariantChecker().CheckAsr(asr.get(), &report);
  EXPECT_TRUE(report.clean()) << report.ToString();
#endif
}

INSTANTIATE_TEST_SUITE_P(
    AllExtensions, MaintenanceTest,
    ::testing::Values(
        MaintenanceCase{ExtensionKind::kCanonical, {0, 3}},
        MaintenanceCase{ExtensionKind::kCanonical, {0, 1, 2, 3}},
        MaintenanceCase{ExtensionKind::kFull, {0, 3}},
        MaintenanceCase{ExtensionKind::kFull, {0, 1, 2, 3}},
        MaintenanceCase{ExtensionKind::kFull, {0, 2, 3}},
        MaintenanceCase{ExtensionKind::kLeftComplete, {0, 3}},
        MaintenanceCase{ExtensionKind::kLeftComplete, {0, 1, 2, 3}},
        MaintenanceCase{ExtensionKind::kRightComplete, {0, 3}},
        MaintenanceCase{ExtensionKind::kRightComplete, {0, 1, 2, 3}},
        MaintenanceCase{ExtensionKind::kCanonical, {0, 2, 3}},
        MaintenanceCase{ExtensionKind::kLeftComplete, {0, 2, 3}},
        MaintenanceCase{ExtensionKind::kRightComplete, {0, 1, 3}}),
    [](const ::testing::TestParamInfo<MaintenanceCase>& info) {
      std::string name = ExtensionKindName(info.param.kind);
      for (uint32_t c : info.param.cuts) {
        name.append("_").append(std::to_string(c));
      }
      return name;
    });

// Deterministic corner cases on a linear 2-hop path.
class LinearMaintenanceTest : public ::testing::Test {
 protected:
  LinearMaintenanceTest() : buffers_(&disk_, 64) {
    c_ = schema_.DefineTupleType("C", {}, {}).value();
    b_ = schema_
             .DefineTupleType("B", {}, {{"Next", c_, kInvalidTypeId}})
             .value();
    a_ = schema_
             .DefineTupleType("A", {}, {{"Next", b_, kInvalidTypeId}})
             .value();
    store_ = std::make_unique<gom::ObjectStore>(&schema_, &buffers_);
    path_.emplace(PathExpression::Parse(schema_, a_, "Next.Next").value());
  }

  std::unique_ptr<AccessSupportRelation> Build(ExtensionKind kind) {
    return AccessSupportRelation::Build(store_.get(), *path_, kind,
                                        Decomposition::Binary(2))
        .value();
  }

  gom::Schema schema_;
  storage::Disk disk_;
  storage::BufferManager buffers_;
  std::unique_ptr<gom::ObjectStore> store_;
  std::optional<PathExpression> path_;
  TypeId a_, b_, c_;
};

TEST_F(LinearMaintenanceTest, FirstEdgeRemovesDanglingRows) {
  Oid a = store_->CreateObject(a_).value();
  Oid b = store_->CreateObject(b_).value();
  Oid c = store_->CreateObject(c_).value();
  ASSERT_TRUE(store_->SetRef(a, "Next", b).ok());

  for (ExtensionKind kind :
       {ExtensionKind::kCanonical, ExtensionKind::kFull,
        ExtensionKind::kLeftComplete, ExtensionKind::kRightComplete}) {
    auto asr = Build(kind);
    // Connect b -> c: completes the path a -> b -> c.
    ASSERT_TRUE(store_->SetRef(b, "Next", c).ok());
    ASSERT_TRUE(asr->OnEdgeInserted(b, 1, AsrKey::FromOid(c)).ok());
    ExpectMatchesRebuild(store_.get(), asr.get(),
                         "insert " + ExtensionKindName(kind));
    // And disconnect again: dangling rows must come back.
    ASSERT_TRUE(
        store_->SetAttributeByName(b, "Next", AsrKey::Null()).ok());
    ASSERT_TRUE(asr->OnEdgeRemoved(b, 1, AsrKey::FromOid(c)).ok());
    ExpectMatchesRebuild(store_.get(), asr.get(),
                         "remove " + ExtensionKindName(kind));
  }
}

TEST_F(LinearMaintenanceTest, EdgeAtPathStart) {
  Oid a = store_->CreateObject(a_).value();
  Oid b = store_->CreateObject(b_).value();
  Oid c = store_->CreateObject(c_).value();
  ASSERT_TRUE(store_->SetRef(b, "Next", c).ok());

  for (ExtensionKind kind :
       {ExtensionKind::kCanonical, ExtensionKind::kFull,
        ExtensionKind::kLeftComplete, ExtensionKind::kRightComplete}) {
    auto asr = Build(kind);
    ASSERT_TRUE(store_->SetRef(a, "Next", b).ok());
    ASSERT_TRUE(asr->OnEdgeInserted(a, 0, AsrKey::FromOid(b)).ok());
    ExpectMatchesRebuild(store_.get(), asr.get(),
                         "insert@0 " + ExtensionKindName(kind));
    ASSERT_TRUE(
        store_->SetAttributeByName(a, "Next", AsrKey::Null()).ok());
    ASSERT_TRUE(asr->OnEdgeRemoved(a, 0, AsrKey::FromOid(b)).ok());
    ExpectMatchesRebuild(store_.get(), asr.get(),
                         "remove@0 " + ExtensionKindName(kind));
  }
}

TEST_F(LinearMaintenanceTest, MaintenanceRequiresDroppedSetColumns) {
  // An ASR with retained set columns refuses incremental maintenance.
  gom::Schema schema;
  TypeId leaf = schema.DefineTupleType("Leaf", {}, {}).value();
  TypeId leafset = schema.DefineSetType("LeafSet", leaf).value();
  TypeId root =
      schema
          .DefineTupleType("Root", {}, {{"Kids", leafset, kInvalidTypeId}})
          .value();
  storage::Disk disk;
  storage::BufferManager buffers(&disk, 64);
  gom::ObjectStore store(&schema, &buffers);
  PathExpression path = PathExpression::Parse(schema, root, "Kids").value();
  AsrOptions options;
  options.drop_set_columns = false;
  auto asr = AccessSupportRelation::Build(&store, path, ExtensionKind::kFull,
                                          Decomposition::Binary(path.m()),
                                          options)
                 .value();
  Oid r = store.CreateObject(root).value();
  EXPECT_TRUE(
      asr->OnEdgeInserted(r, 0, AsrKey::FromInt(1)).IsNotSupported());
}

}  // namespace
}  // namespace asr
