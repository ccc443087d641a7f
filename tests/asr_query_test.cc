// Tests for access support relation construction and supported query
// evaluation, cross-checked against navigational evaluation on the same
// object base (the two must always agree on results).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "asr/access_support_relation.h"
#include "asr/query.h"
#include "paper_example.h"
#include "workload/synthetic_base.h"

namespace asr {
namespace {

using workload::GenerateOptions;
using workload::SyntheticBase;

std::set<uint64_t> AsSet(const std::vector<AsrKey>& keys) {
  std::set<uint64_t> out;
  for (AsrKey k : keys) out.insert(k.raw());
  return out;
}

cost::ApplicationProfile SmallProfile() {
  cost::ApplicationProfile p;
  p.n = 3;
  p.c = {40, 60, 80, 50};
  p.d = {30, 45, 60};
  p.fan = {2, 1, 3};
  p.size = {120, 120, 120, 120};
  return p;
}

struct QueryCase {
  ExtensionKind kind;
  std::vector<uint32_t> cuts;
};

class AsrQueryTest : public ::testing::TestWithParam<QueryCase> {};

TEST_P(AsrQueryTest, SupportedQueriesMatchNavigational) {
  const QueryCase& param = GetParam();
  auto base = SyntheticBase::Generate(SmallProfile(), GenerateOptions{7, 64})
                  .value();
  Decomposition dec =
      Decomposition::Of(param.cuts, base->path().n()).value();
  auto asr = AccessSupportRelation::Build(base->store(), base->path(),
                                          param.kind, dec)
                 .value();
  QueryEvaluator nav(base->store(), &base->path());
  const uint32_t n = base->path().n();

  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = i + 1; j <= n; ++j) {
      // Forward from a sample of level-i objects.
      for (size_t s = 0; s < base->objects_at(i).size(); s += 7) {
        AsrKey start = AsrKey::FromOid(base->objects_at(i)[s]);
        Result<std::vector<AsrKey>> expect = nav.ForwardNoSupport(start, i, j);
        ASSERT_TRUE(expect.ok());
        Result<std::vector<AsrKey>> got = asr->EvalForward(start, i, j);
        if (!asr->SupportsQuery(i, j)) {
          EXPECT_TRUE(got.status().IsNotSupported());
          continue;
        }
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        EXPECT_EQ(AsSet(*got), AsSet(*expect))
            << "fw i=" << i << " j=" << j << " s=" << s;
      }
      // Backward towards a sample of level-j objects.
      for (size_t t = 0; t < base->objects_at(j).size(); t += 11) {
        AsrKey target = AsrKey::FromOid(base->objects_at(j)[t]);
        Result<std::vector<AsrKey>> expect =
            nav.BackwardNoSupport(target, i, j);
        ASSERT_TRUE(expect.ok());
        Result<std::vector<AsrKey>> got = asr->EvalBackward(target, i, j);
        if (!asr->SupportsQuery(i, j)) {
          EXPECT_TRUE(got.status().IsNotSupported());
          continue;
        }
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        EXPECT_EQ(AsSet(*got), AsSet(*expect))
            << "bw i=" << i << " j=" << j << " t=" << t;
      }
    }
  }
}

TEST_P(AsrQueryTest, PartitionsEqualProjectedExtension) {
  const QueryCase& param = GetParam();
  auto base = SyntheticBase::Generate(SmallProfile(), GenerateOptions{7, 64})
                  .value();
  Decomposition dec =
      Decomposition::Of(param.cuts, base->path().n()).value();
  auto asr = AccessSupportRelation::Build(base->store(), base->path(),
                                          param.kind, dec)
                 .value();
  rel::Relation extension =
      ComputeExtension(base->store(), base->path(), param.kind,
                       /*drop_set_columns=*/true)
          .value();
  for (size_t p = 0; p < asr->partition_count(); ++p) {
    auto [first, last] = asr->partition_range(p);
    rel::Relation expected = extension.Project(first, last);
    // The stored partition omits all-NULL slices.
    rel::Relation trimmed(expected.arity());
    for (const rel::Row& row : expected.rows()) {
      bool all_null = true;
      for (AsrKey k : row) all_null &= k.IsNull();
      if (!all_null) trimmed.AddRow(row);
    }
    rel::Relation actual = asr->DumpPartition(p).value();
    EXPECT_TRUE(actual.EqualsAsSet(trimmed))
        << "partition " << first << "-" << last;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ExtensionsAndDecompositions, AsrQueryTest,
    ::testing::Values(
        QueryCase{ExtensionKind::kCanonical, {0, 3}},
        QueryCase{ExtensionKind::kCanonical, {0, 1, 2, 3}},
        QueryCase{ExtensionKind::kFull, {0, 3}},
        QueryCase{ExtensionKind::kFull, {0, 1, 2, 3}},
        QueryCase{ExtensionKind::kFull, {0, 2, 3}},
        QueryCase{ExtensionKind::kLeftComplete, {0, 3}},
        QueryCase{ExtensionKind::kLeftComplete, {0, 1, 3}},
        QueryCase{ExtensionKind::kRightComplete, {0, 3}},
        QueryCase{ExtensionKind::kRightComplete, {0, 2, 3}}),
    [](const ::testing::TestParamInfo<QueryCase>& info) {
      std::string name = ExtensionKindName(info.param.kind);
      for (uint32_t c : info.param.cuts) {
        name.append("_").append(std::to_string(c));
      }
      return name;
    });

TEST(AsrBuildTest, RejectsMismatchedDecomposition) {
  auto base = SyntheticBase::Generate(SmallProfile(), GenerateOptions{7, 64})
                  .value();
  Decomposition wrong = Decomposition::None(5);
  EXPECT_TRUE(AccessSupportRelation::Build(base->store(), base->path(),
                                           ExtensionKind::kFull, wrong)
                  .status()
                  .IsInvalidArgument());
}

TEST(AsrBuildTest, RetainedSetColumnsCompanyQueries) {
  auto company = testing::MakeCompanyBase();
  PathExpression path = testing::MakeCompanyPath(*company);
  AsrOptions options;
  options.drop_set_columns = false;
  auto asr = AccessSupportRelation::Build(
                 company->store.get(), path, ExtensionKind::kFull,
                 Decomposition::Binary(path.m()), options)
                 .value();
  EXPECT_EQ(asr->width(), 6u);

  // Query 2 (backward over the whole path): which Division uses a BasePart
  // named "Door"?
  Result<std::vector<AsrKey>> divisions =
      asr->EvalBackward(company->Name("Door"), 0, 3);
  ASSERT_TRUE(divisions.ok());
  EXPECT_EQ(AsSet(*divisions),
            AsSet({AsrKey::FromOid(company->auto_division),
                   AsrKey::FromOid(company->truck_division)}));

  // Query 3 (forward): all BasePart names used by the Auto division.
  Result<std::vector<AsrKey>> names =
      asr->EvalForward(AsrKey::FromOid(company->auto_division), 0, 3);
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(AsSet(*names), AsSet({company->Name("Door")}));
}

TEST(AsrBuildTest, QueriesThroughInteriorColumnsScanPartition) {
  auto company = testing::MakeCompanyBase();
  PathExpression path = testing::MakeCompanyPath(*company);
  // No decomposition: sub-queries enter at interior columns.
  auto asr = AccessSupportRelation::Build(company->store.get(), path,
                                          ExtensionKind::kFull,
                                          Decomposition::None(path.n()))
                 .value();
  // Q_{1,3}: names reachable from the 560 SEC product.
  Result<std::vector<AsrKey>> names =
      asr->EvalForward(AsrKey::FromOid(company->sec560), 1, 3);
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(AsSet(*names), AsSet({company->Name("Door")}));

  // Q_{1,2} backward: products using the Pepper base part.
  Result<std::vector<AsrKey>> products =
      asr->EvalBackward(AsrKey::FromOid(company->pepper), 1, 2);
  ASSERT_TRUE(products.ok());
  EXPECT_EQ(AsSet(*products), AsSet({AsrKey::FromOid(company->sausage)}));
}

TEST(AsrBuildTest, DescribeSummarizesPartitions) {
  auto base = SyntheticBase::Generate(SmallProfile(), GenerateOptions{7, 64})
                  .value();
  auto asr = AccessSupportRelation::Build(base->store(), base->path(),
                                          ExtensionKind::kFull,
                                          Decomposition::Of({0, 2, 3}, 3)
                                              .value())
                 .value();
  std::string text = asr->Describe();
  EXPECT_NE(text.find("extension=full"), std::string::npos);
  EXPECT_NE(text.find("decomposition=(0,2,3)"), std::string::npos);
  EXPECT_NE(text.find("partition [0..2]"), std::string::npos);
  EXPECT_NE(text.find("partition [2..3]"), std::string::npos);
  EXPECT_NE(text.find("tuples="), std::string::npos);
}

TEST(AsrBuildTest, TotalPagesPositiveAndGrowsWithRedundancy) {
  auto base = SyntheticBase::Generate(SmallProfile(), GenerateOptions{7, 64})
                  .value();
  auto none = AccessSupportRelation::Build(
                  base->store(), base->path(), ExtensionKind::kFull,
                  Decomposition::None(base->path().n()))
                  .value();
  auto binary = AccessSupportRelation::Build(
                    base->store(), base->path(), ExtensionKind::kFull,
                    Decomposition::Binary(base->path().n()))
                    .value();
  EXPECT_GT(none->TotalPages(), 0u);
  EXPECT_GT(binary->TotalPages(), 0u);
  EXPECT_EQ(none->partition_count(), 1u);
  EXPECT_EQ(binary->partition_count(), 3u);
}

}  // namespace
}  // namespace asr
