// Randomized differential tests ("fuzz" suites): the B+ tree against a
// reference container over long random operation sequences, random-base
// losslessness of arbitrary decompositions (Theorem 3.9), and random-path
// query agreement between all extensions.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "asr/access_support_relation.h"
#include "asr/query.h"
#include "asr/snapshot.h"
#include "btree/btree.h"
#include "common/random.h"
#include "rel/relation.h"
#include "storage/mvcc.h"
#include "workload/synthetic_base.h"

namespace asr {
namespace {

// --- B+ tree vs reference multiset ---------------------------------------

struct BTreeFuzzCase {
  uint32_t width;
  uint32_t key_column;
  uint64_t seed;
  uint64_t key_space;
};

class BTreeFuzzTest : public ::testing::TestWithParam<BTreeFuzzCase> {};

TEST_P(BTreeFuzzTest, MatchesReferenceUnderRandomOps) {
  const BTreeFuzzCase& param = GetParam();
  storage::Disk disk;
  storage::BufferManager buffers(&disk, 128);
  btree::BTree tree(&buffers, "fuzz", param.width, param.key_column);

  using Tuple = std::vector<uint64_t>;
  std::set<Tuple> reference;
  Rng rng(param.seed);

  auto random_tuple = [&] {
    Tuple t(param.width);
    for (uint64_t& v : t) v = rng.Uniform(param.key_space) + 1;
    return t;
  };
  auto to_keys = [](const Tuple& t) {
    std::vector<AsrKey> keys;
    for (uint64_t v : t) keys.push_back(AsrKey::FromOid(Oid::Make(1, v)));
    return keys;
  };

  for (int op = 0; op < 20000; ++op) {
    Tuple t = random_tuple();
    if (rng.Bernoulli(0.65)) {
      bool fresh = reference.insert(t).second;
      ASSERT_EQ(tree.Insert(to_keys(t)), fresh) << "op " << op;
    } else {
      bool present = reference.erase(t) > 0;
      ASSERT_EQ(tree.Erase(to_keys(t)), present) << "op " << op;
    }
  }
  ASSERT_EQ(tree.tuple_count(), reference.size());
  ASSERT_TRUE(tree.CheckIntegrity().ok());

  // Every cluster agrees with the reference.
  std::map<uint64_t, size_t> cluster_sizes;
  for (const Tuple& t : reference) ++cluster_sizes[t[param.key_column]];
  for (uint64_t key = 1; key <= param.key_space; ++key) {
    std::vector<std::vector<AsrKey>> rows;
    tree.Lookup(AsrKey::FromOid(Oid::Make(1, key)), &rows);
    auto it = cluster_sizes.find(key);
    size_t expected = it == cluster_sizes.end() ? 0 : it->second;
    ASSERT_EQ(rows.size(), expected) << "cluster " << key;
  }

  // Scan yields the whole content once, in key order.
  size_t scanned = 0;
  uint64_t prev_key = 0;
  ASSERT_TRUE(tree.ScanAll([&](const std::vector<AsrKey>& row) {
                    uint64_t key = row[param.key_column].ToOid().seq();
                    EXPECT_GE(key, prev_key);
                    prev_key = key;
                    Tuple t;
                    for (AsrKey k : row) t.push_back(k.ToOid().seq());
                    EXPECT_TRUE(reference.count(t) > 0);
                    ++scanned;
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(scanned, reference.size());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BTreeFuzzTest,
    ::testing::Values(BTreeFuzzCase{2, 0, 11, 40},
                      BTreeFuzzCase{2, 1, 12, 2000},
                      BTreeFuzzCase{3, 1, 13, 25},
                      BTreeFuzzCase{5, 4, 14, 200},
                      BTreeFuzzCase{6, 0, 15, 8}),
    [](const ::testing::TestParamInfo<BTreeFuzzCase>& info) {
      return std::string("w")
          .append(std::to_string(info.param.width))
          .append("k")
          .append(std::to_string(info.param.key_column))
          .append("s")
          .append(std::to_string(info.param.seed));
    });

// --- Theorem 3.9 on random bases -------------------------------------------

TEST(LosslessnessFuzz, EveryDecompositionRejoinsToTheExtension) {
  for (uint64_t seed : {2ull, 5ull, 8ull}) {
    cost::ApplicationProfile profile;
    profile.n = 3;
    profile.c = {15, 25, 35, 20};
    profile.d = {12, 20, 28};
    profile.fan = {2, 1, 2};
    profile.size = {120, 120, 120, 120};
    auto base =
        workload::SyntheticBase::Generate(profile, {seed, 64}).value();

    for (ExtensionKind kind :
         {ExtensionKind::kCanonical, ExtensionKind::kFull,
          ExtensionKind::kLeftComplete, ExtensionKind::kRightComplete}) {
      rel::Relation extension =
          ComputeExtension(base->store(), base->path(), kind, true).value();
      for (const Decomposition& dec : Decomposition::EnumerateAll(3)) {
        // Materialize the partitions by projection (Def. 3.8) and re-join.
        std::vector<rel::Relation> parts;
        for (size_t p = 0; p < dec.partition_count(); ++p) {
          auto [a, b] = dec.partition(p);
          parts.push_back(extension.Project(a, b));
        }
        rel::Relation rejoined = parts[0];
        for (size_t p = 1; p < parts.size(); ++p) {
          rejoined = rel::Relation::Join(rejoined, parts[p],
                                         rel::JoinKind::kNatural);
        }
        // The natural re-join reproduces every NULL-free row, and — because
        // prefixes and suffixes are independent given the boundary object —
        // adds nothing beyond the extension's rows whose boundary columns
        // are non-NULL. Compare on that common footing.
        auto non_null_boundary_rows = [&](const rel::Relation& r) {
          rel::Relation out(r.arity());
          for (const rel::Row& row : r.rows()) {
            bool ok = true;
            for (uint32_t cut : dec.cuts()) {
              ok &= !row[cut].IsNull();
            }
            for (AsrKey k : row) ok &= !k.IsNull();
            if (ok) out.AddRow(row);
          }
          out.Normalize();
          return out;
        };
        rel::Relation expected = non_null_boundary_rows(extension);
        rel::Relation actual = non_null_boundary_rows(rejoined);
        ASSERT_TRUE(actual.EqualsAsSet(expected))
            << ExtensionKindName(kind) << " " << dec.ToString() << " seed "
            << seed;
      }
    }
  }
}

// --- Random query agreement across extensions -------------------------------

// Every answer is checked on every evaluation path: the live ASR, a
// snapshot of a transactional twin, and a twin with one partition
// quarantined (degraded navigation across that slice). Each runs at pool
// capacity 0 (scalar probes) and at a real capacity (batched probes on the
// live pools, scalar on the snapshot pool).
TEST(QueryAgreementFuzz, AllSupportingExtensionsAgreeWithNavigation) {
  cost::ApplicationProfile profile;
  profile.n = 4;
  profile.c = {25, 40, 60, 80, 50};
  profile.d = {20, 32, 45, 60};
  profile.fan = {2, 1, 2, 1};
  profile.size = {120, 120, 120, 120, 120};

  for (size_t capacity : {size_t{0}, size_t{64}}) {
    storage::MvccManager mvcc;
    workload::GenerateOptions gen;
    gen.seed = 31;
    gen.buffer_capacity = capacity;
    auto base = workload::SyntheticBase::Generate(profile, gen).value();
    base->disk()->AttachMvcc(&mvcc);
    QueryEvaluator nav(base->store(), &base->path());

    struct Readers {
      std::unique_ptr<AccessSupportRelation> live;
      std::unique_ptr<AccessSupportRelation> txn;
      std::unique_ptr<AccessSupportRelation> degraded;
    };
    AsrOptions txn_options;
    txn_options.transactional = true;
    std::vector<Readers> readers;
    for (ExtensionKind kind :
         {ExtensionKind::kCanonical, ExtensionKind::kFull,
          ExtensionKind::kLeftComplete, ExtensionKind::kRightComplete}) {
      for (const Decomposition& dec :
           {Decomposition::None(4), Decomposition::Binary(4),
            Decomposition::Of({0, 2, 4}, 4).value()}) {
        auto build = [&](const AsrOptions& options) {
          return AccessSupportRelation::Build(base->store(), base->path(),
                                              kind, dec, options)
              .value();
        };
        readers.push_back({build({}), build(txn_options), build({})});
      }
    }
    // Recover() drops the shared pool's frames unwritten, so every dirty
    // page must be on disk before each one.
    ASSERT_TRUE(base->buffers()->FlushAll().ok());
    for (size_t k = 0; k < readers.size(); ++k) {
      AccessSupportRelation* asr = readers[k].degraded.get();
      uint32_t seg =
          asr->partition_store(k % asr->partition_count())->forward->segment();
      ASSERT_TRUE(
          base->disk()->WritePage(storage::PageId{seg, 0}, storage::Page())
              .ok());
      ASSERT_TRUE(asr->Recover().ok());
      ASSERT_TRUE(asr->degraded()) << k;
      ASSERT_TRUE(base->buffers()->FlushAll().ok());
    }

    Rng rng(77);
    for (int trial = 0; trial < 40; ++trial) {
      uint32_t i = static_cast<uint32_t>(rng.Uniform(4));
      uint32_t j = i + 1 + static_cast<uint32_t>(rng.Uniform(4 - i));
      bool forward = rng.Bernoulli(0.5);
      std::set<uint64_t> expected;
      AsrKey anchor;
      if (forward) {
        const auto& starts = base->objects_at(i);
        anchor = AsrKey::FromOid(starts[rng.Uniform(starts.size())]);
        for (AsrKey k : nav.ForwardNoSupport(anchor, i, j).value()) {
          expected.insert(k.raw());
        }
      } else {
        const auto& targets = base->objects_at(j);
        anchor = AsrKey::FromOid(targets[rng.Uniform(targets.size())]);
        for (AsrKey k : nav.BackwardNoSupport(anchor, i, j).value()) {
          expected.insert(k.raw());
        }
      }
      for (const Readers& r : readers) {
        if (!r.live->SupportsQuery(i, j)) continue;
        std::unique_ptr<AsrSnapshot> snapshot = r.txn->OpenSnapshot().value();
        auto check = [&](auto* reader, const char* path) {
          Result<std::vector<AsrKey>> result =
              forward ? reader->EvalForward(anchor, i, j)
                      : reader->EvalBackward(anchor, i, j);
          ASSERT_TRUE(result.ok()) << result.status().ToString();
          std::set<uint64_t> got;
          for (AsrKey k : *result) got.insert(k.raw());
          ASSERT_EQ(got, expected)
              << path << " " << ExtensionKindName(r.live->kind()) << " "
              << r.live->decomposition().ToString() << " capacity "
              << capacity << " trial " << trial << (forward ? " fw" : " bw")
              << " i=" << i << " j=" << j;
        };
        check(r.live.get(), "live");
        check(snapshot.get(), "snapshot");
        check(r.degraded.get(), "degraded");
      }
    }
  }
}

}  // namespace
}  // namespace asr
