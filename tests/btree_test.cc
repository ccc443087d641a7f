// Tests for the page-based B+ tree storing ASR tuples.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "btree/btree.h"
#include "common/random.h"
#include "storage/buffer_manager.h"
#include "storage/disk.h"

namespace asr::btree {
namespace {

std::vector<AsrKey> Tuple(std::initializer_list<uint64_t> seqs) {
  std::vector<AsrKey> out;
  for (uint64_t s : seqs) {
    out.push_back(s == 0 ? AsrKey::Null() : AsrKey::FromOid(Oid::Make(1, s)));
  }
  return out;
}

class BTreeTest : public ::testing::Test {
 protected:
  BTreeTest() : buffers_(&disk_, /*capacity=*/64) {}

  storage::Disk disk_;
  storage::BufferManager buffers_;
};

TEST_F(BTreeTest, InsertAndLookup) {
  BTree tree(&buffers_, "t", /*width=*/2, /*key_column=*/0);
  EXPECT_TRUE(tree.Insert(Tuple({1, 10})));
  EXPECT_TRUE(tree.Insert(Tuple({1, 11})));
  EXPECT_TRUE(tree.Insert(Tuple({2, 20})));

  std::vector<std::vector<AsrKey>> rows;
  tree.Lookup(AsrKey::FromOid(Oid::Make(1, 1)), &rows);
  EXPECT_EQ(rows.size(), 2u);
  rows.clear();
  tree.Lookup(AsrKey::FromOid(Oid::Make(1, 2)), &rows);
  EXPECT_EQ(rows.size(), 1u);
  rows.clear();
  tree.Lookup(AsrKey::FromOid(Oid::Make(1, 99)), &rows);
  EXPECT_TRUE(rows.empty());
}

TEST_F(BTreeTest, SetSemanticsDuplicateInsert) {
  BTree tree(&buffers_, "t", 2, 0);
  EXPECT_TRUE(tree.Insert(Tuple({1, 10})));
  EXPECT_FALSE(tree.Insert(Tuple({1, 10})));
  EXPECT_EQ(tree.tuple_count(), 1u);
}

TEST_F(BTreeTest, EraseExactTuple) {
  BTree tree(&buffers_, "t", 2, 0);
  tree.Insert(Tuple({1, 10}));
  tree.Insert(Tuple({1, 11}));
  EXPECT_TRUE(tree.Erase(Tuple({1, 10})));
  EXPECT_FALSE(tree.Erase(Tuple({1, 10})));  // already gone
  EXPECT_FALSE(tree.Erase(Tuple({1, 12})));  // never there
  std::vector<std::vector<AsrKey>> rows;
  tree.Lookup(AsrKey::FromOid(Oid::Make(1, 1)), &rows);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][1], AsrKey::FromOid(Oid::Make(1, 11)));
}

TEST_F(BTreeTest, ContainsMatchesLookup) {
  BTree tree(&buffers_, "t", 3, 1);  // keyed on the middle column
  tree.Insert(Tuple({1, 5, 9}));
  EXPECT_TRUE(tree.Contains(AsrKey::FromOid(Oid::Make(1, 5))));
  EXPECT_FALSE(tree.Contains(AsrKey::FromOid(Oid::Make(1, 1))));
  EXPECT_FALSE(tree.Contains(AsrKey::FromOid(Oid::Make(1, 9))));
}

TEST_F(BTreeTest, NullKeysAreStorable) {
  BTree tree(&buffers_, "t", 2, 0);
  EXPECT_TRUE(tree.Insert({AsrKey::Null(), AsrKey::FromOid(Oid::Make(1, 7))}));
  std::vector<std::vector<AsrKey>> rows;
  tree.Lookup(AsrKey::Null(), &rows);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_TRUE(rows[0][0].IsNull());
}

TEST_F(BTreeTest, ManyInsertsSplitAndStaySorted) {
  BTree tree(&buffers_, "t", 2, 0);
  Rng rng(3);
  std::set<uint64_t> keys;
  for (int i = 0; i < 20000; ++i) {
    uint64_t k = rng.Uniform(1000000) + 1;
    bool fresh = keys.insert(k).second;
    EXPECT_EQ(tree.Insert(Tuple({k, k})), fresh);
  }
  EXPECT_EQ(tree.tuple_count(), keys.size());
  EXPECT_GT(tree.leaf_page_count(), 1u);
  EXPECT_GE(tree.height(), 1u);
  EXPECT_TRUE(tree.CheckIntegrity().ok());

  // Full scan yields every key exactly once, in order.
  std::vector<uint64_t> scanned;
  ASSERT_TRUE(tree.ScanAll([&](const std::vector<AsrKey>& row) {
                    scanned.push_back(row[0].ToOid().seq());
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(scanned.size(), keys.size());
  EXPECT_TRUE(std::is_sorted(scanned.begin(), scanned.end()));
  std::vector<uint64_t> expected(keys.begin(), keys.end());
  EXPECT_EQ(scanned, expected);
}

TEST_F(BTreeTest, LargeClustersSpanLeaves) {
  BTree tree(&buffers_, "t", 2, 0);
  // One key with far more tuples than fit on a single leaf.
  for (uint64_t v = 1; v <= 2000; ++v) {
    ASSERT_TRUE(tree.Insert(Tuple({42, v})));
  }
  for (uint64_t v = 1; v <= 100; ++v) {
    ASSERT_TRUE(tree.Insert(Tuple({7, v})));
    ASSERT_TRUE(tree.Insert(Tuple({99, v})));
  }
  std::vector<std::vector<AsrKey>> rows;
  tree.Lookup(AsrKey::FromOid(Oid::Make(1, 42)), &rows);
  EXPECT_EQ(rows.size(), 2000u);
  std::set<uint64_t> values;
  for (const auto& row : rows) values.insert(row[1].ToOid().seq());
  EXPECT_EQ(values.size(), 2000u);
}

TEST_F(BTreeTest, EraseUnderChurn) {
  BTree tree(&buffers_, "t", 2, 0);
  Rng rng(17);
  std::set<std::pair<uint64_t, uint64_t>> reference;
  for (int op = 0; op < 30000; ++op) {
    uint64_t k = rng.Uniform(50) + 1;
    uint64_t v = rng.Uniform(50) + 1;
    if (rng.Bernoulli(0.6)) {
      bool fresh = reference.insert({k, v}).second;
      EXPECT_EQ(tree.Insert(Tuple({k, v})), fresh);
    } else {
      bool present = reference.erase({k, v}) > 0;
      EXPECT_EQ(tree.Erase(Tuple({k, v})), present);
    }
  }
  EXPECT_EQ(tree.tuple_count(), reference.size());
  for (uint64_t k = 1; k <= 50; ++k) {
    std::vector<std::vector<AsrKey>> rows;
    tree.Lookup(AsrKey::FromOid(Oid::Make(1, k)), &rows);
    size_t expected = 0;
    for (const auto& [rk, rv] : reference) {
      if (rk == k) ++expected;
    }
    EXPECT_EQ(rows.size(), expected) << "cluster " << k;
  }
}

TEST_F(BTreeTest, StatisticsTrackGrowth) {
  BTree tree(&buffers_, "t", 4, 0);
  EXPECT_EQ(tree.height(), 0u);
  EXPECT_EQ(tree.leaf_page_count(), 1u);
  uint32_t leaf_cap = tree.leaf_capacity();
  for (uint64_t i = 1; i <= static_cast<uint64_t>(leaf_cap) + 1; ++i) {
    tree.Insert(Tuple({i, i, i, i}));
  }
  EXPECT_EQ(tree.height(), 1u);
  EXPECT_EQ(tree.leaf_page_count(), 2u);
  EXPECT_EQ(tree.inner_page_count(), 1u);
}

TEST_F(BTreeTest, WideTuplesRoundTrip) {
  for (uint32_t width : {2u, 3u, 5u, 6u}) {
    BTree tree(&buffers_, std::string("w").append(std::to_string(width)),
               width, width - 1);
    std::vector<AsrKey> tuple;
    for (uint32_t c = 0; c < width; ++c) {
      tuple.push_back(AsrKey::FromOid(Oid::Make(c + 1, 100 + c)));
    }
    ASSERT_TRUE(tree.Insert(tuple));
    std::vector<std::vector<AsrKey>> rows;
    tree.Lookup(tuple.back(), &rows);
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0], tuple);
  }
}

TEST_F(BTreeTest, LookupCostIsHeightPlusLeaves) {
  BTree tree(&buffers_, "t", 2, 0);
  for (uint64_t i = 1; i <= 50000; ++i) tree.Insert(Tuple({i, i}));
  ASSERT_GE(tree.height(), 1u);
  ASSERT_TRUE(buffers_.FlushAll().ok());

  storage::Disk* disk = buffers_.disk();
  storage::AccessStats before = disk->stats();
  std::vector<std::vector<AsrKey>> rows;
  tree.Lookup(AsrKey::FromOid(Oid::Make(1, 25000)), &rows);
  storage::AccessStats delta = disk->stats() - before;
  ASSERT_EQ(rows.size(), 1u);
  // Root-to-leaf path: height inner pages plus 1-2 leaf pages for a
  // singleton cluster (some may be buffer hits).
  EXPECT_LE(delta.page_reads, tree.height() + 2);
}

// --- Leaf compression & batched probes (CPU micro-optimizations) ---------

TEST_F(BTreeTest, BulkLoadCompressesDenseKeyRuns) {
  BTree tree(&buffers_, "t", 2, 0);
  std::vector<std::vector<AsrKey>> tuples;
  for (uint64_t i = 1; i <= 30000; ++i) tuples.push_back(Tuple({i, i}));
  ASSERT_TRUE(tree.BulkLoad(tuples).ok());

  // Dense OID runs fit 1/2-byte deltas: every packed leaf compresses. The
  // leaf count (the model-validated quantity) is unaffected by the format.
  BTree::LeafFormatCounts counts = tree.CountLeafFormats().value();
  EXPECT_GT(counts.compressed, 0u);
  EXPECT_EQ(counts.compressed + counts.plain, tree.leaf_page_count());
  EXPECT_TRUE(tree.CheckIntegrity().ok());

  std::vector<uint64_t> scanned;
  ASSERT_TRUE(tree.ScanAll([&](const std::vector<AsrKey>& row) {
                    scanned.push_back(row[0].ToOid().seq());
                    return Status::OK();
                  })
                  .ok());
  ASSERT_EQ(scanned.size(), 30000u);
  EXPECT_TRUE(std::is_sorted(scanned.begin(), scanned.end()));
}

TEST_F(BTreeTest, SplitsProduceCompressedLeavesOnInsertPath) {
  BTree tree(&buffers_, "t", 2, 0);
  // Grow past several splits: fresh leaves start plain, but every split
  // re-encodes both halves, which compresses dense runs.
  for (uint64_t i = 1; i <= 5 * tree.leaf_capacity(); ++i) {
    ASSERT_TRUE(tree.Insert(Tuple({i, i})));
  }
  BTree::LeafFormatCounts counts = tree.CountLeafFormats().value();
  EXPECT_GT(counts.compressed, 0u);
  EXPECT_TRUE(tree.CheckIntegrity().ok());
}

TEST_F(BTreeTest, WideKeySpanFallsBackToPlainLeaves) {
  BTree tree(&buffers_, "t", 2, 0);
  std::vector<std::vector<AsrKey>> tuples;
  // Adjacent keys 2^33 apart: no leaf with two entries can hold the span in
  // a 4-byte delta (seq is 40 bits, so stay under 120 keys).
  for (uint64_t i = 0; i < 120; ++i) {
    tuples.push_back(Tuple({1 + (i << 33), i + 1}));
  }
  ASSERT_TRUE(tree.BulkLoad(tuples).ok());
  BTree::LeafFormatCounts counts = tree.CountLeafFormats().value();
  EXPECT_EQ(counts.compressed, 0u);
  EXPECT_GT(counts.plain, 0u);
  EXPECT_TRUE(tree.CheckIntegrity().ok());
  for (uint64_t i = 0; i < 120; ++i) {
    EXPECT_TRUE(tree.Contains(AsrKey::FromOid(Oid::Make(1, 1 + (i << 33)))));
  }
}

// The batched probe must be indistinguishable from scalar probes in what it
// delivers: same rows, same per-key attribution, same order — across
// tuple widths/key columns (the decompositions the ASR eval paths use),
// absent keys, multi-leaf duplicate clusters, and early stops.
TEST_F(BTreeTest, LookupBatchMatchesScalarProbes) {
  struct Config {
    uint32_t width;
    uint32_t key_col;
  };
  Rng rng(29);
  for (Config cfg : {Config{2, 0}, Config{3, 1}, Config{4, 3}}) {
    BTree tree(&buffers_, std::string("b").append(std::to_string(cfg.width)),
               cfg.width, cfg.key_col);
    for (int i = 0; i < 20000; ++i) {
      std::vector<AsrKey> t;
      for (uint32_t c = 0; c < cfg.width; ++c) {
        uint64_t seq =
            c == cfg.key_col ? rng.Uniform(3000) + 1 : rng.Uniform(40) + 1;
        t.push_back(AsrKey::FromOid(Oid::Make(1, seq)));
      }
      tree.Insert(t);
    }
    // Both leaf formats must be in play for the comparison to mean much.
    BTree::LeafFormatCounts counts = tree.CountLeafFormats().value();
    EXPECT_GT(counts.compressed, 0u) << "width " << cfg.width;

    // Probe every key in [1, 3200]: present, absent past 3000, clusters.
    std::vector<AsrKey> keys;
    for (uint64_t k = 1; k <= 3200; ++k) {
      keys.push_back(AsrKey::FromOid(Oid::Make(1, k)));
    }
    using Hit = std::pair<size_t, std::vector<AsrKey>>;
    std::vector<Hit> want;
    for (size_t i = 0; i < keys.size(); ++i) {
      tree.LookupEach(keys[i], [&](const std::vector<AsrKey>& row) {
        want.push_back({i, row});
        return true;
      });
    }
    std::vector<Hit> got;
    tree.LookupBatch(keys, [&](size_t i, const std::vector<AsrKey>& row) {
      got.push_back({i, row});
      return true;
    });
    EXPECT_EQ(want, got) << "width " << cfg.width;

    // Early stop: the batch delivers exactly the scalar prefix, then halts.
    constexpr size_t kStop = 7;
    std::vector<Hit> partial;
    tree.LookupBatch(keys, [&](size_t i, const std::vector<AsrKey>& row) {
      partial.push_back({i, row});
      return partial.size() < kStop;
    });
    ASSERT_EQ(partial.size(), std::min(kStop, want.size()));
    std::vector<Hit> prefix(want.begin(), want.begin() + partial.size());
    EXPECT_EQ(prefix, partial) << "width " << cfg.width;
  }
}

TEST_F(BTreeTest, LookupBatchOnEmptyTreeDeliversNothing) {
  BTree tree(&buffers_, "t", 2, 0);
  std::vector<AsrKey> keys = {AsrKey::FromOid(Oid::Make(1, 1)),
                              AsrKey::FromOid(Oid::Make(1, 2))};
  tree.LookupBatch(keys, [&](size_t, const std::vector<AsrKey>&) {
    ADD_FAILURE() << "empty tree delivered a row";
    return true;
  });
}

}  // namespace
}  // namespace asr::btree
