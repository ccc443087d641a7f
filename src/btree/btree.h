// Page-based B+ tree storing fixed-width ASR tuples, clustered on one column.
//
// Following Valduriez's join-index storage scheme adopted by the paper
// (§5.2), every ASR partition is stored in two redundant B+ trees: one keyed
// (clustered) on the partition's first column and one on its last. A "cluster"
// is the group of tuples sharing the key value; cluster lookup costs the tree
// height plus the cluster's leaf pages, which is exactly the ht + nlp term of
// the analytical model (Eqs. 19-28, 33, 34).
//
// Keys are (column value, fingerprint) pairs: the 64-bit fingerprint of the
// whole tuple disambiguates tuples inside a cluster, giving set semantics
// (duplicate inserts are no-ops) and exact-match deletion. Deletion is lazy —
// leaves may underflow; they are unlinked only when the tree is rebuilt —
// which matches the maintenance model's assumption that "page overflows of
// leaf or non-leaf pages do not occur" for cost accounting (§6.2).
//
// Node layout (within the 4056-byte net page):
//   plain leaf:  [1:u8][flags:u8=0][count:u16][next_leaf:u32]
//                [(fingerprint:u64, tuple: width x u64) x count]
//   internal:    [0:u8][pad:u8][count:u16][child0:u32]
//                [(key:u64, fingerprint:u64, child:u32) x count]
//
// Leaves additionally support a key-prefix-compressed format (flags bit 0),
// chosen per leaf whenever every key-column value in the leaf fits in a
// 1/2/4-byte delta against the leaf's smallest key — which clustered OID
// runs almost always do:
//   compressed:  [1:u8][flags:u8=1][count:u16][next_leaf:u32]
//                [key_base:u64][kb:u8][pad x7]
//                [key deltas: count x kb bytes]                (columnar)
//                at 24 + leaf_capacity x kb:
//                [(fingerprint:u64, non-key columns x u64) x count]
// The key column is reconstructed as key_base + delta; the packed columnar
// delta array is what intra-leaf binary search touches, so a probe scans
// 1-4 bytes per entry instead of a full tuple. Compression is a CPU /
// memory-bandwidth optimization only: a leaf never holds more than the
// plain-format capacity (the paper's Eq. 16 density), so page counts —
// the model-validated quantity — are identical with and without it.
#ifndef ASR_BTREE_BTREE_H_
#define ASR_BTREE_BTREE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/asr_key.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "storage/buffer_manager.h"

namespace asr::btree {

class BTree {
 public:
  // `width` is the tuple arity; `key_column` the clustered column index.
  BTree(storage::BufferManager* buffers, std::string name, uint32_t width,
        uint32_t key_column);

  // The in-memory half of a tree's state: everything not recoverable from
  // its pages alone. Captured by meta(), carried across process and
  // transaction boundaries, and re-attached with the constructor below —
  // the handle that lets a snapshot reader (or a rolled-back writer) open
  // the same segment through a different buffer pool.
  struct Meta {
    uint32_t segment = 0;
    uint32_t width = 0;
    uint32_t key_column = 0;
    uint32_t root_page = 0;
    uint32_t height = 0;
    uint32_t leaf_pages = 0;
    uint32_t inner_pages = 0;
    uint64_t tuple_count = 0;
  };
  Meta meta() const;

  // Attaches to an existing segment described by `meta` without touching
  // any page (capacities are recomputed from width). The caller is
  // responsible for `meta` matching the segment's actual contents.
  BTree(storage::BufferManager* buffers, const Meta& meta);

  // Rolls the in-memory state back to an earlier meta() of this same tree —
  // the abort half of a transactional maintenance op, paired with the
  // discard of its staged page versions. The segment must match.
  void RestoreMeta(const Meta& meta);

  ASR_DISALLOW_COPY_AND_ASSIGN(BTree);

  uint32_t width() const { return width_; }
  uint32_t key_column() const { return key_column_; }

  // Inserts `tuple` (size == width). Returns true when newly inserted,
  // false when the identical tuple was already present.
  bool Insert(const std::vector<AsrKey>& tuple);

  // Leaf fill fraction used by BulkLoad when none is given: pack leaves
  // completely, the density the paper's page-count estimates (Eq. 16)
  // assume.
  static constexpr double kDefaultFillFactor = 1.0;

  // Sorted bottom-up construction: sorts `tuples` by (key column,
  // fingerprint), packs leaves left-to-right at `fill_factor` of their
  // capacity, then builds the internal levels bottom-up — no root-to-leaf
  // descents and no splits, so every page is written exactly once.
  // Duplicate tuples collapse (set semantics, as with Insert). Only valid on
  // an empty tree; the resulting tree is scan-identical to one grown by
  // inserting the same tuples one at a time.
  Status BulkLoad(std::vector<std::vector<AsrKey>> tuples,
                  double fill_factor = kDefaultFillFactor);

  // Removes the exact tuple; returns true when it was present.
  bool Erase(const std::vector<AsrKey>& tuple);

  // Appends all tuples whose key column equals `key` to `out`.
  void Lookup(AsrKey key, std::vector<std::vector<AsrKey>>* out);

  // Streaming cluster probe: calls `fn` for every tuple whose key column
  // equals `key`, in cluster order, decoding into a reused buffer instead of
  // materializing the cluster. `fn` returns false to stop early. Page cost
  // is identical to Lookup (ht + nlp).
  void LookupEach(AsrKey key,
                  const std::function<bool(const std::vector<AsrKey>&)>& fn);

  // Batched sorted-probe lookup: `keys` must be sorted ascending. Calls
  // `fn(i, tuple)` for every tuple whose key column equals keys[i], i
  // ascending and tuples in cluster order — exactly the rows LookupEach
  // would deliver key by key, byte for byte. `fn` returns false to stop the
  // whole batch. The win is CPU: one descent serves every key that lands in
  // the current leaf (or its sibling — the chain hop the sorted order makes
  // likely), and the sibling leaf is software-prefetched while the current
  // one is scanned. Amortizing descents also skips inner-page pins the
  // scalar path would re-charge, so strict metering runs (buffer capacity
  // 0), whose observed counts must realize the model's per-source ht + nlp
  // charge, should keep calling LookupEach — see ProbeFrontier in
  // asr/access_support_relation.cc.
  void LookupBatch(const std::vector<AsrKey>& keys,
                   const std::function<bool(size_t, const std::vector<AsrKey>&)>& fn);

  // Buffer pool this tree pins through (callers use its capacity and mode
  // to decide between scalar probes and batched raw-speed probes).
  storage::BufferManager* buffers() const { return buffers_; }

  // True iff some tuple has `key` in the key column (same page cost as a
  // cluster lookup of one leaf page).
  bool Contains(AsrKey key);

  // Visits every tuple in key order (inspects every leaf page; the
  // "exhaustive search of the access relation" case of §5.9.3).
  Status ScanAll(const std::function<Status(const std::vector<AsrKey>&)>& fn);

  // Structural validation: leaf entries sorted, leaf chain ordered, counts
  // within capacity, and the tuple count consistent. Returns Corruption on
  // the first violation. Intended for tests and post-load checks.
  Status CheckIntegrity();

  // Leaf-chain walk for structural checkers: calls `fn(page_no, entry_count)`
  // for every leaf in chain order. Fails with Corruption when the chain does
  // not terminate within the allocated leaf count (a cycle or stray link).
  Status ForEachLeaf(const std::function<Status(uint32_t, uint16_t)>& fn);

  // Test/diagnostic introspection: walks the leaf chain and returns
  // (compressed, plain) leaf counts. Cold path.
  struct LeafFormatCounts {
    uint32_t compressed = 0;
    uint32_t plain = 0;
  };
  Result<LeafFormatCounts> CountLeafFormats();

  // Disk segment holding this tree's pages (introspection; also the handle
  // corruption-injection tests use to reach raw pages).
  uint32_t segment() const { return segment_; }

  // --- Statistics (realized counterparts of Eqs. 16, 19, 20) -----------
  uint64_t tuple_count() const { return tuple_count_; }
  uint32_t leaf_page_count() const { return leaf_pages_; }
  uint32_t inner_page_count() const { return inner_pages_; }
  // Levels above the leaves (the paper's ht, Eq. 19).
  uint32_t height() const { return height_; }

  uint32_t leaf_capacity() const { return leaf_capacity_; }
  uint32_t inner_capacity() const { return inner_capacity_; }

  // --- Observability (compiled out under ASR_METRICS=OFF) ----------------
  // Root-to-leaf descents (one per Insert/Erase/Lookup*/Contains).
  uint64_t descents() const { return descents_.value(); }
  // Leaf / inner pages pinned, over all operations (the realized ht and
  // nlp work the model charges per cluster access).
  uint64_t leaf_touches() const { return leaf_touches_.value(); }
  uint64_t inner_touches() const { return inner_touches_.value(); }
  // Leaf plus inner splits (zero on a bulk-loaded tree).
  uint64_t splits() const { return splits_.value(); }
  // Pages packed by BulkLoad (each written exactly once).
  uint64_t bulkload_pages() const { return bulkload_pages_.value(); }

  // Pushes the tree's counters and structural statistics into `registry`
  // under `prefix`. Cold path.
  void ExportMetrics(obs::MetricsRegistry* registry,
                     const std::string& prefix) const;

 private:
  struct CompositeKey {
    uint64_t key;          // AsrKey raw value
    uint64_t fingerprint;  // hash of the whole tuple

    friend bool operator<(const CompositeKey& a, const CompositeKey& b) {
      if (a.key != b.key) return a.key < b.key;
      return a.fingerprint < b.fingerprint;
    }
    friend bool operator==(const CompositeKey& a, const CompositeKey& b) {
      return a.key == b.key && a.fingerprint == b.fingerprint;
    }
  };

  static uint64_t Fingerprint(const std::vector<AsrKey>& tuple);
  CompositeKey KeyOf(const std::vector<AsrKey>& tuple) const;

  // Descends to the leaf that should contain `key`, recording the path of
  // internal page numbers (for splits).
  uint32_t DescendToLeaf(CompositeKey key, std::vector<uint32_t>* path);

  // Descent to the leftmost leaf that trusts nothing: page numbers are
  // bounds-checked against the segment, inner counts against capacity, and
  // the walk is capped at the recorded height, so CheckIntegrity/ForEachLeaf
  // terminate with Corruption on pages a crash left stale or torn instead
  // of aborting or cycling. Reads go through TryPin, so checksum failures
  // surface as a Status too.
  Result<uint32_t> SafeLeftmostLeaf();

  // Inserts a (separator, child) into the parent chain after a split.
  void InsertIntoParent(std::vector<uint32_t>* path, CompositeKey separator,
                        uint32_t new_child);

  void InitLeaf(storage::Page* page);
  void InitInternal(storage::Page* page);

  storage::BufferManager* buffers_;
  uint32_t segment_;
  uint32_t width_;
  uint32_t key_column_;
  uint32_t leaf_entry_bytes_;
  uint32_t leaf_capacity_;
  uint32_t inner_capacity_;
  uint32_t root_page_;
  uint32_t height_ = 0;
  uint32_t leaf_pages_ = 1;
  uint32_t inner_pages_ = 0;
  uint64_t tuple_count_ = 0;

  obs::HotCounter descents_;
  obs::HotCounter leaf_touches_;
  obs::HotCounter inner_touches_;
  obs::HotCounter splits_;
  obs::HotCounter bulkload_pages_;
};

}  // namespace asr::btree

#endif  // ASR_BTREE_BTREE_H_
