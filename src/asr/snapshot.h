// Consistent-epoch ASR readers: query a transactional ASR while maintenance
// is mid-flight, without locks on the query path.
//
// An AsrSnapshot is the ASR-level face of a storage::PageSnapshot: capture
// pins the current committed page-version epoch and copies each partition
// tree's in-memory Meta; queries then run the ASR's own hop loop
// (AccessSupportRelation::EvalHops) over partition views captured at that
// moment: private trees attached to a read-only snapshot-mode buffer pool,
// so every page resolves to its image as of the pinned epoch — retained old
// versions where a later commit has since overwritten the backend. Writers
// never block the reader and the reader never blocks writers; the
// copy-on-write retention in storage/mvcc.h is the isolation mechanism.
// A snapshot read writes no ASR state (no query or hop counters) and never
// degrades. Lookup hops probe key by key on the snapshot pool at every
// capacity: each pin revalidates its frame's version, so the live pools'
// batched probe costs more here than it saves (DESIGN.md §14.3).
//
// The pool is recycled: the ASR keeps one spare snapshot pool, a new
// snapshot takes it (or builds a cold one when another snapshot holds it),
// and a released snapshot hands it back. Its frames are tagged with the
// version of their page image and revalidated at pin time, so a warm frame
// is served only while the new epoch still resolves its page to the same
// version (DESIGN.md §14.4).
//
// The alternative — evaluating queries against the live trees concurrently
// with maintenance — is unsound regardless of page versioning: a writer
// mutates the live BTree objects' in-memory state (root, height, counts)
// mid-descent. Snapshots sidestep that by attaching private BTree instances
// to the captured Metas.
//
// Capture takes every partition claim briefly (blocking, address order), so
// a snapshot never lands in the middle of an edge operation or rebuild:
// what it sees is exactly a committed prefix of the maintenance history.
#ifndef ASR_ASR_SNAPSHOT_H_
#define ASR_ASR_SNAPSHOT_H_

#include <memory>
#include <vector>

#include "asr/access_support_relation.h"
#include "btree/btree.h"
#include "common/asr_key.h"
#include "common/status.h"
#include "storage/buffer_manager.h"
#include "storage/mvcc.h"

namespace asr {

class AsrSnapshot {
 public:
  ASR_DISALLOW_COPY_AND_ASSIGN(AsrSnapshot);
  // Drops the trees, then hands the pool back to the source ASR.
  ~AsrSnapshot();

  // The committed epoch this snapshot reads at.
  storage::MvccEpoch epoch() const { return snap_.epoch(); }

  // Supported queries against the captured state: same contract and same
  // answers as the live EvalForward/EvalBackward at capture time, minus the
  // degraded-navigation path (capture requires a non-degraded ASR) and the
  // query/hop counters. The source ASR must outlive the snapshot.
  Result<std::vector<AsrKey>> EvalForward(AsrKey start, uint32_t i,
                                          uint32_t j);
  Result<std::vector<AsrKey>> EvalBackward(AsrKey target, uint32_t i,
                                           uint32_t j);

 private:
  friend class AccessSupportRelation;

  explicit AsrSnapshot(AccessSupportRelation* asr) : asr_(asr) {}

  // Immutable-after-Build configuration (path, kind, decomposition) is read
  // through the source ASR; everything that mutates is captured below. The
  // ASR also owns the spare pool that pool_ returns to.
  AccessSupportRelation* asr_;
  // Declaration order is the teardown contract reversed: views_ point into
  // trees_, trees_ pin through pool_, and pool_ reads through snap_.
  storage::PageSnapshot snap_;
  std::unique_ptr<storage::BufferManager> pool_;
  // Recycling generation pool_ was taken in (stale after Recover/Repair).
  uint64_t pool_generation_ = 0;
  // Each partition's forward and backward tree over the captured Metas.
  std::vector<std::unique_ptr<btree::BTree>> trees_;
  // What the hop loop reads, one view per partition.
  std::vector<AccessSupportRelation::PartitionView> views_;
};

}  // namespace asr

#endif  // ASR_ASR_SNAPSHOT_H_
