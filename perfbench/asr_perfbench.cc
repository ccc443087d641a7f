// Repository benchmark: the Fig. 4 object base with a full-extension,
// binary-decomposed access support relation, driven through the public
// library API by three workloads.
//
//   cached_mix     one closed-loop client, memory backend, a pool that holds
//                  everything, no WAL/MVCC: the hop loop, B+ tree descent and
//                  the buffer-pool hit path (the CPU path).
//   durable_spill  one closed-loop client, file backend with group
//                  durability, WAL-logged transactional maintenance over
//                  MVCC, 512-frame pools: fsync, commit, eviction and
//                  write-back (the durability path).
//   snapshot_rw    snapshot read transactions interleaved with
//                  transactional updates on the memory backend: AsrSnapshot's
//                  hop loop, MVCC version resolution and retention, and the
//                  claim protocol of snapshot capture.
//
// Usage: asr_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                      --data-dir DIR [--trace-out FILE]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics without
// tracing, the per-layer metrics with it. Per-layer numbers come from spans
// this file records around each call into a layer and from the layers'
// public counter getters; nothing inside the library is instrumented for it.
// The exit code is non-zero on any wrong answer or invariant violation.
#include <malloc.h>
#include <sys/resource.h>
#include <sys/vfs.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "asr/access_support_relation.h"
#include "asr/query.h"
#include "asr/snapshot.h"
#include "check/invariant_checker.h"
#include "common/random.h"
#include "cost/cost_model.h"
#include "cost/opmix.h"
#include "storage/mvcc.h"
#include "storage/wal.h"
#include "workload/synthetic_base.h"

namespace {

using namespace asr;
using Clock = std::chrono::steady_clock;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "asr_perfbench: %s\n", what.c_str());
  std::exit(2);
}

template <typename T>
T Must(Result<T> r, const char* what) {
  if (!r.ok()) Die(std::string(what) + ": " + r.status().ToString());
  return std::move(*r);
}

void Must(const Status& st, const char* what) {
  if (!st.ok()) Die(std::string(what) + ": " + st.ToString());
}

// ---------------------------------------------------------------------------
// Workloads

// §4.4.1 (Fig. 4) profile: 166k objects, n = 4.
cost::ApplicationProfile Fig4Profile() {
  cost::ApplicationProfile p;
  p.n = 4;
  p.c = {1000, 5000, 10000, 50000, 100000};
  p.d = {900, 4000, 8000, 20000};
  p.fan = {2, 2, 3, 4};
  p.size = {500, 400, 300, 300, 100};
  return p;
}

// §6.4.2 (Fig. 14) operation mix.
cost::OperationMix Fig14Mix() {
  cost::OperationMix mix;
  mix.queries = {{0.5, cost::QueryDirection::kBackward, 0, 4},
                 {0.25, cost::QueryDirection::kBackward, 0, 3},
                 {0.25, cost::QueryDirection::kForward, 1, 2}};
  mix.updates = {{0.5, 2}, {0.5, 3}};
  return mix;
}

struct Spec {
  std::string name;
  storage::BackendKind backend = storage::BackendKind::kMemory;
  storage::DurabilityMode durability = storage::DurabilityMode::kOff;
  size_t pool_frames = 0;
  bool transactional = false;
  bool wal = false;
  double p_up = 0;
  // Each query is a snapshot read transaction: OpenSnapshot, then
  // queries_per_txn backward Q_{0,4} with one update halfway, then release.
  // The second half thus reads page versions that the update's commit
  // retained for the snapshot.
  bool read_txns = false;
  // Untimed operations (snapshot_rw: updates) before the timed loop.
  // Leaves split out of their bulk-loaded packing and the MVCC version
  // table fills, so the timed loop starts near the steady state.
  uint64_t warmup_ops = 0;
  // Leading operations of the timed loop whose metered counts must repeat
  // bit-exactly for one seed (single-threaded workloads only).
  uint64_t exact_window = 0;
  uint32_t queries_per_txn = 8;
};

bool FindSpec(const std::string& name, Spec* out) {
  Spec s;
  s.name = name;
  if (name == "cached_mix") {
    s.pool_frames = 16384;
    s.p_up = 0.2;
    s.warmup_ops = 100000;
    s.exact_window = 20000;
  } else if (name == "durable_spill") {
    s.backend = storage::BackendKind::kFile;
    s.durability = storage::DurabilityMode::kGroup;
    s.pool_frames = 512;
    s.transactional = true;
    s.wal = true;
    s.p_up = 0.8;
    s.warmup_ops = 3000;
    s.exact_window = 6000;
  } else if (name == "snapshot_rw") {
    s.pool_frames = 16384;
    s.transactional = true;
    s.read_txns = true;
    s.warmup_ops = 20000;
    s.exact_window = 6000;
  } else {
    return false;
  }
  *out = s;
  return true;
}

const char* DurabilityName(storage::DurabilityMode mode) {
  switch (mode) {
    case storage::DurabilityMode::kOff: return "off";
    case storage::DurabilityMode::kGroup: return "group";
    case storage::DurabilityMode::kPage: return "page";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// One set-up system: base, ASR, and (per workload) MVCC and WAL.

class Rig {
 public:
  Rig(const Spec& spec, uint64_t seed, const std::string& dir)
      : spec_(spec), dir_(dir) {
    storage::DiskOptions disk;
    disk.backend = spec.backend;
    disk.durability = spec.durability;
    disk.flush_batch = 64;
    disk.mmap_reads = true;
    if (spec.backend == storage::BackendKind::kFile) {
      std::filesystem::create_directories(dir_);
      disk.file_dir = dir_;
    }
    workload::GenerateOptions gen;
    gen.seed = seed;
    gen.buffer_capacity = spec.pool_frames;
    gen.disk = disk;
    base_ = Must(workload::SyntheticBase::Generate(Fig4Profile(), gen),
                 "generate base");
    if (spec.transactional) base_->disk()->AttachMvcc(&mvcc_);
    if (spec.wal) {
      wal_ = Must(storage::WriteAheadLog::Open(dir_ + "/journal.wal"),
                  "open WAL");
      mvcc_.AttachWal(wal_.get());
    }
    AsrOptions options;
    options.drop_set_columns = true;
    options.bulk_load = true;
    options.fill_factor = btree::BTree::kDefaultFillFactor;
    options.build_threads = 1;
    options.transactional = spec.transactional;
    options.txn_max_retries = 8;
    options.txn_backoff_us = 100;
    asr_ = Must(AccessSupportRelation::Build(
                    base_->store(), base_->path(), ExtensionKind::kFull,
                    Decomposition::Binary(base_->path().n()), options),
                "build ASR");
    if (wal_ != nullptr) asr_->mutable_journal()->AttachWal(wal_.get());

    pools_.push_back(base_->buffers());
    for (size_t i = 0; i < asr_->partition_count(); ++i) {
      storage::BufferManager* pool = asr_->partition_store(i)->buffers;
      if (std::find(pools_.begin(), pools_.end(), pool) == pools_.end()) {
        pools_.push_back(pool);
      }
    }
    // Update owners: position-p objects whose set attribute A_{p+1} is
    // defined. Updates never create or drop sets, so d_p stays at the
    // profile's value.
    owners_.resize(base_->n());
    for (uint32_t p : {2u, 3u}) {
      const std::string& attr = base_->path().step(p + 1).attr_name;
      for (Oid u : base_->objects_at(p)) {
        AsrKey set = Must(base_->store()->GetAttributeByName(u, attr),
                          "read owner set");
        if (!set.IsNull()) owners_[p].push_back(u);
      }
    }
  }

  ~Rig() {
    asr_.reset();
    wal_.reset();
    base_.reset();
    if (!dir_.empty() && spec_.backend == storage::BackendKind::kFile) {
      std::error_code ec;
      std::filesystem::remove_all(dir_, ec);
    }
  }
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  const Spec& spec() const { return spec_; }
  workload::SyntheticBase* base() { return base_.get(); }
  AccessSupportRelation* asr() { return asr_.get(); }
  storage::WriteAheadLog* wal() { return wal_.get(); }
  storage::MvccManager* mvcc() {
    return spec_.transactional ? &mvcc_ : nullptr;
  }
  const std::vector<storage::BufferManager*>& pools() const { return pools_; }
  const std::vector<Oid>& owners(uint32_t p) const { return owners_[p]; }

  // Logical page accesses: buffer pins over every distinct pool.
  uint64_t Pins() const {
    uint64_t n = 0;
    for (const storage::BufferManager* pool : pools_) {
      n += pool->hits() + pool->misses();
    }
    return n;
  }

 private:
  Spec spec_;
  std::string dir_;
  // Declaration order is teardown order reversed: the MVCC manager outlives
  // the disk inside base_, and the ASR goes before the base it reads.
  storage::MvccManager mvcc_;
  std::unique_ptr<workload::SyntheticBase> base_;
  std::unique_ptr<storage::WriteAheadLog> wal_;
  std::unique_ptr<AccessSupportRelation> asr_;
  std::vector<storage::BufferManager*> pools_;
  std::vector<std::vector<Oid>> owners_;  // by path position
};

// ---------------------------------------------------------------------------
// Layer counters, read through public getters only.

struct TreeCounts {
  uint64_t descents = 0, leaf = 0, inner = 0, splits = 0;
};

// Live trees are single-writer: read them only from the thread that
// maintains the ASR, or at quiescent points.
TreeCounts ReadTrees(AccessSupportRelation* asr) {
  TreeCounts t;
  for (size_t i = 0; i < asr->partition_count(); ++i) {
    for (const btree::BTree* tree :
         {&asr->forward_tree(i), &asr->backward_tree(i)}) {
      t.descents += tree->descents();
      t.leaf += tree->leaf_touches();
      t.inner += tree->inner_touches();
      t.splits += tree->splits();
    }
  }
  return t;
}

struct Counters {
  uint64_t hits = 0, misses = 0, evictions = 0, writebacks = 0;
  uint64_t writeback_us = 0, flush_run_us = 0;  // file backend only
  uint64_t disk_reads = 0, disk_writes = 0, tree_reads = 0, object_reads = 0;
  uint64_t disk_syncs = 0;
  uint64_t wal_syncs = 0, wal_bytes = 0;
  obs::HistogramSnapshot wal_sync;
  uint64_t commits = 0, conflicts = 0, aborted = 0;
  uint64_t pins() const { return hits + misses; }
};

Counters ReadCounters(Rig* rig) {
  Counters c;
  for (const storage::BufferManager* pool : rig->pools()) {
    c.hits += pool->hits();
    c.misses += pool->misses();
    c.evictions += pool->evictions();
    c.writebacks += pool->writebacks();
    c.writeback_us += pool->writeback_latency().sum;
    c.flush_run_us += pool->flush_run_latency().sum;
  }
  storage::Disk* disk = rig->base()->disk();
  storage::AccessStats all = disk->stats();
  c.disk_reads = all.reads();
  c.disk_writes = all.writes();
  for (uint32_t s = 0; s < disk->segment_count(); ++s) {
    const uint64_t reads = disk->segment_stats(s).reads();
    if (disk->SegmentName(s).rfind("btree:", 0) == 0) {
      c.tree_reads += reads;
    } else {
      c.object_reads += reads;
    }
  }
  c.disk_syncs = disk->sync_requests();
  if (rig->wal() != nullptr) {
    c.wal_syncs = rig->wal()->syncs();
    c.wal_bytes = rig->wal()->bytes_appended();
    c.wal_sync = rig->wal()->sync_latency();
  }
  if (rig->mvcc() != nullptr) {
    c.commits = rig->mvcc()->commits().value();
    c.conflicts = rig->mvcc()->conflicts().value();
  }
  c.aborted = rig->asr()->journal().aborted();
  return c;
}

// ---------------------------------------------------------------------------
// Tracing: spans recorded around the benchmark's own calls into each layer.

enum Layer : uint8_t { kOp, kGom, kAsr, kMvcc };
const char* const kLayerNames[] = {"op", "gom", "asr", "storage.mvcc"};

struct SpanRec {
  uint64_t op = 0;
  int64_t start_ns = 0, end_ns = 0;
  int32_t parent = -1;  // index in the same log; -1 for an op's root span
  Layer layer = kOp;
  const char* name = "";
  uint64_t pins = 0;  // live-pool buffer pins inside the span
};

// Span log, kept in memory and written out at the end of the
// run. Spans beyond the cap are dropped.
class SpanLog {
 public:
  static constexpr size_t kCap = 200000;
  int32_t Add(const SpanRec& s) {
    if (spans_.size() >= kCap) return -1;
    spans_.push_back(s);
    return static_cast<int32_t>(spans_.size() - 1);
  }
  SpanRec* at(int32_t idx) { return idx < 0 ? nullptr : &spans_[idx]; }
  const std::vector<SpanRec>& spans() const { return spans_; }

 private:
  std::vector<SpanRec> spans_;
};

// Per-operation trace context: the op's root span plus per-layer sums that
// feed the per-layer metrics. Null when tracing is off.
struct OpTrace {
  SpanLog* log = nullptr;
  const Rig* rig = nullptr;
  uint64_t op = 0;
  int32_t root = -1;
  int64_t gom_ns = 0, asr_ns = 0, open_ns = 0, eval_ns = 0, release_ns = 0;
  uint64_t gom_pins = 0;
};

// Runs `f` (one call into `layer`) and, when tracing, records its span and
// adds its duration to the op's sum `into`.
template <typename F>
auto Traced(OpTrace* t, Layer layer, const char* name,
            int64_t OpTrace::*into, F&& f) {
  if (t == nullptr) return f();
  const uint64_t pins0 = t->rig->Pins();
  const int64_t start = NowNs();
  auto result = f();
  const int64_t end = NowNs();
  const uint64_t pins = t->rig->Pins() - pins0;
  t->log->Add({t->op, start, end, t->root, layer, name, pins});
  t->*into += end - start;
  if (layer == kGom) t->gom_pins += pins;
  return result;
}

// ---------------------------------------------------------------------------
// Operations

struct OpOutcome {
  bool ok = true;
  uint64_t result_keys = 0;
  // Read transactions only: the time and tree pages of the transaction's
  // own calls, without the updates run between them.
  int64_t own_ns = -1;
  uint64_t own_pages = 0;
};

struct QueryDraw {
  const cost::WeightedQuery* q;
  AsrKey anchor;
};

QueryDraw DrawQuery(workload::SyntheticBase* base,
                    const cost::OperationMix& mix, Rng* rng) {
  const double roll = rng->NextDouble();
  double cumulative = 0;
  const cost::WeightedQuery* pick = &mix.queries.back();
  for (const cost::WeightedQuery& q : mix.queries) {
    cumulative += q.weight;
    if (roll < cumulative) {
      pick = &q;
      break;
    }
  }
  const auto& anchors = base->objects_at(
      pick->dir == cost::QueryDirection::kForward ? pick->i : pick->j);
  return {pick, AsrKey::FromOid(anchors[rng->Uniform(anchors.size())])};
}

Result<std::vector<AsrKey>> EvalLive(AccessSupportRelation* asr,
                                     const QueryDraw& d) {
  return d.q->dir == cost::QueryDirection::kForward
             ? asr->EvalForward(d.anchor, d.q->i, d.q->j)
             : asr->EvalBackward(d.anchor, d.q->i, d.q->j);
}

OpOutcome RunQuery(Rig* rig, const cost::OperationMix& mix, Rng* rng,
                   OpTrace* t) {
  QueryDraw d = DrawQuery(rig->base(), mix, rng);
  Result<std::vector<AsrKey>> r =
      Traced(t, kAsr,
             d.q->dir == cost::QueryDirection::kForward
                 ? "AccessSupportRelation::EvalForward"
                 : "AccessSupportRelation::EvalBackward",
             &OpTrace::asr_ns, [&] { return EvalLive(rig->asr(), d); });
  if (!r.ok()) return {false, 0};
  return {true, r->size()};
}

// One balanced update: remove a random current member of u's set or insert
// a random non-member, with equal probability, so fan-out and the ASR's
// size stay stationary over a long run. An edge operation that the ASR
// refuses (an exhausted transaction retry) is compensated in the object
// store, so base and ASR stay in agreement and the op counts as failed.
OpOutcome RunUpdate(Rig* rig, const cost::OperationMix& mix, Rng* rng,
                    OpTrace* t) {
  workload::SyntheticBase* base = rig->base();
  gom::ObjectStore* store = base->store();
  const uint32_t p =
      rng->NextDouble() < mix.updates[0].weight ? mix.updates[0].position
                                                 : mix.updates[1].position;
  const std::vector<Oid>& owners = rig->owners(p);
  const Oid u = owners[rng->Uniform(owners.size())];
  const std::string& attr = base->path().step(p + 1).attr_name;
  const std::vector<Oid>& targets = base->objects_at(p + 1);
  bool remove = rng->Bernoulli(0.5);

  Result<AsrKey> set_key =
      Traced(t, kGom, "ObjectStore::GetAttributeByName", &OpTrace::gom_ns,
             [&] { return store->GetAttributeByName(u, attr); });
  if (!set_key.ok() || set_key->IsNull()) return {false, 0};
  const Oid set = set_key->ToOid();

  AsrKey w;
  if (remove) {
    Result<gom::SetView> view =
        Traced(t, kGom, "ObjectStore::GetSet", &OpTrace::gom_ns,
               [&] { return store->GetSet(set); });
    if (!view.ok()) return {false, 0};
    if (view->members.empty()) {
      remove = false;
    } else {
      w = view->members[rng->Uniform(view->members.size())];
    }
  }
  if (!remove) {
    for (;;) {
      w = AsrKey::FromOid(targets[rng->Uniform(targets.size())]);
      Result<bool> member =
          Traced(t, kGom, "ObjectStore::SetContains", &OpTrace::gom_ns,
                 [&] { return store->SetContains(set, w); });
      if (!member.ok()) return {false, 0};
      if (!*member) break;
    }
  }

  Status st = Traced(
      t, kGom, remove ? "ObjectStore::RemoveFromSet" : "ObjectStore::AddToSet",
      &OpTrace::gom_ns, [&] {
        return remove ? store->RemoveFromSet(set, w) : store->AddToSet(set, w);
      });
  if (!st.ok()) return {false, 0};
  st = Traced(t, kAsr,
              remove ? "AccessSupportRelation::OnEdgeRemoved"
                     : "AccessSupportRelation::OnEdgeInserted",
              &OpTrace::asr_ns, [&] {
                return remove ? rig->asr()->OnEdgeRemoved(u, p, w)
                              : rig->asr()->OnEdgeInserted(u, p, w);
              });
  if (st.ok()) return {true, 0};
  Status undo =
      remove ? store->AddToSet(set, w) : store->RemoveFromSet(set, w);
  if (!undo.ok()) Die("compensating object-store change: " + undo.ToString());
  return {false, 0};
}

// Tree-segment page reads of the disk. A snapshot pins through a private
// pool with no public counters; each of its misses is one such read.
uint64_t TreeReads(Rig* rig) {
  storage::Disk* disk = rig->base()->disk();
  uint64_t n = 0;
  for (uint32_t s = 0; s < disk->segment_count(); ++s) {
    if (disk->SegmentName(s).rfind("btree:", 0) == 0) {
      n += disk->segment_stats(s).reads();
    }
  }
  return n;
}

// One snapshot read transaction: OpenSnapshot, `k` backward Q_{0,4} with
// `between` run after the first half of them, release.
OpOutcome RunReadTxn(Rig* rig, uint32_t k, Rng* rng, OpTrace* t,
                     const std::function<void()>& between) {
  const std::vector<Oid>& targets = rig->base()->objects_at(4);
  OpOutcome out;
  out.own_ns = 0;
  auto own = [&](auto&& call) {
    const uint64_t reads0 = TreeReads(rig);
    const int64_t t0 = NowNs();
    auto result = call();
    out.own_ns += NowNs() - t0;
    out.own_pages += TreeReads(rig) - reads0;
    return result;
  };
  Result<std::unique_ptr<AsrSnapshot>> snap = own([&] {
    return Traced(t, kAsr, "AccessSupportRelation::OpenSnapshot",
                  &OpTrace::open_ns,
                  [&] { return rig->asr()->OpenSnapshot(); });
  });
  if (!snap.ok()) {
    out.ok = false;
    return out;
  }
  for (uint32_t q = 0; q < k; ++q) {
    AsrKey target = AsrKey::FromOid(targets[rng->Uniform(targets.size())]);
    Result<std::vector<AsrKey>> r = own([&] {
      return Traced(t, kAsr, "AsrSnapshot::EvalBackward", &OpTrace::eval_ns,
                    [&] { return (*snap)->EvalBackward(target, 0, 4); });
    });
    if (!r.ok()) {
      out.ok = false;
    } else {
      out.result_keys += r->size();
    }
    if (q + 1 == k / 2) between();
  }
  own([&] {
    return Traced(t, kMvcc, "AsrSnapshot release", &OpTrace::release_ns, [&] {
      snap->reset();
      return 0;
    });
  });
  return out;
}

// ---------------------------------------------------------------------------
// Statistics

// Latencies in microseconds; a failed op is +inf, so it misses every limit.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  const size_t idx = std::min(
      v.size() - 1, static_cast<size_t>(std::ceil(q * v.size())) - 1);
  std::nth_element(v.begin(), v.begin() + idx, v.end());
  return v[idx];
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

const char* FsName(const std::string& dir) {
  struct statfs fs;
  if (statfs(dir.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<uint64_t>(fs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x6969: return "nfs";
    case 0x65735546: return "fuse";
    default: return "other";
  }
}

// ---------------------------------------------------------------------------
// Loops

// Latencies (us; +inf for a failed op) and completions, bucketed into equal
// slices of the timed loop by completion time. Timings are the median over
// the slices, so a burst of outside load in one slice does not move them.
struct Windowed {
  static constexpr int kSlices = 10;
  int64_t start_ns = 0, slice_ns = 1;
  // Deques grow in small blocks, so the samples' memory tracks their count
  // and does not jump with vector doubling (peak_rss_mb covers the loop).
  std::deque<double> us[2][kSlices];  // [update][slice]
  uint64_t completed[kSlices] = {};

  void Start(int64_t now, double seconds) {
    start_ns = now;
    slice_ns =
        std::max<int64_t>(1, static_cast<int64_t>(seconds * 1e9 / kSlices));
  }
  void Add(bool update, int64_t end_ns, double latency_us) {
    const int64_t k = std::clamp<int64_t>((end_ns - start_ns) / slice_ns, 0,
                                          kSlices - 1);
    us[update][k].push_back(latency_us);
    if (std::isfinite(latency_us)) ++completed[k];
  }
  size_t count(bool update) const {
    size_t n = 0;
    for (const auto& v : us[update]) n += v.size();
    return n;
  }
  // A percentile that lands on a failed op reads as the whole loop.
  double Percentile(bool update, double q, double loop_seconds) const;
  // The last slice also holds ops that finished after the nominal end.
  double OpsPerSecond(int64_t end_ns) const;
};

double Windowed::Percentile(bool update, double q, double loop_seconds) const {
  std::vector<double> per_slice;
  for (const std::deque<double>& v : us[update]) {
    if (v.empty()) continue;
    const double x =
        ::Percentile(std::vector<double>(v.begin(), v.end()), q);
    per_slice.push_back(std::isfinite(x) ? x : loop_seconds * 1e6);
  }
  return Median(per_slice);
}

double Windowed::OpsPerSecond(int64_t end_ns) const {
  std::vector<double> rates;
  for (int k = 0; k < kSlices; ++k) {
    const int64_t len =
        k + 1 < kSlices ? slice_ns : end_ns - start_ns - k * slice_ns;
    if (len > 0) rates.push_back(completed[k] / (len / 1e9));
  }
  return Median(rates);
}

struct LoopResult {
  double seconds = 0;
  uint64_t attempted = 0, failed = 0;
  uint64_t queries = 0, updates = 0;
  Windowed lat;
  // Page accesses of queries and updates over the loop: buffer pins, or a
  // read transaction's snapshot page reads (RunReadTxn).
  uint64_t query_pins = 0, update_pins = 0;
  // The same over the exact window, plus the window's other counters.
  uint64_t window_query_pins = 0, window_update_pins = 0, window_queries = 0,
           window_updates = 0;
  Counters window_begin, window_end;
  uint64_t window_asr_pages = 0;
  Counters loop_begin, loop_end;  // whole loop, for the per-layer metrics
  // Tracing.
  uint64_t result_keys = 0;
  std::vector<double> gom_us, maint_us, open_us;
  uint64_t gom_pins = 0;
  int64_t op_ns = 0, gom_ns = 0, asr_ns = 0, open_ns = 0, eval_ns = 0,
          release_ns = 0;
  TreeCounts query_trees, update_trees;
  uint64_t retained_max = 0, live_snapshots_max = 0;
  SpanLog log;
};

constexpr double kFailed = std::numeric_limits<double>::infinity();

TreeCounts Diff(const TreeCounts& a, const TreeCounts& b) {
  return {a.descents - b.descents, a.leaf - b.leaf, a.inner - b.inner,
          a.splits - b.splits};
}
void Accumulate(TreeCounts* into, const TreeCounts& d) {
  into->descents += d.descents;
  into->leaf += d.leaf;
  into->inner += d.inner;
  into->splits += d.splits;
}

// The workload's warm-up: its op stream, untimed and unrecorded (all
// updates for read_txns workloads).
void WarmUp(Rig* rig, Rng* rng) {
  const cost::OperationMix mix = Fig14Mix();
  for (uint64_t op = 0; op < rig->spec().warmup_ops; ++op) {
    const bool update =
        rig->spec().read_txns || rng->Bernoulli(rig->spec().p_up);
    OpOutcome out = update ? RunUpdate(rig, mix, rng, nullptr)
                           : RunQuery(rig, mix, rng, nullptr);
    if (!out.ok) Die("operation failed during warm-up");
  }
}

// One closed-loop client. Runs for `seconds`, and at least the exact window
// (`window` ops, whose metered counts are recorded separately). With
// `max_ops` > 0 it stops after that many ops instead (the exact-count probe).
// The updates a read transaction runs between its queries are ops of their
// own, numbered and recorded like any other. `pause`, if set, runs once as
// each slice after the first begins (never inside the exact window); the
// loop's clock stops while it runs.
LoopResult RunClosedLoop(Rig* rig, Rng* rng, double seconds,
                         uint64_t window, uint64_t max_ops, bool trace,
                         const std::function<void()>& pause = nullptr) {
  const cost::OperationMix mix = Fig14Mix();
  const Spec& spec = rig->spec();
  const bool transactional = rig->mvcc() != nullptr;
  LoopResult res;
  res.window_begin = ReadCounters(rig);
  int64_t start = NowNs();
  int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  res.lat.Start(start, seconds);
  int64_t paused_slice = 0;
  uint64_t next_op = 0;
  std::function<void(bool)> run_op = [&](bool update) {
    const uint64_t op = next_op++;
    if (op == window) {
      res.window_end = ReadCounters(rig);
      res.window_asr_pages = rig->asr()->TotalPages();
    }
    const bool in_window = op < window;
    const bool txn = !update && spec.read_txns;
    OpTrace trace_ctx;
    OpTrace* t = nullptr;
    TreeCounts trees0;
    if (trace) {
      trace_ctx.log = &res.log;
      trace_ctx.rig = rig;
      trace_ctx.op = op;
      trace_ctx.root = res.log.Add(
          {op, 0, 0, -1, kOp, update ? "update" : txn ? "read_txn" : "query",
           0});
      t = &trace_ctx;
      trees0 = ReadTrees(rig->asr());
    }
    const uint64_t pins0 = rig->Pins();
    const int64_t t0 = NowNs();
    OpOutcome out =
        update ? RunUpdate(rig, mix, rng, t)
        : txn  ? RunReadTxn(rig, spec.queries_per_txn, rng, t,
                            [&] { run_op(true); })
               : RunQuery(rig, mix, rng, t);
    const int64_t t1 = NowNs();
    const int64_t ns = txn ? out.own_ns : t1 - t0;
    const uint64_t pins = txn ? out.own_pages : rig->Pins() - pins0;
    const double us = out.ok ? ns / 1e3 : kFailed;
    ++res.attempted;
    if (!out.ok) ++res.failed;
    if (update) {
      ++res.updates;
      res.update_pins += pins;
      res.lat.Add(true, t1, us);
      if (in_window) {
        res.window_update_pins += pins;
        ++res.window_updates;
      }
    } else {
      ++res.queries;
      res.query_pins += pins;
      res.lat.Add(false, t1, us);
      if (in_window) {
        res.window_query_pins += pins;
        ++res.window_queries;
      }
    }
    if (!trace) return;
    SpanRec* root = res.log.at(trace_ctx.root);
    if (root != nullptr) {
      root->start_ns = t0;
      root->end_ns = t1;
      root->pins = pins;
    }
    res.op_ns += ns;
    res.gom_ns += trace_ctx.gom_ns;
    res.asr_ns += trace_ctx.asr_ns;
    res.open_ns += trace_ctx.open_ns;
    res.eval_ns += trace_ctx.eval_ns;
    res.release_ns += trace_ctx.release_ns;
    if (update) {
      res.gom_us.push_back(trace_ctx.gom_ns / 1e3);
      res.gom_pins += trace_ctx.gom_pins;
      res.maint_us.push_back(trace_ctx.asr_ns / 1e3);
      Accumulate(&res.update_trees, Diff(ReadTrees(rig->asr()), trees0));
    } else {
      res.result_keys += out.result_keys;
      if (txn) {
        // Snapshot trees are private to the snapshot; the live trees'
        // counters moved only for the updates run inside the transaction.
        res.open_us.push_back(trace_ctx.open_ns / 1e3);
      } else {
        Accumulate(&res.query_trees, Diff(ReadTrees(rig->asr()), trees0));
      }
    }
    // Sampled after every 64th update, which in snapshot_rw runs while a
    // snapshot is open; retained_pages() walks the whole version table.
    if (transactional && update && res.updates % 64 == 0) {
      res.retained_max = std::max<uint64_t>(res.retained_max,
                                            rig->mvcc()->retained_pages());
      res.live_snapshots_max = std::max<uint64_t>(
          res.live_snapshots_max, rig->mvcc()->live_snapshots());
    }
  };
  while (max_ops > 0 ? next_op < max_ops
                     : next_op < window || NowNs() < deadline) {
    run_op(rng->Bernoulli(spec.p_up));
    if (!pause || next_op <= window) continue;
    const int64_t now = NowNs();
    const int64_t slice = (now - res.lat.start_ns) / res.lat.slice_ns;
    if (slice <= paused_slice || slice >= Windowed::kSlices) continue;
    paused_slice = slice;
    pause();
    const int64_t paused = NowNs() - now;
    start += paused;
    deadline += paused;
    res.lat.start_ns += paused;
  }
  if (next_op == window) {
    res.window_end = ReadCounters(rig);
    res.window_asr_pages = rig->asr()->TotalPages();
  }
  res.seconds = (NowNs() - start) / 1e9;
  res.loop_begin = res.window_begin;
  res.loop_end = ReadCounters(rig);
  return res;
}

// ---------------------------------------------------------------------------
// Correctness

std::vector<AsrKey> Sorted(std::vector<AsrKey> v) {
  std::sort(v.begin(), v.end());
  return v;
}

// Answers of a fixed seeded query sample: live ASR, object-base navigation
// and (transactional workloads) an OpenSnapshot reader must agree.
bool CheckAnswers(Rig* rig, uint64_t seed,
                  std::vector<std::vector<AsrKey>>* live_out,
                  std::string* why) {
  const cost::OperationMix mix = Fig14Mix();
  workload::SyntheticBase* base = rig->base();
  QueryEvaluator nav(base->store(), &base->path());
  std::unique_ptr<AsrSnapshot> snap;
  if (rig->mvcc() != nullptr) {
    Result<std::unique_ptr<AsrSnapshot>> s = rig->asr()->OpenSnapshot();
    if (!s.ok()) {
      *why = "OpenSnapshot: " + s.status().ToString();
      return false;
    }
    snap = std::move(*s);
  }
  Rng rng(seed ^ 0xA5A5A5A5DEADBEEFull);
  for (int n = 0; n < 48; ++n) {
    QueryDraw d = DrawQuery(base, mix, &rng);
    const bool fw = d.q->dir == cost::QueryDirection::kForward;
    Result<std::vector<AsrKey>> live = EvalLive(rig->asr(), d);
    Result<std::vector<AsrKey>> navr =
        fw ? nav.ForwardNoSupport(d.anchor, d.q->i, d.q->j)
           : nav.BackwardNoSupport(d.anchor, d.q->i, d.q->j);
    if (!live.ok() || !navr.ok()) {
      *why = "query failed during the answer check";
      return false;
    }
    std::vector<AsrKey> expect = Sorted(*navr);
    if (Sorted(*live) != expect) {
      *why = "live ASR answer differs from navigation for " + d.q->ToString();
      return false;
    }
    if (snap != nullptr) {
      Result<std::vector<AsrKey>> s =
          fw ? snap->EvalForward(d.anchor, d.q->i, d.q->j)
             : snap->EvalBackward(d.anchor, d.q->i, d.q->j);
      if (!s.ok() || Sorted(*s) != expect) {
        *why = "snapshot answer differs from navigation for " +
               d.q->ToString();
        return false;
      }
    }
    if (live_out != nullptr) live_out->push_back(std::move(expect));
  }
  return true;
}

bool CheckInvariants(Rig* rig, std::string* why) {
  check::CheckReport report;
  check::InvariantChecker().CheckAsr(rig->asr(), &report);
  if (!report.clean()) {
    *why = "invariant checker: " + report.ToString();
    return false;
  }
  return true;
}

Status FlushPools(Rig* rig) {
  for (storage::BufferManager* pool : rig->pools()) {
    ASR_RETURN_IF_ERROR(pool->FlushAll());
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Output

struct Metric {
  std::string name, unit;
  double value;
};

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& v) {
  std::string out = "\"";
  for (char c : v) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// Names of the ASR_* environment variables that are set. The benchmark
// passes explicit options everywhere, so none of them changes a workload;
// they are recorded to make that visible.
std::string AsrEnvNames() {
  std::string names;
  for (char** e = environ; *e != nullptr; ++e) {
    std::string kv = *e;
    if (kv.rfind("ASR_", 0) != 0) continue;
    if (!names.empty()) names += ',';
    names += kv.substr(0, kv.find('='));
  }
  return names;
}

double OpsPerSecond(const LoopResult& r) {
  return r.lat.OpsPerSecond(r.lat.start_ns +
                            static_cast<int64_t>(r.seconds * 1e9));
}

std::vector<Metric> EndToEndMetrics(const LoopResult& res,
                                    const std::vector<double>& setup_s,
                                    uint64_t asr_pages,
                                    const std::vector<double>& recover_ms,
                                    double peak_rss_mb) {
  return {
      {"setup_s", "s", Median(setup_s)},
      {"ops_per_s", "1/s", OpsPerSecond(res)},
      {"query_p50_us", "us", res.lat.Percentile(false, 0.5, res.seconds)},
      {"query_p99_us", "us", res.lat.Percentile(false, 0.99, res.seconds)},
      {"update_p50_us", "us", res.lat.Percentile(true, 0.5, res.seconds)},
      {"update_p99_us", "us", res.lat.Percentile(true, 0.99, res.seconds)},
      {"pages_per_query", "pages", Ratio(res.query_pins, res.queries)},
      {"pages_per_update", "pages", Ratio(res.update_pins, res.updates)},
      {"asr_pages", "pages", static_cast<double>(asr_pages)},
      {"ok_op_ratio", "ratio",
       Ratio(res.attempted - res.failed, res.attempted)},
      {"recover_ms", "ms", Median(recover_ms)},
      {"peak_rss_mb", "MB", peak_rss_mb},
  };
}

// Per-layer metrics of the traced loop `res`; `plain` is the untraced loop
// that ran just before it on the same rig.
std::vector<Metric> PerLayerMetrics(const Spec& spec, const LoopResult& res,
                                    const LoopResult& plain) {
  const Counters& b = res.loop_begin;
  const Counters& e = res.loop_end;
  const double ops = static_cast<double>(res.attempted);
  const double updates = static_cast<double>(res.updates);
  const double queries = static_cast<double>(res.queries);
  const uint64_t hits = e.hits - b.hits, misses = e.misses - b.misses;
  const obs::HistogramSnapshot wal_sync = e.wal_sync.DeltaSince(b.wal_sync);
  const uint64_t commits = e.commits - b.commits;
  const uint64_t conflicts = e.conflicts - b.conflicts;
  const TreeCounts& qt = res.query_trees;

  // The analytical model's pages for the workload's queries and updates
  // (Eqs. 33-36); a snapshot_rw query is one read transaction.
  const cost::CostModel model(Fig4Profile());
  const cost::OperationMix mix = Fig14Mix();
  const Decomposition binary = Decomposition::Binary(4);
  double model_query = 0, model_update = 0;
  for (const cost::WeightedQuery& q : mix.queries) {
    model_query += q.weight * model.QueryCost(ExtensionKind::kFull, q.dir,
                                              q.i, q.j, binary);
  }
  if (spec.read_txns) {
    model_query = spec.queries_per_txn *
                  model.QueryCost(ExtensionKind::kFull,
                                  cost::QueryDirection::kBackward, 0, 4,
                                  binary);
  }
  for (const cost::WeightedUpdate& u : mix.updates) {
    model_update +=
        u.weight * model.UpdateCost(ExtensionKind::kFull, u.position, binary);
  }

  // Layer time outside the benchmark's own spans: WAL fsyncs and buffer
  // write-back/flush runs (the latter are timed on the file backend only).
  const double op_us = res.op_ns / 1e3;
  const double wal_us = static_cast<double>(wal_sync.sum);
  const double io_us = static_cast<double>(
      (e.writeback_us - b.writeback_us) + (e.flush_run_us - b.flush_run_us));
  const double ops_per_s = OpsPerSecond(res);

  return {
      {"trace.ops_per_s", "1/s", ops_per_s},
      {"trace.overhead_ratio", "ratio", Ratio(OpsPerSecond(plain), ops_per_s)},
      {"gom.update_us_p50", "us", Median(res.gom_us)},
      {"gom.pages_per_update", "pages", Ratio(res.gom_pins, updates)},
      {"gom.time_share", "ratio", Ratio(res.gom_ns / 1e3, op_us)},
      {"asr.maint_us_p50", "us", Median(res.maint_us)},
      {"asr.maint_us_p99", "us", Percentile(res.maint_us, 0.99)},
      {"asr.pages_per_result_key", "pages",
       Ratio(res.query_pins, res.result_keys)},
      {"asr.snapshot_open_us_p50", "us", Median(res.open_us)},
      {"asr.aborted_ops", "count", static_cast<double>(e.aborted - b.aborted)},
      {"asr.time_share", "ratio",
       Ratio(res.asr_ns / 1e3 - wal_us - io_us, op_us)},
      {"asr.snapshot_open_time_share", "ratio",
       Ratio(res.open_ns / 1e3, op_us)},
      {"asr.snapshot_eval_time_share", "ratio",
       Ratio(res.eval_ns / 1e3, op_us)},
      {"btree.descents_per_query", "count", Ratio(qt.descents, queries)},
      {"btree.leaf_touches_per_descent", "count",
       Ratio(qt.leaf, qt.descents)},
      {"btree.inner_touches_per_descent", "count",
       Ratio(qt.inner, qt.descents)},
      {"btree.splits_per_update", "count",
       Ratio(res.update_trees.splits, updates)},
      {"buffer.hit_ratio", "ratio", Ratio(hits, hits + misses)},
      {"buffer.misses_per_op", "count", Ratio(misses, ops)},
      {"buffer.evictions_per_op", "count",
       Ratio(e.evictions - b.evictions, ops)},
      {"buffer.writebacks_per_op", "count",
       Ratio(e.writebacks - b.writebacks, ops)},
      {"disk.reads_per_op", "pages", Ratio(e.disk_reads - b.disk_reads, ops)},
      {"disk.writes_per_op", "pages",
       Ratio(e.disk_writes - b.disk_writes, ops)},
      {"disk.tree_reads_per_op", "pages",
       Ratio(e.tree_reads - b.tree_reads, ops)},
      {"disk.object_reads_per_op", "pages",
       Ratio(e.object_reads - b.object_reads, ops)},
      {"disk.syncs_per_update", "count",
       Ratio(e.disk_syncs - b.disk_syncs, updates)},
      {"disk.writeback_time_share", "ratio", Ratio(io_us, op_us)},
      {"wal.syncs_per_update", "count",
       Ratio(e.wal_syncs - b.wal_syncs, updates)},
      {"wal.bytes_per_update", "bytes",
       Ratio(e.wal_bytes - b.wal_bytes, updates)},
      {"wal.sync_p50_us", "us", static_cast<double>(wal_sync.P50())},
      {"wal.sync_p99_us", "us", static_cast<double>(wal_sync.P99())},
      {"wal.time_share", "ratio", Ratio(wal_us, op_us)},
      {"mvcc.commits_per_update", "count", Ratio(commits, updates)},
      {"mvcc.conflict_ratio", "ratio", Ratio(conflicts, commits + conflicts)},
      {"mvcc.retained_pages_max", "pages",
       static_cast<double>(res.retained_max)},
      {"mvcc.live_snapshots_max", "count",
       static_cast<double>(res.live_snapshots_max)},
      {"mvcc.snapshot_release_time_share", "ratio",
       Ratio(res.release_ns / 1e3, op_us)},
      {"cost.model_pages_per_query", "pages", model_query},
      {"cost.model_pages_per_update", "pages", model_update},
      {"cost.query_model_ratio", "ratio",
       Ratio(Ratio(res.query_pins, queries), model_query)},
      {"cost.update_model_ratio", "ratio",
       Ratio(Ratio(res.update_pins, updates), model_update)},
  };
}

// The metered counts of the exact window. Single-threaded runs repeat them
// bit-exactly for one seed.
struct Fingerprint {
  uint64_t query_pins, update_pins, queries, updates, asr_pages, reads,
      writes, syncs, wal_syncs;
  bool operator==(const Fingerprint&) const = default;
};

Fingerprint WindowFingerprint(const LoopResult& r) {
  const Counters& b = r.window_begin;
  const Counters& e = r.window_end;
  return {r.window_query_pins,
          r.window_update_pins,
          r.window_queries,
          r.window_updates,
          r.window_asr_pages,
          e.disk_reads - b.disk_reads,
          e.disk_writes - b.disk_writes,
          e.disk_syncs - b.disk_syncs,
          e.wal_syncs - b.wal_syncs};
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string data_dir;
  std::string trace_out;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    if (i + 1 >= argc) Die("missing value for " + k);
    std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
      have_seed = true;
    } else if (k == "--seconds") {
      a.seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--data-dir") {
      a.data_dir = v;
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else {
      Die("unknown argument " + k);
    }
  }
  if (!have_workload || !have_seed) {
    Die("--workload and --seed are required");
  }
  if (!(a.seconds > 0 && a.seconds <= 120)) {
    Die("--seconds must be in (0, 120]");
  }
  if (a.data_dir.empty()) Die("--data-dir is required");
  return a;
}

void WriteTrace(const std::string& path, const LoopResult& res) {
  std::ofstream out(path);
  out << "op\tlayer\tname\tstart_ns\tend_ns\tparent\tpins\n";
  const std::vector<SpanRec>& spans = res.log.spans();
  int64_t t0 = INT64_MAX;
  for (const SpanRec& s : spans) t0 = std::min(t0, s.start_ns);
  for (const SpanRec& s : spans) {
    out << s.op << '\t' << kLayerNames[s.layer] << '\t' << s.name << '\t'
        << s.start_ns - t0 << '\t' << s.end_ns - t0 << '\t';
    if (s.parent < 0) {
      out << '-';
    } else {
      out << spans[s.parent].op;
    }
    out << '\t' << s.pins << '\n';
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  Spec spec;
  if (!FindSpec(args.workload, &spec)) {
    Die("unknown workload " + args.workload);
  }
  std::filesystem::create_directories(args.data_dir);
  const uint64_t op_seed =
      args.seed * 0x9E3779B97F4A7C15ull + 0x632BE59BD9B4E019ull;
  int rig_id = 0;
  auto rig_dir = [&] {
    return args.data_dir + "/" + spec.name + "-" + std::to_string(getpid()) +
           "-" + std::to_string(rig_id++);
  };

  bool correct = true;
  std::string why;

  // Set-up is timed kSetupRuns times; the median is setup_s. On
  // single-threaded workloads the first two set-ups also run the exact
  // window as a probe: at the run's seed its metered counts must repeat
  // bit-exactly in the timed loop, and at a second seed they must differ.
  constexpr int kSetupRuns = 3;
  std::vector<double> setup_s;
  auto timed_setup = [&](uint64_t seed) {
    const int64_t t0 = NowNs();
    auto rig = std::make_unique<Rig>(spec, seed, rig_dir());
    setup_s.push_back((NowNs() - t0) / 1e9);
    return rig;
  };
  // One clean Recover(), timed into `ms`.
  auto recover = [&](Rig* r, std::vector<double>* ms) {
    if (!correct) return;
    Must(FlushPools(r), "flush before Recover");
    RecoveryReport report;
    const int64_t t0 = NowNs();
    Status st = r->asr()->Recover(&report);
    ms->push_back((NowNs() - t0) / 1e6);
    if (!st.ok() || !report.clean) {
      correct = false;
      why = "clean Recover() failed: " + st.ToString() + " " +
            report.ToString();
    }
  };
  // recover_ms is timed on a replica: the first set-up, past warm-up (and
  // the exact window), kept through the untraced timed loop. At each slice
  // boundary the loop's clock stops while the replica runs one clean
  // Recover(), so the calls are spread over the loop like its other
  // timings. Bunched after the loop, their median moved by 25-35% between
  // runs: a shared host slows or speeds such calls for seconds at a time.
  // One call per pause: a call straight after another one ran 10-35%
  // slower, which split the samples into two groups.
  std::vector<double> recover_ms;
  std::unique_ptr<Rig> replica;
  const bool exact = spec.exact_window > 0;
  Fingerprint same{}, other{};
  for (int i = 0; i < kSetupRuns - 1; ++i) {
    auto rig = timed_setup(i == 1 ? args.seed + 0x5851F42D4C957F2Dull
                                  : args.seed);
    Rng rng(op_seed);
    WarmUp(rig.get(), &rng);
    if (exact) {
      LoopResult probe = RunClosedLoop(rig.get(), &rng, 0, spec.exact_window,
                                       spec.exact_window, false);
      (i == 0 ? same : other) = WindowFingerprint(probe);
    }
    if (i == 0 && !args.trace) {
      replica = std::move(rig);
      continue;
    }
    // Hand the freed rig back to the kernel, so peak_rss_mb reflects the
    // rigs held rather than how the heap happened to fragment across
    // set-ups.
    rig.reset();
    malloc_trim(0);
  }

  auto rig = timed_setup(args.seed);
  std::printf(
      "{\"config\": {\"workload\": \"%s\", \"seed\": %" PRIu64
      ", \"build_type\": \"%s\", \"compiler\": \"%s\", \"nproc\": %ld, "
      "\"backend\": \"%s\", \"data_fs\": \"%s\", \"durability\": \"%s\", "
      "\"pool_frames\": %zu, \"transactional\": %s, \"wal\": %s, "
      "\"asr_metrics\": \"%s\", \"asr_paranoid\": \"%s\", "
      "\"asr_env_ignored\": %s, \"p_up\": %.2f, \"read_txns\": %s, "
      "\"asr_pages_at_start\": %" PRIu64 "}}\n",
      spec.name.c_str(), args.seed, PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER,
      sysconf(_SC_NPROCESSORS_ONLN),
      spec.backend == storage::BackendKind::kFile ? "file" : "memory",
      FsName(args.data_dir), DurabilityName(spec.durability),
      spec.pool_frames, spec.transactional ? "true" : "false",
      spec.wal ? "true" : "false", ASR_METRICS_ENABLED ? "ON" : "OFF",
      ASR_PARANOID_ENABLED ? "ON" : "OFF", JsonString(AsrEnvNames()).c_str(),
      spec.p_up, spec.read_txns ? "true" : "false", rig->asr()->TotalPages());

  // With --trace 1 an untraced loop runs first on the same rig, a quarter as
  // long, so the traced loop's ops_per_s can be set against it (tracing
  // overhead). The peak RSS is taken after the untraced loop, before the
  // checks and the tracing allocate.
  Rng rng(op_seed);
  WarmUp(rig.get(), &rng);
  auto run_loop = [&](bool trace, double seconds,
                      const std::function<void()>& pause = nullptr) {
    return RunClosedLoop(rig.get(), &rng, seconds,
                         trace ? 0 : spec.exact_window, 0, trace, pause);
  };
  LoopResult plain =
      args.trace ? run_loop(false, args.seconds / 4)
                 : run_loop(false, args.seconds,
                            [&] { recover(replica.get(), &recover_ms); });
  const double peak_rss_mb = PeakRssMb();
  // A loop too short to pass a slice boundary after its exact window.
  if (replica && recover_ms.empty()) recover(replica.get(), &recover_ms);
  replica.reset();
  malloc_trim(0);
  LoopResult traced;
  if (args.trace) traced = run_loop(true, args.seconds);
  const LoopResult& res = args.trace ? traced : plain;

  if (exact) {
    if (!(WindowFingerprint(plain) == same)) {
      correct = false;
      why = "metered counts of the exact window did not repeat for one seed";
    } else if (WindowFingerprint(plain) == other) {
      correct = false;
      why = "metered counts of the exact window did not change with the seed";
    }
  }

  // Correctness after the timed loop(s), then across a clean Recover().
  std::vector<std::vector<AsrKey>> answers;
  const uint64_t asr_pages = rig->asr()->TotalPages();
  if (correct) correct = CheckInvariants(rig.get(), &why);
  if (correct) correct = CheckAnswers(rig.get(), args.seed, &answers, &why);
  std::vector<double> unreported_ms;
  recover(rig.get(), &unreported_ms);
  if (correct) {
    std::vector<std::vector<AsrKey>> after;
    correct = CheckAnswers(rig.get(), args.seed, &after, &why);
    if (correct && after != answers) {
      correct = false;
      why = "answers changed across Recover()";
    }
  }

  const std::vector<Metric> metrics =
      args.trace ? PerLayerMetrics(spec, res, plain)
                 : EndToEndMetrics(res, setup_s, asr_pages, recover_ms,
                                   peak_rss_mb);
  if (args.trace && !args.trace_out.empty()) WriteTrace(args.trace_out, res);

  std::string recover_calls;
  for (double ms : recover_ms) {
    if (!recover_calls.empty()) recover_calls += ", ";
    recover_calls += JsonNumber(ms);
  }
  std::printf(
      "{\"info\": {\"seconds\": %.3f, \"query_samples\": %zu, "
      "\"update_samples\": %zu, \"slices\": %d, \"setup_runs\": %zu, "
      "\"recover_calls_ms\": [%s], \"exact_window_ops\": %" PRIu64 ", "
      "\"why_incorrect\": %s}}\n",
      res.seconds, res.lat.count(false), res.lat.count(true),
      Windowed::kSlices, setup_s.size(), recover_calls.c_str(),
      spec.exact_window, JsonString(why.substr(0, 400)).c_str());
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(res.attempted);
  json += ", \"failed\": " + std::to_string(res.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += JsonString(metrics[i].name) + ": {\"value\": " +
            JsonNumber(metrics[i].value) + ", \"unit\": " +
            JsonString(metrics[i].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  if (!correct) {
    std::fprintf(stderr, "asr_perfbench: incorrect: %s\n", why.c_str());
    return 1;
  }
  return 0;
}
