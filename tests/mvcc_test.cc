// Tests for the page-level MVCC layer (storage/mvcc.h): snapshot reads at a
// pinned epoch, optimistic writer transactions with first-committer-wins
// conflict detection, copy-on-write retention and its collection, and the
// legacy-path guarantee for unregistered segments.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "storage/buffer_manager.h"
#include "storage/disk.h"
#include "storage/fault_injector.h"
#include "storage/mvcc.h"
#include "storage/page.h"
#include "storage/wal.h"

namespace asr::storage {
namespace {

Page MakePage(uint64_t stamp) {
  Page page;
  page.Write<uint64_t>(0, stamp);
  return page;
}

uint64_t Stamp(const Page& page) { return page.Read<uint64_t>(0); }

struct MvccDisk {
  Disk disk;
  MvccManager mvcc;
  uint32_t seg = 0;

  MvccDisk() {
    disk.AttachMvcc(&mvcc);
    seg = disk.CreateSegment("versioned");
    mvcc.RegisterSegment(seg);
  }
};

TEST(MvccTest, UnregisteredSegmentsTakeTheLegacyPath) {
  Disk disk;
  MvccManager mvcc;
  disk.AttachMvcc(&mvcc);
  uint32_t seg = disk.CreateSegment("plain");
  PageId id = disk.AllocatePage(seg);
  ASSERT_TRUE(disk.WritePage(id, MakePage(7)).ok());
  Page out;
  ASSERT_TRUE(disk.ReadPage(id, &out).ok());
  EXPECT_EQ(Stamp(out), 7u);
  // No epoch advanced, no version bookkeeping: the write was legacy.
  EXPECT_EQ(mvcc.committed_epoch(), 0u);
  EXPECT_EQ(mvcc.retained_pages(), 0u);
  // Metering is the legacy metering.
  EXPECT_EQ(disk.segment_stats(seg).page_writes, 1u);
  EXPECT_EQ(disk.segment_stats(seg).page_reads, 1u);
}

TEST(MvccTest, DirectWritesToRegisteredSegmentsAutoVersion) {
  MvccDisk d;
  PageId id = d.disk.AllocatePage(d.seg);
  ASSERT_TRUE(d.disk.WritePage(id, MakePage(1)).ok());
  EXPECT_EQ(d.mvcc.committed_epoch(), 1u);
  ASSERT_TRUE(d.disk.WritePage(id, MakePage(2)).ok());
  EXPECT_EQ(d.mvcc.committed_epoch(), 2u);
  Page out;
  ASSERT_TRUE(d.disk.ReadPage(id, &out).ok());
  EXPECT_EQ(Stamp(out), 2u);
}

TEST(MvccTest, SnapshotReadsThePinnedEpoch) {
  MvccDisk d;
  PageId id = d.disk.AllocatePage(d.seg);
  ASSERT_TRUE(d.disk.WritePage(id, MakePage(10)).ok());

  PageSnapshot snap = d.mvcc.BeginSnapshot();
  EXPECT_TRUE(snap.valid());
  const MvccEpoch pinned = snap.epoch();

  ASSERT_TRUE(d.disk.WritePage(id, MakePage(20)).ok());
  ASSERT_TRUE(d.disk.WritePage(id, MakePage(30)).ok());

  Page live;
  ASSERT_TRUE(d.disk.ReadPage(id, &live).ok());
  EXPECT_EQ(Stamp(live), 30u);

  Page old;
  ASSERT_TRUE(d.disk.ReadPageSnapshot(id, snap, &old).ok());
  EXPECT_EQ(Stamp(old), 10u);
  EXPECT_EQ(snap.epoch(), pinned);

  // A fresh snapshot sees the newest committed image.
  PageSnapshot now = d.mvcc.BeginSnapshot();
  Page newest;
  ASSERT_TRUE(d.disk.ReadPageSnapshot(id, now, &newest).ok());
  EXPECT_EQ(Stamp(newest), 30u);
}

TEST(MvccTest, SnapshotBeforeAnyCommitReadsThePreMvccImage) {
  Disk disk;
  uint32_t seg = disk.CreateSegment("versioned");
  PageId id = disk.AllocatePage(seg);
  ASSERT_TRUE(disk.WritePage(id, MakePage(5)).ok());  // before the manager

  MvccManager mvcc;
  disk.AttachMvcc(&mvcc);
  mvcc.RegisterSegment(seg);

  PageSnapshot snap = mvcc.BeginSnapshot();
  EXPECT_EQ(snap.epoch(), 0u);
  ASSERT_TRUE(disk.WritePage(id, MakePage(6)).ok());
  Page out;
  ASSERT_TRUE(disk.ReadPageSnapshot(id, snap, &out).ok());
  EXPECT_EQ(Stamp(out), 5u);
}

// ResolveVersion names the image a snapshot read serves: the backend
// version while it is <= the epoch, else the retained one. A snapshot-mode
// pool re-pointed at a later snapshot keeps a frame whose version still
// resolves and re-reads one whose version moved.
TEST(MvccTest, RepointedSnapshotPoolRevalidatesFramesByVersion) {
  MvccDisk d;
  PageId a = d.disk.AllocatePage(d.seg);
  PageId b = d.disk.AllocatePage(d.seg);
  ASSERT_TRUE(d.disk.WritePage(a, MakePage(1)).ok());  // a at version 1
  ASSERT_TRUE(d.disk.WritePage(b, MakePage(2)).ok());  // b at version 2

  PageSnapshot first = d.mvcc.BeginSnapshot();
  ASSERT_TRUE(d.disk.WritePage(a, MakePage(3)).ok());  // a at 3, 1 retained
  EXPECT_EQ(d.mvcc.ResolveVersion(a, first.epoch()), 1u);
  EXPECT_EQ(d.mvcc.ResolveVersion(b, first.epoch()), 2u);
  Page out;
  ASSERT_TRUE(d.disk.ReadPageSnapshot(a, first, &out).ok());
  EXPECT_EQ(Stamp(out), 1u);

  BufferManager pool(&d.disk, 8, &first);
  EXPECT_EQ(Stamp(pool.Pin(a).page()), 1u);
  EXPECT_EQ(Stamp(pool.Pin(b).page()), 2u);
  EXPECT_EQ(pool.misses(), 2u);

  PageSnapshot second = d.mvcc.BeginSnapshot();
  EXPECT_EQ(d.mvcc.ResolveVersion(a, second.epoch()), 3u);
  pool.Repoint(&second);
  first.Release();
  EXPECT_EQ(Stamp(pool.Pin(b).page()), 2u);  // still version 2: a hit
  EXPECT_EQ(Stamp(pool.Pin(a).page()), 3u);  // version moved: a miss
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_EQ(pool.misses(), 3u);
  pool.Repoint(nullptr);
}

TEST(MvccTest, RetainedImagesAreCollectedAtSnapshotRelease) {
  MvccDisk d;
  PageId id = d.disk.AllocatePage(d.seg);
  ASSERT_TRUE(d.disk.WritePage(id, MakePage(1)).ok());
  {
    PageSnapshot snap = d.mvcc.BeginSnapshot();
    EXPECT_EQ(d.mvcc.live_snapshots(), 1u);
    ASSERT_TRUE(d.disk.WritePage(id, MakePage(2)).ok());
    EXPECT_GE(d.mvcc.retained_pages(), 1u);
    // Overwriting again does not need another retained copy for this
    // snapshot: only the image valid at the pinned epoch matters.
    ASSERT_TRUE(d.disk.WritePage(id, MakePage(3)).ok());
    Page out;
    ASSERT_TRUE(d.disk.ReadPageSnapshot(id, snap, &out).ok());
    EXPECT_EQ(Stamp(out), 1u);
  }
  EXPECT_EQ(d.mvcc.live_snapshots(), 0u);
  EXPECT_EQ(d.mvcc.retained_pages(), 0u);
}

TEST(MvccTest, TransactionStagesPrivatelyAndReadsItsOwnWrites) {
  MvccDisk d;
  PageId id = d.disk.AllocatePage(d.seg);
  ASSERT_TRUE(d.disk.WritePage(id, MakePage(1)).ok());
  const MvccEpoch before = d.mvcc.committed_epoch();

  PageTransaction txn(&d.mvcc, {d.seg});
  EXPECT_TRUE(txn.active());
  EXPECT_TRUE(txn.covers(d.seg));
  ASSERT_TRUE(d.disk.WritePage(id, MakePage(99)).ok());
  EXPECT_EQ(txn.staged_page_count(), 1u);
  EXPECT_EQ(d.mvcc.committed_epoch(), before);  // nothing committed yet

  // Read-your-writes on the staging thread...
  Page mine;
  ASSERT_TRUE(d.disk.ReadPage(id, &mine).ok());
  EXPECT_EQ(Stamp(mine), 99u);
  // ...while a snapshot still sees the committed image.
  PageSnapshot snap = d.mvcc.BeginSnapshot();
  Page theirs;
  ASSERT_TRUE(d.disk.ReadPageSnapshot(id, snap, &theirs).ok());
  EXPECT_EQ(Stamp(theirs), 1u);

  ASSERT_TRUE(txn.Commit().ok());
  EXPECT_FALSE(txn.active());
  EXPECT_EQ(d.mvcc.committed_epoch(), before + 1);
  Page out;
  ASSERT_TRUE(d.disk.ReadPage(id, &out).ok());
  EXPECT_EQ(Stamp(out), 99u);
  // The pre-commit snapshot keeps its view.
  ASSERT_TRUE(d.disk.ReadPageSnapshot(id, snap, &theirs).ok());
  EXPECT_EQ(Stamp(theirs), 1u);
}

TEST(MvccTest, AbortDiscardsTheStagedSet) {
  MvccDisk d;
  PageId id = d.disk.AllocatePage(d.seg);
  ASSERT_TRUE(d.disk.WritePage(id, MakePage(1)).ok());
  const MvccEpoch before = d.mvcc.committed_epoch();
  {
    PageTransaction txn(&d.mvcc, {d.seg});
    ASSERT_TRUE(d.disk.WritePage(id, MakePage(50)).ok());
    txn.Abort();
    EXPECT_FALSE(txn.active());
  }
  EXPECT_EQ(d.mvcc.committed_epoch(), before);
  Page out;
  ASSERT_TRUE(d.disk.ReadPage(id, &out).ok());
  EXPECT_EQ(Stamp(out), 1u);
}

TEST(MvccTest, FirstCommitterWinsSecondAbortsWithConflictList) {
  MvccDisk d;
  PageId id = d.disk.AllocatePage(d.seg);
  ASSERT_TRUE(d.disk.WritePage(id, MakePage(1)).ok());

  PageTransaction loser(&d.mvcc, {d.seg});
  ASSERT_TRUE(d.disk.WritePage(id, MakePage(100)).ok());

  // A second writer (its own thread: transactions bind thread-locally)
  // commits the same page first.
  std::thread winner([&] {
    PageTransaction txn(&d.mvcc, {d.seg});
    ASSERT_TRUE(d.disk.WritePage(id, MakePage(200)).ok());
    ASSERT_TRUE(txn.Commit().ok());
  });
  winner.join();

  std::vector<PageId> conflicts;
  Status st = loser.Commit(&conflicts);
  EXPECT_TRUE(st.IsAborted()) << st.ToString();
  ASSERT_EQ(conflicts.size(), 1u);
  EXPECT_EQ(conflicts[0], id);
  EXPECT_FALSE(loser.active());
#if ASR_METRICS_ENABLED
  EXPECT_EQ(d.mvcc.conflicts().value(), 1u);
  EXPECT_EQ(d.mvcc.commits().value(), 1u);
#endif

  // The loser's staged image never reached the disk.
  Page out;
  ASSERT_TRUE(d.disk.ReadPage(id, &out).ok());
  EXPECT_EQ(Stamp(out), 200u);
}

TEST(MvccTest, DisjointPagesCommitWithoutConflict) {
  MvccDisk d;
  PageId a = d.disk.AllocatePage(d.seg);
  PageId b = d.disk.AllocatePage(d.seg);
  ASSERT_TRUE(d.disk.WritePage(a, MakePage(1)).ok());
  ASSERT_TRUE(d.disk.WritePage(b, MakePage(2)).ok());

  PageTransaction mine(&d.mvcc, {d.seg});
  ASSERT_TRUE(d.disk.WritePage(a, MakePage(11)).ok());
  std::thread other([&] {
    PageTransaction txn(&d.mvcc, {d.seg});
    ASSERT_TRUE(d.disk.WritePage(b, MakePage(22)).ok());
    ASSERT_TRUE(txn.Commit().ok());
  });
  other.join();
  EXPECT_TRUE(mine.Commit().ok());

  Page out;
  ASSERT_TRUE(d.disk.ReadPage(a, &out).ok());
  EXPECT_EQ(Stamp(out), 11u);
  ASSERT_TRUE(d.disk.ReadPage(b, &out).ok());
  EXPECT_EQ(Stamp(out), 22u);
#if ASR_METRICS_ENABLED
  EXPECT_EQ(d.mvcc.conflicts().value(), 0u);
#endif
}

// N writers over disjoint pages of one registered segment: every commit must
// eventually succeed, the epoch must advance once per commit, and under TSan
// this doubles as the storage-level race check.
TEST(MvccTest, ConcurrentDisjointWritersAllCommit) {
  MvccDisk d;
  constexpr int kWriters = 4;
  constexpr int kCommits = 25;
  std::vector<PageId> pages;
  for (int i = 0; i < kWriters; ++i) {
    pages.push_back(d.disk.AllocatePage(d.seg));
  }
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kCommits; ++i) {
        PageTransaction txn(&d.mvcc, {d.seg});
        Page page = MakePage(static_cast<uint64_t>(w) * 1000 + i);
        ASSERT_TRUE(d.disk.WritePage(pages[w], page).ok());
        ASSERT_TRUE(txn.Commit().ok());
      }
    });
  }
  for (std::thread& t : writers) t.join();
  EXPECT_EQ(d.mvcc.committed_epoch(),
            static_cast<MvccEpoch>(kWriters) * kCommits);
#if ASR_METRICS_ENABLED
  EXPECT_EQ(d.mvcc.commits().value(),
            static_cast<uint64_t>(kWriters) * kCommits);
#endif
  for (int w = 0; w < kWriters; ++w) {
    Page out;
    ASSERT_TRUE(d.disk.ReadPage(pages[w], &out).ok());
    EXPECT_EQ(Stamp(out), static_cast<uint64_t>(w) * 1000 + (kCommits - 1));
  }
}

// Contended page under concurrent writers: exactly the winners' commits land
// (epoch == successful commits) and losers surface as Aborted, never as a
// torn or interleaved image.
TEST(MvccTest, ContendedPageSerializesByConflict) {
  MvccDisk d;
  PageId id = d.disk.AllocatePage(d.seg);
  ASSERT_TRUE(d.disk.WritePage(id, MakePage(0)).ok());
  const MvccEpoch base_epoch = d.mvcc.committed_epoch();

  constexpr int kWriters = 4;
  constexpr int kAttempts = 20;
  std::atomic<uint64_t> committed{0};
  std::atomic<uint64_t> aborted{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kAttempts; ++i) {
        PageTransaction txn(&d.mvcc, {d.seg});
        Page cur;
        ASSERT_TRUE(d.disk.ReadPage(id, &cur).ok());
        ASSERT_TRUE(
            d.disk.WritePage(id, MakePage(Stamp(cur) + 1)).ok());
        Status st = txn.Commit();
        if (st.ok()) {
          committed.fetch_add(1);
        } else {
          ASSERT_TRUE(st.IsAborted()) << st.ToString();
          aborted.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : writers) t.join();
  EXPECT_EQ(committed + aborted,
            static_cast<uint64_t>(kWriters) * kAttempts);
  EXPECT_EQ(d.mvcc.committed_epoch(), base_epoch + committed);
  // The page value counts exactly the successful increments: no lost or
  // duplicated update slipped through the conflict check.
  Page out;
  ASSERT_TRUE(d.disk.ReadPage(id, &out).ok());
  EXPECT_EQ(Stamp(out), committed.load());
#if ASR_METRICS_ENABLED
  EXPECT_EQ(d.mvcc.conflicts().value(), aborted.load());
#endif
}

TEST(MvccTest, CommitAppendsAForeignWalRecordJournalReplayIgnores) {
  std::string path =
      ::testing::TempDir() + "/mvcc_commit_marker.wal";
  std::remove(path.c_str());
  auto wal = WriteAheadLog::Open(path).value();

  MvccDisk d;
  d.mvcc.AttachWal(wal.get());
  PageId id = d.disk.AllocatePage(d.seg);
  {
    PageTransaction txn(&d.mvcc, {d.seg});
    ASSERT_TRUE(d.disk.WritePage(id, MakePage(1)).ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  ASSERT_TRUE(wal->Sync().ok());
  wal.reset();

  // Reopen and replay: the commit marker ('X', epoch + page count) must be
  // self-describing enough that it is delivered intact — audit tools read
  // it — while MaintenanceJournal::ApplyWalRecord (size-checked per type)
  // would simply not claim it. Exactly one record: the single commit above.
  // (Counted directly rather than via records_appended(), which compiles
  // out under ASR_METRICS=OFF.)
  std::vector<std::string> payloads;
  auto reopened = WriteAheadLog::Open(path, [&](std::string_view payload) {
                    payloads.emplace_back(payload);
                  }).value();
  ASSERT_EQ(payloads.size(), 1u);
  EXPECT_EQ(payloads[0][0], 'X');
  EXPECT_EQ(payloads[0].size(), 1u + 8u + 4u);
  std::remove(path.c_str());
}

TEST(MvccTest, ExportMetricsPublishesTheMvccSurface) {
  MvccDisk d;
  PageId id = d.disk.AllocatePage(d.seg);
  ASSERT_TRUE(d.disk.WritePage(id, MakePage(1)).ok());
  PageSnapshot snap = d.mvcc.BeginSnapshot();
  ASSERT_TRUE(d.disk.WritePage(id, MakePage(2)).ok());

  obs::MetricsRegistry registry;
  d.mvcc.ExportMetrics(&registry, "mvcc");
  EXPECT_GE(registry.counter("mvcc.epoch"), 2u);
  EXPECT_EQ(registry.counter("mvcc.live_snapshots"), 1u);
  EXPECT_GE(registry.counter("mvcc.retained_pages"), 1u);
}

// A write that fails at the backend must leave the version table as it was:
// no entry for the page, no epoch, and no retained copy with an empty
// validity window for a later collection pass to find.
TEST(MvccTest, FailedWritesLeaveNoVersionEntry) {
  Disk disk;
  uint32_t seg = disk.CreateSegment("versioned");
  PageId a = disk.AllocatePage(seg);
  PageId b = disk.AllocatePage(seg);
  ASSERT_TRUE(disk.WritePage(a, MakePage(5)).ok());  // before the manager
  ASSERT_TRUE(disk.WritePage(b, MakePage(6)).ok());

  MvccManager mvcc;
  disk.AttachMvcc(&mvcc);
  mvcc.RegisterSegment(seg);
  FaultInjector injector;
  disk.set_fault_injector(&injector);
  FaultSpec spec;
  spec.kind = FaultKind::kWriteCrash;
  spec.segment = seg;

  PageSnapshot snap = mvcc.BeginSnapshot();
  // Direct write path.
  spec.after_matching = 1;
  injector.Arm(spec);
  EXPECT_TRUE(disk.WritePage(a, MakePage(50)).IsIOError());
  injector.Disarm();
  EXPECT_EQ(mvcc.committed_epoch(), 0u);
  EXPECT_EQ(mvcc.versioned_pages(), 0u);
  EXPECT_EQ(mvcc.retained_pages(), 0u);
  Page out;
  ASSERT_TRUE(disk.ReadPageSnapshot(a, snap, &out).ok());
  EXPECT_EQ(Stamp(out), 5u);

  // Commit path: the first staged page lands, the second one fails.
  spec.after_matching = 2;
  injector.Arm(spec);
  {
    PageTransaction txn(&mvcc, {seg});
    ASSERT_TRUE(disk.WritePage(a, MakePage(60)).ok());
    ASSERT_TRUE(disk.WritePage(b, MakePage(70)).ok());
    EXPECT_TRUE(txn.Commit().IsIOError());
  }
  injector.Disarm();
  EXPECT_EQ(mvcc.versioned_pages(), 1u);  // only the page that was written
  EXPECT_EQ(mvcc.retained_pages(), 1u);   // its pre-MVCC image, for `snap`
  ASSERT_TRUE(disk.ReadPageSnapshot(a, snap, &out).ok());
  EXPECT_EQ(Stamp(out), 5u);
  ASSERT_TRUE(disk.ReadPageSnapshot(b, snap, &out).ok());
  EXPECT_EQ(Stamp(out), 6u);

  snap.Release();
  EXPECT_EQ(mvcc.retained_pages(), 0u);
  EXPECT_EQ(mvcc.versioned_pages(), 1u);
}

// Randomized oracle for retention and collection. A brute-force model keeps
// every image each page ever had; after every step each live snapshot must
// read exactly the image of its epoch, and the manager must retain exactly
// the (page, image) pairs some live snapshot still needs.
TEST(MvccTest, RandomizedRetentionMatchesBruteForceOracle) {
  constexpr int kPages = 64;
  constexpr size_t kMaxSnapshots = 8;
  constexpr int kSteps = 300;
  for (uint32_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937 rng(seed);
    MvccDisk d;
    std::vector<PageId> ids;
    // history[p]: (version, stamp) of every image page p has had, oldest
    // first; version 0 is the image written before any commit.
    std::vector<std::vector<std::pair<MvccEpoch, uint64_t>>> history(kPages);
    uint64_t next_stamp = 1;
    for (int p = 0; p < kPages; ++p) {
      ids.push_back(d.disk.AllocatePage(d.seg));
      history[p].push_back({0, 0});  // a fresh page reads as zeroes
    }
    std::vector<PageSnapshot> live;

    auto image_at = [&](int p, MvccEpoch e) {
      uint64_t stamp = 0;
      for (const auto& [v, s] : history[p]) {
        if (v <= e) stamp = s;
      }
      return stamp;
    };
    auto needed = [&] {
      size_t n = 0;
      for (int p = 0; p < kPages; ++p) {
        const auto& h = history[p];
        for (size_t i = 0; i + 1 < h.size(); ++i) {
          const MvccEpoch lo = h[i].first;
          const MvccEpoch hi = h[i + 1].first;
          n += std::any_of(live.begin(), live.end(),
                           [&](const PageSnapshot& s) {
                             return s.epoch() >= lo && s.epoch() < hi;
                           });
        }
      }
      return n;
    };
    auto check = [&] {
      for (const PageSnapshot& snap : live) {
        for (int p = 0; p < kPages; ++p) {
          Page out;
          ASSERT_TRUE(d.disk.ReadPageSnapshot(ids[p], snap, &out).ok());
          ASSERT_EQ(Stamp(out), image_at(p, snap.epoch()))
              << "page " << p << " at epoch " << snap.epoch();
        }
      }
      ASSERT_EQ(d.mvcc.retained_pages(), needed());
    };
    auto release_random = [&] {
      std::uniform_int_distribution<size_t> pick(0, live.size() - 1);
      auto it = live.begin() + static_cast<std::ptrdiff_t>(pick(rng));
      it->Release();
      live.erase(it);
    };
    std::uniform_int_distribution<int> page_of(0, kPages - 1);

    for (int step = 0; step < kSteps; ++step) {
      const int action = std::uniform_int_distribution<int>(0, 9)(rng);
      if (action < 3 && live.size() < kMaxSnapshots) {
        live.push_back(d.mvcc.BeginSnapshot());
        // Now and then a second reader at the same epoch.
        if (action == 0 && live.size() < kMaxSnapshots) {
          live.push_back(d.mvcc.BeginSnapshot());
        }
      } else if (action < 5 && !live.empty()) {
        release_random();
      } else if (action < 8) {
        const int p = page_of(rng);
        const uint64_t stamp = next_stamp++;
        ASSERT_TRUE(d.disk.WritePage(ids[p], MakePage(stamp)).ok());
        history[p].push_back({d.mvcc.committed_epoch(), stamp});
      } else {
        std::vector<int> pages;
        const int n = std::uniform_int_distribution<int>(2, 6)(rng);
        while (static_cast<int>(pages.size()) < n) {
          const int p = page_of(rng);
          if (std::find(pages.begin(), pages.end(), p) == pages.end()) {
            pages.push_back(p);
          }
        }
        const uint64_t stamp = next_stamp++;
        PageTransaction txn(&d.mvcc, {d.seg});
        for (int p : pages) {
          ASSERT_TRUE(d.disk.WritePage(ids[p], MakePage(stamp)).ok());
        }
        ASSERT_TRUE(txn.Commit().ok());
        for (int p : pages) {
          history[p].push_back({d.mvcc.committed_epoch(), stamp});
        }
      }
      ASSERT_NO_FATAL_FAILURE(check());
    }
    while (!live.empty()) {
      release_random();
      ASSERT_NO_FATAL_FAILURE(check());
    }
    EXPECT_EQ(d.mvcc.retained_pages(), 0u);
    EXPECT_EQ(d.mvcc.live_snapshots(), 0u);
  }
}

// Readers open, read and release snapshots in a loop while a writer commits
// over the same pages. Every commit stamps all pages with its own epoch, so
// a reader knows the exact image its pinned epoch must show. Under TSan this
// is the race check for retention racing collection.
TEST(MvccTest, SnapshotChurnWhileCommitting) {
  MvccDisk d;
  constexpr int kPages = 8;
  constexpr int kReaders = 2;
  constexpr int kSnapshotsPerReader = 150;
  constexpr uint64_t kMinCommits = 50;
  std::vector<PageId> ids;
  for (int p = 0; p < kPages; ++p) ids.push_back(d.disk.AllocatePage(d.seg));
  auto commit_all = [&](uint64_t stamp) {
    PageTransaction txn(&d.mvcc, {d.seg});
    for (PageId id : ids) {
      ASSERT_TRUE(d.disk.WritePage(id, MakePage(stamp)).ok());
    }
    ASSERT_TRUE(txn.Commit().ok());
  };
  commit_all(1);
  ASSERT_EQ(d.mvcc.committed_epoch(), 1u);

  auto read_snapshots = [&] {
    for (int i = 0; i < kSnapshotsPerReader; ++i) {
      PageSnapshot snap = d.mvcc.BeginSnapshot();
      for (int pass = 0; pass < 2; ++pass) {
        for (PageId id : ids) {
          Page out;
          ASSERT_TRUE(d.disk.ReadPageSnapshot(id, snap, &out).ok());
          ASSERT_EQ(Stamp(out), snap.epoch());
        }
        std::this_thread::yield();
      }
    }
  };
  std::atomic<int> readers_running{kReaders};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      read_snapshots();
      readers_running.fetch_sub(1);
    });
  }
  // The writer keeps committing until both readers are through, and at
  // least kMinCommits times whatever the schedule.
  uint64_t stamp = 1;
  std::thread writer([&] {
    while (readers_running.load() > 0 || stamp <= kMinCommits) {
      commit_all(++stamp);
      if (::testing::Test::HasFatalFailure()) break;
    }
  });
  writer.join();
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(d.mvcc.committed_epoch(), stamp);
  EXPECT_EQ(d.mvcc.live_snapshots(), 0u);
  EXPECT_EQ(d.mvcc.retained_pages(), 0u);
}

}  // namespace
}  // namespace asr::storage
