#include <gtest/gtest.h>

#include "storage/table.hpp"
#include "txn/lock_manager.hpp"
#include "txn/write_set.hpp"
#include "util/rng.hpp"

namespace dmv::txn {
namespace {

using storage::Key;
using storage::PageId;
using storage::Row;

struct LmFixture {
  sim::Simulation sim;
  LockManager lm;
  uint64_t next_id = 1;
  explicit LmFixture(LockPolicy p = LockPolicy::DeadlockDetect)
      : lm(sim, p) {}
  std::vector<std::unique_ptr<TxnCtx>> txns;
  TxnCtx& make(TxnKind k = TxnKind::Update) {
    txns.push_back(std::make_unique<TxnCtx>(next_id, next_id, k));
    ++next_id;
    return *txns.back();
  }
};

constexpr PageId kP{0, 0};
constexpr PageId kQ{0, 1};
constexpr PageId kR{0, 2};

TEST(LockManager, SharedLocksCoexist) {
  LmFixture f;
  auto& t1 = f.make();
  auto& t2 = f.make();
  std::vector<LockRc> rcs;
  f.sim.spawn([](LmFixture& f, TxnCtx& t, std::vector<LockRc>& out)
                  -> sim::Task<> {
    out.push_back(co_await f.lm.acquire(t, kP, LockMode::Shared));
  }(f, t1, rcs));
  f.sim.spawn([](LmFixture& f, TxnCtx& t, std::vector<LockRc>& out)
                  -> sim::Task<> {
    out.push_back(co_await f.lm.acquire(t, kP, LockMode::Shared));
  }(f, t2, rcs));
  f.sim.run();
  ASSERT_EQ(rcs.size(), 2u);
  EXPECT_EQ(rcs[0], LockRc::Granted);
  EXPECT_EQ(rcs[1], LockRc::Granted);
  EXPECT_TRUE(f.lm.held_by(kP, t1));
  EXPECT_TRUE(f.lm.held_by(kP, t2));
}

TEST(LockManager, ExclusiveBlocksOlderWaiterUntilRelease) {
  LmFixture f(LockPolicy::WaitDie);
  auto& old_txn = f.make();  // ts 1 (older)
  auto& young_txn = f.make();
  std::vector<int> order;
  // Younger grabs X first.
  f.sim.spawn([](LmFixture& f, TxnCtx& t, std::vector<int>& o) -> sim::Task<> {
    EXPECT_EQ(co_await f.lm.acquire(t, kP, LockMode::Exclusive),
              LockRc::Granted);
    o.push_back(1);
    co_await f.sim.delay(100);
    f.lm.release_all(t);
  }(f, young_txn, order));
  // Older requests X later: wait-die says older waits.
  f.sim.spawn([](LmFixture& f, TxnCtx& t, std::vector<int>& o) -> sim::Task<> {
    co_await f.sim.delay(10);
    EXPECT_EQ(co_await f.lm.acquire(t, kP, LockMode::Exclusive),
              LockRc::Granted);
    o.push_back(2);
    EXPECT_EQ(f.sim.now(), 100);
    f.lm.release_all(t);
  }(f, old_txn, order));
  f.sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(f.lm.wait_count(), 1u);
  EXPECT_EQ(f.lm.lock_count(), 0u);  // lock table drained
}

TEST(LockManager, YoungerRequesterDiesUnderWaitDie) {
  LmFixture f(LockPolicy::WaitDie);
  auto& old_txn = f.make();
  auto& young_txn = f.make();
  LockRc young_rc = LockRc::Granted;
  f.sim.spawn([](LmFixture& f, TxnCtx& t) -> sim::Task<> {
    EXPECT_EQ(co_await f.lm.acquire(t, kP, LockMode::Exclusive),
              LockRc::Granted);
    co_await f.sim.delay(100);
    f.lm.release_all(t);
  }(f, old_txn));
  f.sim.spawn([](LmFixture& f, TxnCtx& t, LockRc& rc) -> sim::Task<> {
    co_await f.sim.delay(10);
    rc = co_await f.lm.acquire(t, kP, LockMode::Exclusive);
  }(f, young_txn, young_rc));
  f.sim.run();
  EXPECT_EQ(young_rc, LockRc::Died);
  EXPECT_EQ(f.lm.death_count(), 1u);
}

TEST(LockManager, ReentrantAndUpgrade) {
  LmFixture f;
  auto& t = f.make();
  f.sim.spawn([](LmFixture& f, TxnCtx& t) -> sim::Task<> {
    EXPECT_EQ(co_await f.lm.acquire(t, kP, LockMode::Shared),
              LockRc::Granted);
    EXPECT_EQ(co_await f.lm.acquire(t, kP, LockMode::Shared),
              LockRc::Granted);
    // Sole sharer upgrades instantly.
    EXPECT_EQ(co_await f.lm.acquire(t, kP, LockMode::Exclusive),
              LockRc::Granted);
    // X implies S.
    EXPECT_EQ(co_await f.lm.acquire(t, kP, LockMode::Shared),
              LockRc::Granted);
    EXPECT_EQ(t.held_locks().size(), 1u);
    f.lm.release_all(t);
  }(f, t));
  f.sim.run();
  EXPECT_EQ(f.lm.lock_count(), 0u);
}

TEST(LockManager, ShutdownCancelsWaiters) {
  LmFixture f;
  auto& old_txn = f.make();
  auto& holder = f.make();
  LockRc rc = LockRc::Granted;
  f.sim.spawn([](LmFixture& f, TxnCtx& t) -> sim::Task<> {
    co_await f.lm.acquire(t, kP, LockMode::Exclusive);
    co_await f.sim.delay(1000);  // never releases before shutdown
  }(f, holder));
  f.sim.spawn([](LmFixture& f, TxnCtx& t, LockRc& rc) -> sim::Task<> {
    co_await f.sim.delay(1);
    rc = co_await f.lm.acquire(t, kP, LockMode::Shared);
  }(f, old_txn, rc));
  // old_txn has ts 1 < holder ts 2, so it waits; shutdown cancels it.
  f.sim.schedule_at(50, [&] { f.lm.shutdown(); });
  f.sim.run();
  EXPECT_EQ(rc, LockRc::Cancelled);
}

// Stress: random lock workloads must never deadlock (run to completion)
// and must keep the lock table consistent.
class LockStress
    : public ::testing::TestWithParam<std::tuple<uint64_t, LockPolicy>> {};

TEST_P(LockStress, NoDeadlockUnderContention) {
  LmFixture f(std::get<1>(GetParam()));
  util::Rng rng(std::get<0>(GetParam()));
  int completed = 0;
  const int kTxns = 60;
  for (int i = 0; i < kTxns; ++i) {
    // Txn coroutine: lock 1-4 random pages (mixed modes), hold, release.
    // On Died, retry with the same ctx (same ts) after a backoff.
    auto body = [](LmFixture& f, util::Rng& rng, int& done,
                   int idx) -> sim::Task<> {
      co_await f.sim.delay(sim::Time(rng.below(50)));
      TxnCtx txn(uint64_t(idx + 1), uint64_t(idx + 1), TxnKind::Update);
      for (;;) {
        bool died = false;
        const int npages = 1 + int(rng.below(4));
        for (int k = 0; k < npages && !died; ++k) {
          const PageId pid{0, storage::PageNo(rng.below(6))};
          const LockMode m =
              rng.chance(0.5) ? LockMode::Shared : LockMode::Exclusive;
          const LockRc rc = co_await f.lm.acquire(txn, pid, m);
          switch (rc) {
            case LockRc::Granted:
              break;
            case LockRc::Died:
              died = true;
              break;
            case LockRc::Cancelled:
              co_return;
          }
        }
        if (!died) {
          co_await f.sim.delay(sim::Time(rng.below(20)));
          f.lm.release_all(txn);
          ++done;
          co_return;
        }
        f.lm.release_all(txn);
        co_await f.sim.delay(sim::Time(1 + rng.below(30)));
      }
    };
    f.sim.spawn(body(f, rng, completed, i));
  }
  f.sim.run(10 * sim::kSec);
  EXPECT_EQ(completed, kTxns);   // everyone eventually commits
  EXPECT_EQ(f.lm.lock_count(), 0u);
  if (std::get<1>(GetParam()) == LockPolicy::DeadlockDetect) {
    // Deaths per seed, pinned so that a change in any detector verdict
    // shows (a victim retries on fresh random pages, shifting the run).
    const std::map<uint64_t, uint64_t> kDeaths = {
        {11, 50}, {22, 48}, {33, 56}, {44, 62}, {55, 55}, {66, 47}};
    EXPECT_EQ(f.lm.death_count(), kDeaths.at(std::get<0>(GetParam())));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, LockStress,
    ::testing::Combine(::testing::Values(11, 22, 33, 44, 55, 66),
                       ::testing::Values(LockPolicy::WaitDie,
                                         LockPolicy::DeadlockDetect)));

// Deadlock detection: a genuine cycle kills exactly one participant.
TEST(LockManager, DetectsTwoPartyDeadlock) {
  LmFixture f;  // DeadlockDetect
  auto& t1 = f.make();
  auto& t2 = f.make();
  std::vector<LockRc> rcs;
  f.sim.spawn([](LmFixture& f, TxnCtx& t, std::vector<LockRc>& rcs)
                  -> sim::Task<> {
    co_await f.lm.acquire(t, kP, LockMode::Exclusive);
    co_await f.sim.delay(10);
    const LockRc rc = co_await f.lm.acquire(t, kQ, LockMode::Exclusive);
    rcs.push_back(rc);
    if (rc == LockRc::Died) f.lm.release_all(t);
  }(f, t1, rcs));
  f.sim.spawn([](LmFixture& f, TxnCtx& t, std::vector<LockRc>& rcs)
                  -> sim::Task<> {
    co_await f.lm.acquire(t, kQ, LockMode::Exclusive);
    co_await f.sim.delay(10);
    const LockRc rc = co_await f.lm.acquire(t, kP, LockMode::Exclusive);
    rcs.push_back(rc);
    if (rc == LockRc::Died) f.lm.release_all(t);
  }(f, t2, rcs));
  f.sim.run(sim::kSec);
  ASSERT_EQ(rcs.size(), 2u);
  // Exactly one died; the survivor was then granted.
  EXPECT_EQ((rcs[0] == LockRc::Died) + (rcs[1] == LockRc::Died), 1);
  EXPECT_EQ((rcs[0] == LockRc::Granted) + (rcs[1] == LockRc::Granted), 1);
}

TEST(LockManager, NoFalseDeadlockOnPlainContention) {
  LmFixture f;  // DeadlockDetect: younger conflicting requester just waits
  auto& t1 = f.make();
  auto& t2 = f.make();
  std::vector<sim::Time> done;
  f.sim.spawn([](LmFixture& f, TxnCtx& t, std::vector<sim::Time>& d)
                  -> sim::Task<> {
    co_await f.lm.acquire(t, kP, LockMode::Exclusive);
    co_await f.sim.delay(100);
    f.lm.release_all(t);
    d.push_back(f.sim.now());
  }(f, t1, done));
  f.sim.spawn([](LmFixture& f, TxnCtx& t, std::vector<sim::Time>& d)
                  -> sim::Task<> {
    co_await f.sim.delay(10);
    const LockRc rc = co_await f.lm.acquire(t, kP, LockMode::Exclusive);
    EXPECT_EQ(rc, LockRc::Granted);
    f.lm.release_all(t);
    d.push_back(f.sim.now());
  }(f, t2, done));
  f.sim.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[1], 100);
}

// Verdicts of the page-walking detector. Each spawn starts at the current
// time and equal-time events run in schedule order, so the steps below
// interleave exactly as written.
sim::Task<> hold(LmFixture& f, TxnCtx& t, PageId pid, LockMode m,
                 sim::Time until) {
  EXPECT_EQ(co_await f.lm.acquire(t, pid, m), LockRc::Granted);
  co_await f.sim.delay(until - f.sim.now());
  f.lm.release_all(t);
}

sim::Task<> request_at(LmFixture& f, TxnCtx& t, PageId pid, LockMode m,
                       sim::Time at, LockRc& rc) {
  co_await f.sim.delay(at - f.sim.now());
  rc = co_await f.lm.acquire(t, pid, m);
  f.lm.release_all(t);
}

TEST(LockManager, UpgradeBehindQueuedWaiterDies) {
  LmFixture f;
  auto& t1 = f.make();
  auto& t2 = f.make();
  LockRc queued = LockRc::Cancelled, upgrade = LockRc::Cancelled;
  f.sim.spawn([](LmFixture& f, TxnCtx& t, LockRc& rc) -> sim::Task<> {
    EXPECT_EQ(co_await f.lm.acquire(t, kP, LockMode::Shared),
              LockRc::Granted);
    co_await f.sim.delay(10);
    // t2 waits for t1's S and t1 would wait behind t2: a cycle.
    rc = co_await f.lm.acquire(t, kP, LockMode::Exclusive);
    f.lm.release_all(t);
  }(f, t1, upgrade));
  f.sim.spawn(request_at(f, t2, kP, LockMode::Exclusive, 5, queued));
  f.sim.run();
  EXPECT_EQ(upgrade, LockRc::Died);
  EXPECT_EQ(queued, LockRc::Granted);
  EXPECT_EQ(f.lm.death_count(), 1u);
  EXPECT_EQ(f.lm.lock_count(), 0u);
}

TEST(LockManager, ThreePageCycleThroughQueuedWaiterDies) {
  LmFixture f;
  auto& t1 = f.make();
  auto& t2 = f.make();
  auto& t3 = f.make();
  auto& t4 = f.make();
  LockRc rc1 = LockRc::Cancelled, rc2 = LockRc::Cancelled,
         rc3 = LockRc::Cancelled, rc4 = LockRc::Cancelled;
  // t1 holds P, t2 holds Q, t3 holds R. t4 queues on R first, so t2's wait
  // on R sits behind a queued waiter. t1 -> Q and t2 -> R just wait;
  // t3 -> P closes t3 -> t1 -> t2 -> t3, reached through queued t1 and t2.
  auto cycle = [](LmFixture& f, TxnCtx& t, PageId own, PageId want,
                  sim::Time at, LockRc& rc) -> sim::Task<> {
    EXPECT_EQ(co_await f.lm.acquire(t, own, LockMode::Exclusive),
              LockRc::Granted);
    co_await f.sim.delay(at);
    rc = co_await f.lm.acquire(t, want, LockMode::Exclusive);
    if (rc == LockRc::Granted) co_await f.sim.delay(5);
    f.lm.release_all(t);
  };
  f.sim.spawn(cycle(f, t1, kP, kQ, 20, rc1));
  f.sim.spawn(cycle(f, t2, kQ, kR, 30, rc2));
  f.sim.spawn(cycle(f, t3, kR, kP, 40, rc3));
  f.sim.spawn(request_at(f, t4, kR, LockMode::Shared, 10, rc4));
  f.sim.run();
  EXPECT_EQ(rc3, LockRc::Died);
  EXPECT_EQ(rc1, LockRc::Granted);
  EXPECT_EQ(rc2, LockRc::Granted);
  EXPECT_EQ(rc4, LockRc::Granted);
  EXPECT_EQ(f.lm.death_count(), 1u);
  EXPECT_EQ(f.lm.wait_count(), 3u);
}

TEST(LockManager, GrantedWaiterCountsAsBlockedUntilResumed) {
  LmFixture f;
  auto& t1 = f.make();
  auto& g = f.make();
  auto& h = f.make();
  auto& t3 = f.make();
  LockRc g_rc = LockRc::Cancelled, h_rc = LockRc::Cancelled,
         t3_rc = LockRc::Cancelled;
  // t=0: t1 holds P (X), g holds Q (X), t3 holds R (X).
  f.sim.spawn(hold(f, t1, kP, LockMode::Exclusive, 10));
  f.sim.spawn([](LmFixture& f, TxnCtx& g, LockRc& rc) -> sim::Task<> {
    EXPECT_EQ(co_await f.lm.acquire(g, kQ, LockMode::Exclusive),
              LockRc::Granted);
    co_await f.sim.delay(1);
    rc = co_await f.lm.acquire(g, kP, LockMode::Shared);  // queues behind t1
    f.lm.release_all(g);
  }(f, g, g_rc));
  f.sim.spawn([](LmFixture& f, TxnCtx& h, LockRc& rc) -> sim::Task<> {
    co_await f.sim.delay(10);
    // t1 has just released P and pump() granted it to g, whose resume is
    // still queued: h shares P at once, then waits on R.
    EXPECT_EQ(co_await f.lm.acquire(h, kP, LockMode::Shared),
              LockRc::Granted);
    rc = co_await f.lm.acquire(h, kR, LockMode::Exclusive);
    f.lm.release_all(h);
  }(f, h, h_rc));
  f.sim.spawn([](LmFixture& f, TxnCtx& t3, LockRc& rc) -> sim::Task<> {
    EXPECT_EQ(co_await f.lm.acquire(t3, kR, LockMode::Exclusive),
              LockRc::Granted);
    co_await f.sim.delay(10);
    // Q -> g, still listed as blocked on P -> h -> R, which t3 holds.
    rc = co_await f.lm.acquire(t3, kQ, LockMode::Exclusive);
    f.lm.release_all(t3);
  }(f, t3, t3_rc));
  f.sim.run();
  EXPECT_EQ(t3_rc, LockRc::Died);
  EXPECT_EQ(g_rc, LockRc::Granted);
  EXPECT_EQ(h_rc, LockRc::Granted);
  EXPECT_EQ(f.lm.death_count(), 1u);
}

TEST(LockManager, RequesterBehindRunningHoldersWaits) {
  LmFixture f;
  auto& t1 = f.make();
  auto& t2 = f.make();
  auto& t3 = f.make();
  auto& t4 = f.make();
  LockRc rc2 = LockRc::Cancelled, rc3 = LockRc::Cancelled,
         rc4 = LockRc::Cancelled;
  // t1 (running) holds P and Q; t2 queues on P. t3 joins P's non-empty
  // queue and t4 waits on Q: every holder they reach is running.
  f.sim.spawn([](LmFixture& f, TxnCtx& t) -> sim::Task<> {
    EXPECT_EQ(co_await f.lm.acquire(t, kP, LockMode::Exclusive),
              LockRc::Granted);
    EXPECT_EQ(co_await f.lm.acquire(t, kQ, LockMode::Shared),
              LockRc::Granted);
    co_await f.sim.delay(100);
    f.lm.release_all(t);
  }(f, t1));
  f.sim.spawn(request_at(f, t2, kP, LockMode::Shared, 10, rc2));
  f.sim.spawn(request_at(f, t3, kP, LockMode::Exclusive, 20, rc3));
  f.sim.spawn(request_at(f, t4, kQ, LockMode::Exclusive, 30, rc4));
  f.sim.run();
  EXPECT_EQ(rc2, LockRc::Granted);
  EXPECT_EQ(rc3, LockRc::Granted);
  EXPECT_EQ(rc4, LockRc::Granted);
  EXPECT_EQ(f.lm.death_count(), 0u);
  EXPECT_EQ(f.lm.wait_count(), 3u);
}

// A deep FIFO convoy on one page: the detector expands each page once per
// call, so joining the convoy, or waiting on a page whose holder is in it,
// costs one page, not one step per queued waiter.
TEST(LockManager, ConvoyCheckCostsConstantPages) {
  LmFixture f;
  constexpr int kWaiters = 1000;
  std::vector<LockRc> rcs(kWaiters + 2, LockRc::Cancelled);
  f.sim.spawn(hold(f, f.make(), kP, LockMode::Exclusive, 1000));
  f.sim.spawn([](LmFixture& f, TxnCtx& t, LockRc& rc) -> sim::Task<> {
    EXPECT_EQ(co_await f.lm.acquire(t, kR, LockMode::Exclusive),
              LockRc::Granted);
    rc = co_await f.lm.acquire(t, kP, LockMode::Exclusive);
    f.lm.release_all(t);
  }(f, f.make(), rcs[0]));
  for (int i = 1; i < kWaiters; ++i)
    f.sim.spawn(request_at(f, f.make(), kP, LockMode::Exclusive, 1, rcs[i]));
  f.sim.run(10);
  ASSERT_EQ(f.lm.wait_count(), uint64_t(kWaiters));
  EXPECT_LE(f.lm.cycle_check_pages(), uint64_t(kWaiters));
  // Join the convoy on P, then wait on R, held by the convoy's first waiter.
  const PageId probes[] = {kP, kR};
  for (int k = 0; k < 2; ++k) {
    const uint64_t before = f.lm.cycle_check_pages();
    f.sim.spawn(request_at(f, f.make(), probes[k], LockMode::Exclusive,
                           20 + 10 * k, rcs[kWaiters + k]));
    f.sim.run(25 + 10 * k);
    EXPECT_LE(f.lm.cycle_check_pages() - before, 1u) << k;
  }
  EXPECT_EQ(f.lm.wait_count(), uint64_t(kWaiters + 2));
  f.sim.run();
  for (LockRc rc : rcs) EXPECT_EQ(rc, LockRc::Granted);
  EXPECT_EQ(f.lm.death_count(), 0u);
  EXPECT_EQ(f.lm.lock_count(), 0u);
}

TEST(WriteSet, DiffEmptyPagesIsEmpty) {
  storage::Page a, b;
  EXPECT_TRUE(diff_pages(a, b).empty());
}

TEST(WriteSet, DiffFindsChangedRuns) {
  storage::Page a, b;
  b.raw()[100] = std::byte{1};
  b.raw()[101] = std::byte{2};
  b.raw()[500] = std::byte{3};
  auto runs = diff_pages(a, b);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].offset, 100u);
  EXPECT_EQ(runs[0].bytes.size(), 2u);
  EXPECT_EQ(runs[1].offset, 500u);
}

TEST(WriteSet, NearbyRunsMerge) {
  storage::Page a, b;
  b.raw()[100] = std::byte{1};
  b.raw()[105] = std::byte{2};  // gap of 4 <= merge_gap 8
  auto runs = diff_pages(a, b);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].offset, 100u);
  EXPECT_EQ(runs[0].bytes.size(), 6u);
}

TEST(WriteSet, ApplyReconstructsTarget) {
  util::Rng rng(99);
  storage::Page before, after;
  // Randomize both pages from a shared base, then scatter changes.
  for (size_t i = 0; i < storage::kPageSize; ++i)
    before.raw()[i] = std::byte(uint8_t(rng.below(256)));
  after = before;
  for (int i = 0; i < 200; ++i)
    after.raw()[rng.below(storage::kPageSize)] =
        std::byte(uint8_t(rng.below(256)));
  auto runs = diff_pages(before, after);
  storage::Page rebuilt = before;
  apply_runs(rebuilt, runs);
  EXPECT_TRUE(rebuilt == after);
}

// Property: diff/apply round-trips for random page pairs and random gaps.
class DiffProperty
    : public ::testing::TestWithParam<std::tuple<uint64_t, size_t>> {};

TEST_P(DiffProperty, RoundTrips) {
  auto [seed, gap] = GetParam();
  util::Rng rng(seed);
  storage::Page before, after;
  for (size_t i = 0; i < storage::kPageSize; ++i)
    before.raw()[i] = std::byte(uint8_t(rng.below(4)));
  after = before;
  const int changes = 1 + int(rng.below(500));
  for (int i = 0; i < changes; ++i)
    after.raw()[rng.below(storage::kPageSize)] =
        std::byte(uint8_t(rng.below(4)));
  auto runs = diff_pages(before, after, gap);
  storage::Page rebuilt = before;
  apply_runs(rebuilt, runs);
  EXPECT_TRUE(rebuilt == after);
  // Runs must be sorted and non-overlapping.
  for (size_t i = 1; i < runs.size(); ++i)
    EXPECT_GE(runs[i].offset,
              runs[i - 1].offset + runs[i - 1].bytes.size());
}

INSTANTIATE_TEST_SUITE_P(
    Cases, DiffProperty,
    ::testing::Combine(::testing::Values(1, 7, 42, 1234),
                       ::testing::Values(0, 1, 8, 64)));

// Reference for diff_pages: the plain byte loop the word-skipping version
// must reproduce run for run.
std::vector<ByteRun> reference_diff(const storage::Page& before,
                                    const storage::Page& after,
                                    size_t merge_gap) {
  std::vector<ByteRun> runs;
  const std::byte* a = before.raw().data();
  const std::byte* b = after.raw().data();
  size_t i = 0;
  while (i < storage::kPageSize) {
    if (a[i] == b[i]) {
      ++i;
      continue;
    }
    const size_t start = i;
    size_t end = i + 1;
    size_t gap = 0;
    for (size_t scan = end; scan < storage::kPageSize; ++scan) {
      if (a[scan] != b[scan]) {
        end = scan + 1;
        gap = 0;
      } else if (++gap > merge_gap) {
        break;
      }
    }
    runs.push_back(ByteRun{uint32_t(start),
                           std::vector<std::byte>(b + start, b + end)});
    i = end;
  }
  return runs;
}

// Flip every byte in [lo, hi) of `page` to a different value.
void flip(storage::Page& page, size_t lo, size_t hi) {
  for (size_t i = lo; i < hi; ++i)
    page.raw()[i] =
        std::byte(uint8_t(std::to_integer<uint8_t>(page.raw()[i]) + 1));
}

class DiffMatchesByteLoop : public ::testing::TestWithParam<size_t> {};

// Row-shaped changes, as a master's update produces them: 1-4 rows of a
// random width, each with a few changed bytes and maybe its bitmap bit.
TEST_P(DiffMatchesByteLoop, RandomRowUpdates) {
  const size_t gap = GetParam();
  util::Rng rng(gap + 1);
  for (int iter = 0; iter < 500; ++iter) {
    storage::Page before;
    for (size_t i = 0; i < storage::kPageSize; ++i)
      before.raw()[i] = std::byte(uint8_t(rng.below(256)));
    storage::Page after = before;
    const size_t row = 8 + rng.below(300);
    const size_t nrows = (storage::kPageSize - storage::kPageHeader) / row;
    const int touched = 1 + int(rng.below(4));
    for (int k = 0; k < touched; ++k) {
      const size_t slot = rng.below(nrows);
      const size_t base = storage::kPageHeader + slot * row;
      for (int c = 1 + int(rng.below(6)); c > 0; --c) {
        const size_t lo = base + rng.below(row);
        flip(after, lo, std::min(base + row, lo + 1 + rng.below(12)));
      }
      const size_t bit = slot % storage::kMaxSlots;
      if (rng.chance(0.3)) after.set_occupied(bit, !after.occupied(bit));
    }
    ASSERT_EQ(diff_pages(before, after, gap),
              reference_diff(before, after, gap))
        << "iteration " << iter;
  }
}

// Runs that start and end on 8-byte word boundaries and one byte off
// them, alone and in pairs whose spacing straddles the merge gap.
TEST_P(DiffMatchesByteLoop, WordBoundaryRuns) {
  const size_t gap = GetParam();
  for (size_t w : {1u, 7u, 100u, 511u, 1000u})
    for (int lo_off : {-1, 0, 1})
      for (size_t len_words : {1u, 2u, 5u})
        for (int hi_off : {-1, 0, 1}) {
          const size_t lo = w * 8 + size_t(lo_off);
          const size_t hi = std::min(storage::kPageSize,
                                     w * 8 + len_words * 8 + size_t(hi_off));
          storage::Page before, after;
          flip(after, lo, hi);
          ASSERT_EQ(diff_pages(before, after, gap),
                    reference_diff(before, after, gap))
              << "[" << lo << ", " << hi << ")";
          for (size_t space : {gap, gap + 1, gap + 8}) {
            if (hi + space + 3 > storage::kPageSize) continue;
            storage::Page two = after;
            flip(two, hi + space, hi + space + 3);
            ASSERT_EQ(diff_pages(before, two, gap),
                      reference_diff(before, two, gap))
                << "[" << lo << ", " << hi << ") + " << space;
          }
        }
}

// The first and last byte of the page, alone and together.
TEST_P(DiffMatchesByteLoop, PageEdges) {
  const size_t gap = GetParam();
  const size_t last = storage::kPageSize - 1;
  for (const auto& [lo, hi] : std::vector<std::pair<size_t, size_t>>{
           {0, 1}, {last, last + 1}, {0, 9}, {last - 8, last + 1}}) {
    storage::Page before, after;
    flip(after, lo, hi);
    ASSERT_EQ(diff_pages(before, after, gap),
              reference_diff(before, after, gap))
        << "[" << lo << ", " << hi << ")";
  }
  storage::Page before, after;
  flip(after, 0, 1);
  flip(after, last, last + 1);
  const auto runs = diff_pages(before, after, gap);
  ASSERT_EQ(runs, reference_diff(before, after, gap));
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].offset, 0u);
  EXPECT_EQ(runs[1].offset, last);
}

INSTANTIATE_TEST_SUITE_P(Gaps, DiffMatchesByteLoop,
                         ::testing::Values(0, 1, 8, 64));

storage::Schema small_schema() {
  return storage::Schema({storage::int_col("id"), storage::int_col("v")});
}

TEST(WriteSet, AffectedSlotsFromRowBytes) {
  storage::Schema s = small_schema();  // row_size 16
  PageMod mod;
  mod.pid = {0, 0};
  // Bytes of slot 2: header + [32, 48).
  mod.runs.push_back(ByteRun{uint32_t(storage::kPageHeader + 33),
                             std::vector<std::byte>(4)});
  auto slots = mod.affected_slots(s.row_size(), 100);
  EXPECT_EQ(slots, (std::vector<uint16_t>{2}));
}

TEST(WriteSet, AffectedSlotsFromBitmap) {
  storage::Schema s = small_schema();
  PageMod mod;
  mod.pid = {0, 0};
  // Bitmap byte 1 covers slots 8..15.
  mod.runs.push_back(ByteRun{1, std::vector<std::byte>(1)});
  auto slots = mod.affected_slots(s.row_size(), 100);
  ASSERT_EQ(slots.size(), 8u);
  EXPECT_EQ(slots.front(), 8u);
  EXPECT_EQ(slots.back(), 15u);
}

TEST(WriteSet, ApplyModIndexedReplaysInsert) {
  storage::Table master(0, "t", small_schema(),
                        storage::IndexDef{"pk", {0}, true});
  storage::Table slave(0, "t", small_schema(),
                       storage::IndexDef{"pk", {0}, true});
  // Capture before-image, do a logical insert on master, diff, apply on
  // slave — the slave must then serve index lookups for the new row.
  storage::Page before;  // page 0 starts empty on both
  auto rid = *master.insert_row(Row{int64_t{7}, int64_t{70}});
  PageMod mod;
  mod.pid = {0, rid.page};
  mod.version = 1;
  mod.runs = diff_pages(before, master.page(rid.page));
  apply_mod_indexed(slave, mod);
  auto f = slave.pk_find(Key{int64_t{7}});
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(std::get<int64_t>(slave.read_row(*f)[1]), 70);
  EXPECT_EQ(slave.meta(rid.page).version, 1u);
  EXPECT_TRUE(master.pages_equal(slave));
}

TEST(WriteSet, ApplyModIndexedReplaysDeleteAndUpdate) {
  storage::Table master(0, "t", small_schema(),
                        storage::IndexDef{"pk", {0}, true});
  storage::Table slave(0, "t", small_schema(),
                       storage::IndexDef{"pk", {0}, true});
  // Seed both with identical state via the replication path.
  storage::Page empty;
  auto r1 = *master.insert_row(Row{int64_t{1}, int64_t{10}});
  auto r2 = *master.insert_row(Row{int64_t{2}, int64_t{20}});
  (void)r2;
  PageMod seed{{0, 0}, 1, diff_pages(empty, master.page(0))};
  apply_mod_indexed(slave, seed);
  ASSERT_TRUE(master.pages_equal(slave));

  // Now delete row 1 and update row 2 on the master.
  storage::Page before = master.page(0);
  master.delete_row(r1);
  auto f2 = *master.pk_find(Key{int64_t{2}});
  master.update_row(f2, Row{int64_t{2}, int64_t{99}});
  PageMod mod{{0, 0}, 2, diff_pages(before, master.page(0))};
  apply_mod_indexed(slave, mod);

  EXPECT_FALSE(slave.pk_find(Key{int64_t{1}}).has_value());
  auto s2 = slave.pk_find(Key{int64_t{2}});
  ASSERT_TRUE(s2.has_value());
  EXPECT_EQ(std::get<int64_t>(slave.read_row(*s2)[1]), 99);
  EXPECT_EQ(slave.row_count(), 1u);
  EXPECT_TRUE(master.pages_equal(slave));
}

TEST(TxnCtx, UndoCaptureFirstTouchOnly) {
  TxnCtx txn(1, 1, TxnKind::Update);
  storage::Page p;
  txn.capture_undo({0, 0}, p);
  p.raw()[0] = std::byte{42};
  txn.capture_undo({0, 0}, p);  // second capture must not overwrite
  EXPECT_EQ(txn.before_images().at({0, 0}).raw()[0], std::byte{0});
  EXPECT_EQ(txn.dirty_pages().size(), 1u);
}

TEST(TxnCtx, ReadOnlyIgnoresUndo) {
  TxnCtx txn(1, 1, TxnKind::ReadOnly);
  storage::Page p;
  txn.capture_undo({0, 0}, p);
  EXPECT_TRUE(txn.before_images().empty());
}

}  // namespace
}  // namespace dmv::txn
