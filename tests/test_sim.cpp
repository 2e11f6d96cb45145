#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "sim/simulation.hpp"
#include "sim/sync.hpp"
#include "util/rng.hpp"

namespace dmv::sim {
namespace {

TEST(Simulation, EventsRunInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule_at(30, [&] { order.push_back(3); });
  sim.schedule_at(10, [&] { order.push_back(1); });
  sim.schedule_at(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
}

TEST(Simulation, TiesBreakBySubmissionOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule_at(5, [&] { order.push_back(1); });
  sim.schedule_at(5, [&] { order.push_back(2); });
  sim.schedule_at(5, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulation, RunUntilStopsClock) {
  Simulation sim;
  bool ran = false;
  sim.schedule_at(100, [&] { ran = true; });
  Time t = sim.run(50);
  EXPECT_EQ(t, 50);
  EXPECT_FALSE(ran);
  sim.run();
  EXPECT_TRUE(ran);
}

TEST(Simulation, DelayAdvancesClock) {
  Simulation sim;
  Time observed = -1;
  sim.spawn([](Simulation& s, Time& out) -> Task<> {
    co_await s.delay(42);
    out = s.now();
  }(sim, observed));
  sim.run();
  EXPECT_EQ(observed, 42);
}

TEST(Simulation, NestedTaskAwaitPropagatesValue) {
  Simulation sim;
  int result = 0;
  auto child = [](Simulation& s) -> Task<int> {
    co_await s.delay(5);
    co_return 7;
  };
  sim.spawn([](Simulation& s, auto child, int& out) -> Task<> {
    int a = co_await child(s);
    int b = co_await child(s);
    out = a + b;
  }(sim, child, result));
  sim.run();
  EXPECT_EQ(result, 14);
  EXPECT_EQ(sim.now(), 10);
}

TEST(Simulation, ExceptionPropagatesToAwaiter) {
  Simulation sim;
  bool caught = false;
  auto thrower = [](Simulation& s) -> Task<> {
    co_await s.delay(1);
    throw std::runtime_error("boom");
  };
  sim.spawn([](Simulation& s, auto thrower, bool& caught) -> Task<> {
    try {
      co_await thrower(s);
    } catch (const std::runtime_error& e) {
      caught = std::string(e.what()) == "boom";
    }
  }(sim, thrower, caught));
  sim.run();
  EXPECT_TRUE(caught);
}

TEST(Simulation, ManyProcessesInterleaveDeterministically) {
  auto run = [] {
    Simulation sim;
    std::vector<int> trace;
    for (int i = 0; i < 5; ++i) {
      sim.spawn([](Simulation& s, std::vector<int>& tr, int id) -> Task<> {
        for (int k = 0; k < 3; ++k) {
          co_await s.delay(id + 1);
          tr.push_back(id * 10 + k);
        }
      }(sim, trace, i));
    }
    sim.run();
    return trace;
  };
  EXPECT_EQ(run(), run());
}

TEST(WaitQueue, NotifyOneWakesFifo) {
  Simulation sim;
  WaitQueue q(sim);
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    sim.spawn([](WaitQueue& q, std::vector<int>& o, int id) -> Task<> {
      bool ok = co_await q.wait();
      EXPECT_TRUE(ok);
      o.push_back(id);
    }(q, order, i));
  }
  sim.schedule_at(10, [&] { q.notify_one(); });
  sim.schedule_at(20, [&] { q.notify_one(); });
  sim.schedule_at(30, [&] { q.notify_one(); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(WaitQueue, CancelDeliversFalse) {
  Simulation sim;
  WaitQueue q(sim);
  bool got = true;
  sim.spawn([](WaitQueue& q, bool& got) -> Task<> {
    got = co_await q.wait();
  }(q, got));
  sim.schedule_at(5, [&] { q.notify_all(false); });
  sim.run();
  EXPECT_FALSE(got);
}

TEST(Channel, DeliversInOrder) {
  Simulation sim;
  Channel<int> ch(sim);
  std::vector<int> got;
  sim.spawn([](Channel<int>& ch, std::vector<int>& got) -> Task<> {
    for (;;) {
      auto v = co_await ch.receive();
      if (!v) break;
      got.push_back(*v);
    }
  }(ch, got));
  sim.schedule_at(1, [&] { ch.send(1); });
  sim.schedule_at(2, [&] { ch.send(2); });
  sim.schedule_at(3, [&] { ch.send(3); });
  sim.schedule_at(4, [&] { ch.close(); });
  sim.run();
  EXPECT_EQ(got, (std::vector<int>{1, 2, 3}));
}

TEST(Channel, BufferedBeforeReceiverArrives) {
  Simulation sim;
  Channel<int> ch(sim);
  ch.send(10);
  ch.send(20);
  std::vector<int> got;
  sim.spawn([](Channel<int>& ch, std::vector<int>& got) -> Task<> {
    got.push_back(*co_await ch.receive());
    got.push_back(*co_await ch.receive());
  }(ch, got));
  sim.run();
  EXPECT_EQ(got, (std::vector<int>{10, 20}));
}

TEST(Channel, CloseWakesBlockedReceiverWithNullopt) {
  Simulation sim;
  Channel<int> ch(sim);
  bool got_nullopt = false;
  sim.spawn([](Channel<int>& ch, bool& flag) -> Task<> {
    auto v = co_await ch.receive();
    flag = !v.has_value();
  }(ch, got_nullopt));
  sim.schedule_at(7, [&] { ch.close(); });
  sim.run();
  EXPECT_TRUE(got_nullopt);
}

TEST(Channel, SendAfterCloseIsDropped) {
  Simulation sim;
  Channel<int> ch(sim);
  ch.close();
  ch.send(1);
  EXPECT_EQ(ch.size(), 0u);
  ch.reopen();
  ch.send(2);
  EXPECT_EQ(ch.size(), 1u);
}

TEST(Resource, SerializesWhenFull) {
  Simulation sim;
  Resource cpu(sim, 1);
  std::vector<Time> done;
  for (int i = 0; i < 3; ++i) {
    sim.spawn([](Simulation& s, Resource& r, std::vector<Time>& d) -> Task<> {
      co_await r.use(10);
      d.push_back(s.now());
    }(sim, cpu, done));
  }
  sim.run();
  EXPECT_EQ(done, (std::vector<Time>{10, 20, 30}));
  EXPECT_EQ(cpu.busy_time(), 30);
}

TEST(Resource, ParallelismUpToCapacity) {
  Simulation sim;
  Resource cpu(sim, 2);
  std::vector<Time> done;
  for (int i = 0; i < 4; ++i) {
    sim.spawn([](Simulation& s, Resource& r, std::vector<Time>& d) -> Task<> {
      co_await r.use(10);
      d.push_back(s.now());
    }(sim, cpu, done));
  }
  sim.run();
  EXPECT_EQ(done, (std::vector<Time>{10, 10, 20, 20}));
}

TEST(Resource, AcquireReleaseManual) {
  Simulation sim;
  Resource r(sim, 1);
  std::vector<int> order;
  sim.spawn([](Simulation& s, Resource& r, std::vector<int>& o) -> Task<> {
    co_await r.acquire();
    o.push_back(1);
    co_await s.delay(100);
    r.release();
  }(sim, r, order));
  sim.spawn([](Simulation& s, Resource& r, std::vector<int>& o) -> Task<> {
    co_await s.delay(1);
    co_await r.acquire();
    o.push_back(2);
    EXPECT_EQ(s.now(), 100);
    r.release();
  }(sim, r, order));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(CountdownLatch, WaitsForAll) {
  Simulation sim;
  CountdownLatch latch(sim, 3);
  Time done_at = -1;
  bool ok = false;
  sim.spawn([](Simulation& s, CountdownLatch& l, Time& t, bool& ok) -> Task<> {
    ok = co_await l.wait();
    t = s.now();
  }(sim, latch, done_at, ok));
  for (Time t : {10, 20, 30})
    sim.schedule_at(t, [&] { latch.count_down(); });
  sim.run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(done_at, 30);
}

TEST(CountdownLatch, AlreadyZeroReturnsImmediately) {
  Simulation sim;
  CountdownLatch latch(sim, 0);
  bool ok = false;
  sim.spawn([](CountdownLatch& l, bool& ok) -> Task<> {
    ok = co_await l.wait();
  }(latch, ok));
  sim.run();
  EXPECT_TRUE(ok);
}

TEST(CountdownLatch, CancelReturnsFalse) {
  Simulation sim;
  CountdownLatch latch(sim, 2);
  bool ok = true;
  sim.spawn([](CountdownLatch& l, bool& ok) -> Task<> {
    ok = co_await l.wait();
  }(latch, ok));
  sim.schedule_at(5, [&] { latch.cancel(); });
  sim.run();
  EXPECT_FALSE(ok);
}

// Determinism of a composite scenario: full event trace must be identical
// across runs with the same structure.
TEST(Simulation, CompositeScenarioDeterministic) {
  auto run = [] {
    Simulation sim;
    Channel<int> ch(sim);
    Resource cpu(sim, 2);
    std::vector<std::pair<Time, int>> trace;
    sim.spawn([](Simulation& s, Channel<int>& ch, Resource& cpu,
                 std::vector<std::pair<Time, int>>& tr) -> Task<> {
      for (;;) {
        auto v = co_await ch.receive();
        if (!v) break;
        co_await cpu.use(7);
        tr.emplace_back(s.now(), *v);
      }
    }(sim, ch, cpu, trace));
    for (int i = 0; i < 10; ++i)
      sim.schedule_at(i * 3, [&ch, i] { ch.send(i); });
    sim.schedule_at(1000, [&] { ch.close(); });
    sim.run();
    return trace;
  };
  EXPECT_EQ(run(), run());
}

// ---- event-queue and run(until) ordering tests ----

// Equal-timestamp events must run strictly in schedule order, including
// events scheduled *at the draining instant* from inside an event (they
// run after everything already queued for that instant). This pins the
// FIFO contract the old const_cast/priority_queue kernel provided.
TEST(EventQueue, EqualTimestampsRunInScheduleOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule_at(50, [&] {
    order.push_back(0);
    // Same-instant insert during the drain of t=50.
    sim.schedule_at(50, [&] { order.push_back(3); });
  });
  sim.schedule_at(50, [&] { order.push_back(1); });
  sim.schedule_at(50, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));

  // Three events are too few for heap sifts to reorder ties: interleave
  // 24 events at each of two instants with events at other times, so
  // pushes and pops move tied events past each other inside the heap.
  Simulation big;
  std::vector<std::pair<Time, int>> ran;
  for (int i = 0; i < 96; ++i) {
    const Time at = i % 4 == 0 ? 40 : i % 4 == 2 ? 70 : 10 + (i * 37) % 90;
    big.schedule_at(at, [&ran, &big, i] { ran.emplace_back(big.now(), i); });
  }
  big.run();
  ASSERT_EQ(ran.size(), 96u);
  for (size_t k = 1; k < ran.size(); ++k) {
    ASSERT_LE(ran[k - 1].first, ran[k].first);
    if (ran[k - 1].first == ran[k].first)
      EXPECT_LT(ran[k - 1].second, ran[k].second) << "at t=" << ran[k].first;
  }
}

// Property test against a reference model: random push/pop interleavings
// must pop exactly the (at, seq) minimum of a std::set holding the same
// events. Pushes follow the simulation's rules (never before the last
// popped time) and cover the patterns the kernel sees: same-instant
// pushes during a drain, near and far-future events, and pushes earlier
// than a peek_time() that run(until) has already looked at and parked on.
TEST(EventQueue, MatchesReferenceModel) {
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u}) {
    util::Rng rng(seed);
    EventQueue q;
    std::set<std::pair<Time, uint64_t>> model;
    uint64_t seq = 0;
    Time now = 0;
    size_t same_instant = 0, far = 0, under_peek = 0;
    const auto push = [&](Time at) {
      q.push(Event{at, seq, {}});
      model.emplace(at, seq);
      ++seq;
    };
    for (int step = 0; step < 20000; ++step) {
      const uint64_t r = rng.below(100);
      if (r < 45 || model.empty()) {
        Time d = 0;
        switch (rng.below(4)) {
          case 0: d = 0; ++same_instant; break;
          case 1: d = Time(rng.below(300)); break;
          case 2: d = Time(rng.below(100'000)); break;
          default: d = 1'000'000 + Time(rng.below(50'000'000)); ++far; break;
        }
        push(now + d);
      } else if (r < 55) {
        // Peek (as run(until) does before parking), then insert between
        // the clock and the peeked time.
        const Time peeked = q.peek_time();
        ASSERT_EQ(peeked, model.begin()->first) << "seed " << seed;
        if (peeked > now) {
          push(now + Time(rng.below(uint64_t(peeked - now))));
          ++under_peek;
        }
      } else {
        ASSERT_EQ(q.peek_time(), model.begin()->first) << "seed " << seed;
        const Event ev = q.pop();
        ASSERT_EQ(std::make_pair(ev.at, ev.seq), *model.begin())
            << "seed " << seed << " step " << step;
        model.erase(model.begin());
        now = ev.at;
      }
      ASSERT_EQ(q.size(), model.size());
    }
    while (!model.empty()) {
      const Event ev = q.pop();
      ASSERT_EQ(std::make_pair(ev.at, ev.seq), *model.begin())
          << "seed " << seed;
      model.erase(model.begin());
    }
    EXPECT_TRUE(q.empty());
    EXPECT_GT(same_instant, 100u);
    EXPECT_GT(far, 100u);
    EXPECT_GT(under_peek, 100u);
  }
}

// run(until) must park the clock exactly at the boundary without popping
// later events, then deliver them on the next run().
TEST(EventQueue, RunUntilBoundaryWithFarEvent) {
  Simulation sim;
  std::vector<Time> fired;
  const Time far = 3'145'745;
  sim.schedule_at(10, [&] { fired.push_back(sim.now()); });
  sim.schedule_at(far, [&] { fired.push_back(sim.now()); });
  EXPECT_EQ(sim.run(10), 10);
  EXPECT_EQ(fired.size(), 1u);
  EXPECT_EQ(sim.run(far - 1), far - 1);
  EXPECT_EQ(fired.size(), 1u);
  // Scheduling at the parked clock is legal and runs before the far event.
  sim.schedule_at(sim.now(), [&] { fired.push_back(sim.now()); });
  sim.run();
  ASSERT_EQ(fired.size(), 3u);
  EXPECT_EQ(fired[1], far - 1);
  EXPECT_EQ(fired[2], far);
}

// After run(until) parks short of a pending event, an event scheduled
// between the parked clock and that event must run first.
TEST(EventQueue, EarlierInsertAfterPark) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule_at(12'805, [&] { order.push_back(2); });
  EXPECT_EQ(sim.run(512), 512);  // parks; peek saw t=12805
  sim.schedule_at(2'560, [&] { order.push_back(1); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

// Park far behind a pending event, then schedule one event well before
// it and one just after it: all three run in time order.
TEST(EventQueue, ParkedInsertsAroundPendingEvent) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule_at(1'572'864, [&] { order.push_back(2); });
  EXPECT_EQ(sim.run(256), 256);
  sim.schedule_at(524'800, [&] { order.push_back(1); });
  sim.schedule_at(1'573'120, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

}  // namespace
}  // namespace dmv::sim
