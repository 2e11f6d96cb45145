#include "replay.hpp"

#include <chrono>
#include <cmath>
#include <algorithm>

#include "core/messages.hpp"
#include "net/network.hpp"
#include "txn/lock_manager.hpp"
#include "txn/write_set.hpp"

namespace perfbench {

using namespace dmv;

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Host seconds each replay keeps repeating its pass for.
constexpr double kBudget = 0.15;

// Repeats `pass` (returns the number of items it handled) until kBudget
// host seconds have elapsed; returns host nanoseconds per item.
template <typename Pass>
double ns_per_item(Pass&& pass) {
  uint64_t items = 0;
  const auto t0 = Clock::now();
  do {
    items += pass();
  } while (since(t0) < kBudget);
  return items ? since(t0) * 1e9 / double(items) : 0;
}

size_t depth_of(double mean) {
  return std::max<size_t>(1, size_t(std::llround(mean)));
}

void load_store(const ReplayInputs& in, storage::Database& db) {
  in.workload->build_schema(db);
  in.workload->load(db, 0, in.salt);
}

// ---- storage: index lookups, range scans, row decode ----

void replay_storage(const ReplayInputs& in, HostLayers& out) {
  storage::Database db;
  load_store(in, db);
  std::vector<std::pair<storage::TableId, storage::Key>> keys;
  for (storage::TableId t = 0; t < db.table_count(); ++t)
    db.table(t).pk_scan(nullptr, nullptr,
                        [&](const storage::Key& k, storage::RowId) {
                          keys.emplace_back(t, k);
                          return true;
                        });
  util::Rng rng(in.seed);
  for (size_t i = keys.size(); i > 1; --i)
    std::swap(keys[i - 1], keys[rng.below(i)]);
  if (keys.empty()) {
    out.fail("storage: no rows loaded");
    return;
  }

  size_t missing = 0;
  out.find_ns = ns_per_item([&] {
    for (const auto& [t, k] : keys)
      if (!db.table(t).pk_find(k)) ++missing;
    return keys.size();
  });

  size_t scanned = 0;
  out.scan_ns_per_row = ns_per_item([&] {
    size_t rows = 0;
    for (storage::TableId t = 0; t < db.table_count(); ++t)
      db.table(t).pk_scan(nullptr, nullptr,
                          [&rows](const storage::Key&, storage::RowId) {
                            ++rows;
                            return true;
                          });
    scanned = rows;
    return rows;
  });

  size_t columns = 0;
  out.decode_ns_per_row = ns_per_item([&] {
    size_t rows = 0;
    for (storage::TableId t = 0; t < db.table_count(); ++t) {
      const storage::Table& tb = db.table(t);
      const size_t row_size = tb.schema().row_size();
      for (storage::PageNo p = 0; p < tb.page_count(); ++p) {
        const storage::Page& pg = tb.page(p);
        for (size_t s = 0; s < tb.slots_per_page(); ++s) {
          if (!pg.occupied(s)) continue;
          columns += tb.schema().decode(pg.slot_bytes(s, row_size)).size();
          ++rows;
        }
      }
    }
    return rows;
  });
  if (missing > 0 || scanned != db.total_rows() || columns == 0)
    out.fail("storage: lookups, scan or decode disagree with the load");
}

// ---- lock manager: a FIFO convoy on one page ----

struct Convoy {
  sim::Simulation sim;
  txn::LockManager locks{sim};
  storage::PageId page{0, 0};
  uint64_t next_id = 1;
  uint64_t done = 0;
  uint64_t target = 0;
  bool stopping = false;
  bool ok = true;
};

// One transaction of the convoy: queue for the page, hold it for a
// microsecond of virtual time, release, and put a fresh transaction at
// the tail so the queue depth stays constant.
sim::Task<> convoy_txn(Convoy& c) {
  const uint64_t id = c.next_id++;
  txn::TxnCtx t(id, id, txn::TxnKind::Update);
  const txn::LockRc rc =
      co_await c.locks.acquire(t, c.page, txn::LockMode::Exclusive);
  if (rc != txn::LockRc::Granted) {
    if (!c.stopping) c.ok = false;
    co_return;
  }
  co_await c.sim.delay(1);
  c.locks.release_all(t);
  ++c.done;
  if (c.stopping) co_return;
  c.sim.spawn(convoy_txn(c));
  if (c.done == c.target) c.sim.stop();
}

void replay_locks(const ReplayInputs& in, HostLayers& out) {
  Convoy c;
  const size_t depth = depth_of(in.lock_queue_depth);
  for (size_t i = 0; i <= depth; ++i) c.sim.spawn(convoy_txn(c));
  c.target = depth + 1;  // fill the queue before timing
  c.sim.run();
  out.acquire_us = ns_per_item([&c] {
    constexpr uint64_t kBatch = 16;
    c.target = c.done + kBatch;
    c.sim.run();
    if (c.done != c.target) c.ok = false;  // the convoy stalled
    return c.ok ? kBatch : 0;
  }) / 1000.0;
  c.stopping = true;
  c.locks.shutdown();
  c.sim.run();
  if (!c.ok) out.fail("lock manager: the convoy stalled");
}

// ---- page diff + indexed apply on the hottest table ----

void replay_pages(const ReplayInputs& in, HostLayers& out) {
  // Master and replica start from the table as the run left it.
  storage::Database master, replica;
  in.workload->build_schema(master);
  in.workload->build_schema(replica);
  storage::Table& tm = master.table(in.hot_table);
  storage::Table& tr = replica.table(in.hot_table);
  for (const storage::Row& r : *in.hot_rows)
    if (!tm.insert_row(r) || !tr.insert_row(r)) {
      out.fail("pages: duplicate key in the hot table");
      return;
    }

  // A numeric column outside the primary key: updating it changes bytes
  // (and possibly secondary index entries) but never the row's identity.
  const auto& pk = tm.primary_def().cols;
  size_t col = SIZE_MAX;
  for (size_t i = 0; i < tm.schema().column_count() && col == SIZE_MAX; ++i)
    if (tm.schema().column(i).type != storage::ColType::Chars &&
        std::find(pk.begin(), pk.end(), i) == pk.end())
      col = i;
  std::vector<storage::RowId> rows;  // first occupied slot of each page
  for (storage::PageNo p = 0; p < tm.page_count(); ++p)
    for (uint16_t s = 0; s < tm.slots_per_page(); ++s)
      if (tm.slot_occupied({p, s})) {
        rows.push_back({p, s});
        break;
      }
  if (col == SIZE_MAX || rows.empty()) {
    out.fail("pages: hot table has no rows or no numeric column");
    return;
  }

  std::vector<storage::Page> before(rows.size());
  std::vector<txn::PageMod> mods(rows.size());
  uint64_t version = 0;
  double diff_s = 0, apply_s = 0;
  uint64_t pages = 0;
  const auto t0 = Clock::now();
  while (since(t0) < 2 * kBudget) {
    ++version;
    for (size_t i = 0; i < rows.size(); ++i) {
      before[i] = tm.page(rows[i].page);
      storage::Row r = tm.read_row(rows[i]);
      if (auto* v = std::get_if<int64_t>(&r[col]))
        *v += 1;
      else
        std::get<double>(r[col]) += 1.0;
      tm.update_row(rows[i], r);
    }
    auto t = Clock::now();
    for (size_t i = 0; i < rows.size(); ++i) {
      mods[i].pid = {in.hot_table, rows[i].page};
      mods[i].version = version;
      mods[i].runs = txn::diff_pages(before[i], tm.page(rows[i].page));
    }
    diff_s += since(t);
    t = Clock::now();
    for (const txn::PageMod& m : mods) txn::apply_mod_indexed(tr, m);
    apply_s += since(t);
    pages += rows.size();
  }
  out.diff_ns_per_page = diff_s * 1e9 / double(pages);
  out.apply_ns_per_page = apply_s * 1e9 / double(pages);
  if (!tm.pages_equal(tr)) out.fail("pages: replica diverged from master");
}

// ---- network: send + delivery between two nodes ----

sim::Task<> receiver(net::Network& net, net::NodeId id, uint64_t& got) {
  for (;;) {
    std::optional<net::Envelope> env = co_await net.mailbox(id).receive();
    if (!env) co_return;
    ++got;
  }
}

void replay_network(const ReplayInputs& in, HostLayers& out) {
  sim::Simulation sim;
  net::Network net(sim);
  const net::NodeId a = net.add_node("a");
  const net::NodeId b = net.add_node("b");
  uint64_t got = 0;
  sim.spawn(receiver(net, b, got));
  util::Rng rng(in.seed);
  uint64_t sent = 0;
  out.send_ns = ns_per_item([&] {
    constexpr size_t kBatch = 256;
    for (size_t i = 0; i < kBatch; ++i) {
      core::ClientRequest req;
      req.req_id = ++sent;
      req.reply_to = a;
      req.proc = "interaction";
      net.send(a, b, std::move(req), 64 + rng.below(1024));
    }
    sim.run();
    return kBatch;
  });
  net.kill(b);
  sim.run();
  if (got != sent) out.fail("network: messages lost");
}

// ---- event queue: schedule + dispatch at a constant depth ----

struct Events {
  explicit Events(uint64_t seed) : rng(seed) {}
  sim::Simulation sim;
  util::Rng rng;
  uint64_t fired = 0;
  uint64_t target = 0;
};

// Each firing reschedules itself, so the pending depth stays constant.
void tick(Events& e) {
  ++e.fired;
  e.sim.schedule_after(sim::Time(1 + e.rng.below(2 * sim::kMsec)),
                       [&e] { tick(e); });
  if (e.fired == e.target) e.sim.stop();
}

void replay_events(const ReplayInputs& in, HostLayers& out) {
  Events e(in.seed);
  const size_t depth = depth_of(in.pending_events);
  for (size_t i = 0; i < depth; ++i)
    e.sim.schedule_after(sim::Time(e.rng.below(2 * sim::kMsec)),
                         [&e] { tick(e); });
  uint64_t dispatched = 0;
  out.event_ns = ns_per_item([&] {
    constexpr uint64_t kBatch = 4096;
    e.target = e.fired + kBatch;
    e.sim.run();
    dispatched += kBatch;
    return kBatch;
  });
  if (e.fired != dispatched || e.sim.pending_events() != depth)
    out.fail("events: dispatch count or queue depth drifted");
}

}  // namespace

HostLayers replay_layers(const ReplayInputs& in) {
  HostLayers out;
  replay_storage(in, out);
  replay_locks(in, out);
  replay_pages(in, out);
  replay_network(in, out);
  replay_events(in, out);
  return out;
}

}  // namespace perfbench
