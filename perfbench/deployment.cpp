#include "deployment.hpp"

#include <algorithm>
#include <chrono>
#include <set>

#include "core/messages.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Host clock with a speed probe. A shared host changes speed by tens of
// percent within a minute, and the simulator with it: one orders seed's
// window took 19.7 to 26.0 CPU seconds over three runs. So every step of
// a run is followed by one fixed unit of benchmark-owned, allocation-bound
// work (building and freeing a std::set of 4096 keys; it tracked the
// simulator's slowdowns better than a pointer chase), and the step's host
// time is scaled by kNominal / that probe's time. Host metrics thus read
// as seconds on a host where one probe takes kNominal, about its median
// on the 4-core Xeon the benchmark was sized on.
class HostClock {
 public:
  static constexpr double kNominal = 0.6e-3;

  // Times `advance`, then one probe.
  template <typename Fn>
  void step(Fn&& advance) {
    const auto t0 = Clock::now();
    advance();
    const double raw = since(t0);
    const double p = probe();
    raw_ += raw;
    nominal_ += raw * kNominal / p;
    probes_.push_back(p);
  }
  double raw_s() const { return raw_; }
  double nominal_s() const { return nominal_; }
  // Median factor from raw to nominal seconds (1 before any step).
  double scale() const {
    if (probes_.empty()) return 1;
    std::vector<double> t = probes_;
    std::nth_element(t.begin(), t.begin() + t.size() / 2, t.end());
    return kNominal / t[t.size() / 2];
  }

 private:
  double probe() {
    const auto t0 = Clock::now();
    std::set<uint64_t> keys;
    uint64_t x = 0x2545f4914f6cdd1dull;
    for (int i = 0; i < 4096; ++i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      keys.insert(x >> 16);
    }
    sink_ += keys.size();
    return since(t0);
  }

  std::vector<double> probes_;
  double raw_ = 0;
  double nominal_ = 0;
  size_t sink_ = 0;
};

// Granularity of the window and drain loops. Stepping Simulation::run
// does not change event order; both the traced and the untraced run step
// identically.
constexpr sim::Time kStep = 100 * sim::kMsec;
constexpr sim::Time kDrainLimit = 120 * sim::kSec;

// Categories holding the stage spans the benchmark reports; client and
// message-level spans are left out to keep the traced run small.
constexpr uint32_t kStageCats =
    obs::mask_of(obs::Cat::Scheduler) | obs::mask_of(obs::Cat::Txn) |
    obs::mask_of(obs::Cat::Lock) | obs::mask_of(obs::Cat::Replication) |
    obs::mask_of(obs::Cat::Apply) | obs::mask_of(obs::Cat::Disk);
constexpr size_t kMaxSpans = size_t(1) << 23;

// The figure benches' calibrated costs, fixed here so the benchmark does
// not move with them: a slave peaks at a few hundred interactions/s.
txn::CostModel bench_costs() {
  txn::CostModel c;
  c.mem_cpu_read_query = 2 * sim::kMsec;
  c.mem_cpu_write_query = 400;
  return c;
}

uint64_t splitmix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// FNV-1a over the simulated outcome of every interaction.
class Fingerprint {
 public:
  void add(const workload::InteractionRecord& r) {
    mix(&r.start, sizeof r.start);
    mix(&r.end, sizeof r.end);
    const uint8_t ok = r.ok ? 1 : 0;
    mix(&ok, 1);
    for (const char* p = r.proc; p && *p; ++p) mix(p, 1);
  }
  uint64_t value() const { return h_; }

 private:
  void mix(const void* data, size_t n) {
    const auto* b = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) h_ = (h_ ^ b[i]) * 0x100000001b3ull;
  }
  uint64_t h_ = 0xcbf29ce484222325ull;
};

class Deployment {
 public:
  Deployment(const WorkloadSpec& spec, uint64_t seed)
      : spec_(spec), seed_(seed) {
    sim_ = std::make_unique<sim::Simulation>();
    tracer_ = std::make_unique<obs::Tracer>(*sim_, kMaxSpans);
    tracer_->set_category_mask(kStageCats);
    prev_tracer_ = obs::set_tracer(tracer_.get());
    net_ = std::make_unique<net::Network>(*sim_);
    workload_ = workload::make_workload(workload_options(spec));
    registry_ = workload_->make_registry();

    core::DmvCluster::Config cc;
    cc.slaves = 8;
    cc.engine.costs = bench_costs();
    cc.scheduler.rng_seed = splitmix(seed);
    cc.enable_persistence = spec.persistence;
    cc.persistence.engine.costs = bench_costs();
    cc.schema = workload::schema_fn(workload_);
    // The cluster owns the loader and dies before load_s_.
    cc.loader = [this, salt = loader_salt(seed)](storage::Database& db) {
      const auto t0 = Clock::now();
      workload_->load(db, 0, salt);
      load_s_ += since(t0);
    };
    cluster_ = std::make_unique<core::DmvCluster>(*net_, registry_, cc);
    cluster_->start();
  }

  ~Deployment() { obs::set_tracer(prev_tracer_); }

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  // Host seconds the cluster's loader has spent so far.
  double load_s() const { return load_s_; }

  // Client ids start at seed * 4096, so every seed drives a disjoint set
  // of client streams (and, on TPC-W, disjoint generated ids).
  void start_clients() {
    run_flag_ = std::make_shared<bool>(true);
    workload::Client::Config base;
    base.think_mean = 700 * sim::kMsec;
    base.client_id = seed_ * 4096;
    clients_ = workload::spawn_clients(
        *sim_, spec_.clients, base, *workload_,
        [this](size_t i) -> workload::ExecuteFn {
          conns_.push_back(
              cluster_->make_client("client" + std::to_string(i)));
          core::ClusterClient* c = conns_.back().get();
          return [this, c](const std::string& proc, api::Params p) {
            ++started_;
            return c->execute(proc, std::move(p));
          };
        },
        [this](const workload::InteractionRecord& r) { record(r); },
        run_flag_);
  }

  RunResult run(sim::Time warmup, sim::Time window, bool traced) {
    RunResult out;
    HostClock warm;
    while (sim_->now() < warmup)
      warm.step([&] { sim_->run(std::min(sim_->now() + kStep, warmup)); });
    out.setup_scale = warm.scale();
    out.warmup_s = warm.nominal_s();

    const LayerCounters c0 = counters();
    const mem::VersionVec v0 = cluster_->master().engine().version();
    w0_ = sim_->now();
    w1_ = w0_ + window;
    res_ = &out;
    if (traced) tracer_->enable();
    HostClock clock;
    double pending_sum = 0;
    size_t samples = 0;
    while (sim_->now() < w1_) {
      clock.step([&] { sim_->run(std::min(sim_->now() + kStep, w1_)); });
      pending_sum += double(sim_->pending_events());
      ++samples;
    }
    out.window_raw_s = clock.raw_s();
    out.window_scale = clock.scale();
    out.window_host_s = clock.nominal_s();
    tracer_->disable();
    out.window_virtual_s = sim::to_seconds(window);
    out.window = counters() - c0;
    out.mean_pending_events = samples ? pending_sum / double(samples) : 0;
    if (core::PersistenceBinding* p = cluster_->persistence())
      out.log_backlog = p->log_size();
    out.hottest_table = hottest(v0, cluster_->master().engine().version());
    const storage::Table& hot =
        cluster_->master().engine().db().table(out.hottest_table);
    for (storage::PageNo p = 0; p < hot.page_count(); ++p)
      for (uint16_t s = 0; s < hot.slots_per_page(); ++s)
        if (hot.slot_occupied({p, s}))
          out.hottest_rows.push_back(hot.read_row({p, s}));

    // Drain: stop the clients and let every in-flight interaction finish.
    *run_flag_ = false;
    const sim::Time limit = sim_->now() + kDrainLimit;
    while (started_ != finished_ && sim_->now() < limit)
      sim_->run(sim_->now() + kStep);
    out.drained = started_ == finished_;
    out.total = counters();
    out.fingerprint = fp_.value();
    out.client_failures = client_failures_;
    out.acked_updates = acked_updates_;
    if (traced) {
      out.spans = obs::span_stats(*tracer_);
      out.spans_dropped = tracer_->dropped();
    }
    res_ = nullptr;
    return out;
  }

 private:
  void record(const workload::InteractionRecord& r) {
    ++finished_;
    fp_.add(r);
    if (!r.ok) ++client_failures_;
    if (r.ok && r.is_write) ++acked_updates_;
    if (!res_ || r.end < w0_ || r.end >= w1_) return;
    ++res_->attempted;
    if (!r.ok) return;
    ++res_->ok;
    const double ms = sim::to_seconds(r.end - r.start) * 1000.0;
    (r.is_write ? res_->update_ms : res_->read_ms).push_back(ms);
  }

  LayerCounters counters() {
    LayerCounters c;
    core::DmvCluster& cl = *cluster_;
    for (size_t i = 0; i < cl.scheduler_count(); ++i) {
      const core::SchedulerStats& s = cl.scheduler(i).stats();
      c.reads_routed += s.reads_routed;
      c.version_retries += s.version_abort_retries;
      c.sched_client_errors += s.client_errors;
    }
    auto add_engine = [&c](mem::MemEngine& e) {
      c.mods_enqueued += e.stats().mods_enqueued;
      c.mods_applied += e.stats().mods_applied;
    };
    for (size_t i = 0; i < cl.slave_count(); ++i) {
      mem::MemEngine& e = cl.node(cl.slave_id(i)).engine();
      c.slave_version_aborts += e.stats().version_aborts;
      add_engine(e);
    }
    for (size_t i = 0; i < cl.master_count(); ++i) {
      mem::MemEngine& e = cl.master(i).engine();
      c.update_commits += e.stats().update_commits;
      c.lock_waits += e.locks().wait_count();
      c.lock_deaths += e.locks().death_count();
      add_engine(e);
    }
    const net::Network& net = *net_;
    c.messages = net.messages_sent();
    c.bytes = net.bytes_sent();
    c.writeset_bytes = net.stats_of<core::WriteSetMsg>().bytes +
                       net.stats_of<core::WriteSetBatchMsg>().bytes;
    c.events = sim_->events_processed();
    if (core::PersistenceBinding* p = cl.persistence())
      for (size_t i = 0; i < p->backend_count(); ++i)
        c.disk_records_applied += p->backend_applied(i);
    return c;
  }

  static storage::TableId hottest(const mem::VersionVec& before,
                                  const mem::VersionVec& after) {
    storage::TableId best = 0;
    uint64_t most = 0;
    for (size_t t = 0; t < after.size() && t < before.size(); ++t)
      if (after[t] - before[t] > most) {
        most = after[t] - before[t];
        best = storage::TableId(t);
      }
    return best;
  }

  const WorkloadSpec& spec_;
  uint64_t seed_;
  double load_s_ = 0;
  // Declared before sim_: members destroy in reverse order, so the
  // tracer outlives the simulation and every span guard in a frame.
  std::unique_ptr<obs::Tracer> tracer_;
  obs::Tracer* prev_tracer_ = nullptr;
  std::unique_ptr<sim::Simulation> sim_;
  std::unique_ptr<net::Network> net_;
  std::shared_ptr<const workload::Workload> workload_;
  api::ProcRegistry registry_;
  std::unique_ptr<core::DmvCluster> cluster_;
  std::vector<std::unique_ptr<core::ClusterClient>> conns_;
  std::vector<std::unique_ptr<workload::Client>> clients_;
  std::shared_ptr<bool> run_flag_;

  uint64_t started_ = 0;
  uint64_t finished_ = 0;
  uint64_t client_failures_ = 0;
  uint64_t acked_updates_ = 0;
  Fingerprint fp_;
  sim::Time w0_ = sim::Simulation::kTimeMax;
  sim::Time w1_ = sim::Simulation::kTimeMax;
  RunResult* res_ = nullptr;
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

}  // namespace

LayerCounters LayerCounters::operator-(const LayerCounters& o) const {
  LayerCounters d;
  d.reads_routed = reads_routed - o.reads_routed;
  d.version_retries = version_retries - o.version_retries;
  d.sched_client_errors = sched_client_errors - o.sched_client_errors;
  d.slave_version_aborts = slave_version_aborts - o.slave_version_aborts;
  d.mods_enqueued = mods_enqueued - o.mods_enqueued;
  d.mods_applied = mods_applied - o.mods_applied;
  d.update_commits = update_commits - o.update_commits;
  d.lock_waits = lock_waits - o.lock_waits;
  d.lock_deaths = lock_deaths - o.lock_deaths;
  d.messages = messages - o.messages;
  d.bytes = bytes - o.bytes;
  d.writeset_bytes = writeset_bytes - o.writeset_bytes;
  d.events = events - o.events;
  d.disk_records_applied = disk_records_applied - o.disk_records_applied;
  return d;
}

const WorkloadSpec* find_spec(const std::string& name) {
  static const WorkloadSpec all[] = {
      {"shopping", workload::Kind::Tpcw, 1000, false, 6.0, 10 * sim::kSec,
       check::CheckWorkload::Mixed},
      {"orders", workload::Kind::Orders, 800, true, 0.8, 4 * sim::kSec,
       check::CheckWorkload::Orders},
      {"scan", workload::Kind::Scan, 1200, false, 2.4, 8 * sim::kSec,
       check::CheckWorkload::Scan},
  };
  for (const WorkloadSpec& s : all)
    if (name == s.name) return &s;
  return nullptr;
}

workload::Options workload_options(const WorkloadSpec& spec) {
  workload::Options o;
  o.kind = spec.kind;
  o.scale.items = 1000;
  o.mix = tpcw::Mix::Shopping;
  return o;
}

uint64_t loader_salt(uint64_t seed) { return seed + 1; }

RunResult run_cluster(const WorkloadSpec& spec, uint64_t seed,
                      sim::Time window, bool traced, int builds) {
  std::vector<double> load_s, cluster_s;
  std::unique_ptr<Deployment> d;
  for (int b = 0; b < builds; ++b) {
    d.reset();
    const auto t0 = Clock::now();
    d = std::make_unique<Deployment>(spec, seed);
    d->start_clients();
    load_s.push_back(d->load_s());
    cluster_s.push_back(since(t0) - d->load_s());
  }
  RunResult r = d->run(spec.warmup, window, traced);
  r.load_s = median(load_s) * r.setup_scale;
  r.cluster_s = median(cluster_s) * r.setup_scale;
  return r;
}

}  // namespace perfbench
