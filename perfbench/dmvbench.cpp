// dmvbench: the repository benchmark.
//
//   dmvbench --workload shopping|orders|scan --seed N --seconds S
//            --trace 0|1
//
// Runs one closed-loop workload on the 8-slave calibrated DMV cluster,
// checks the outputs, and prints one JSON object as the last line of
// stdout: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
// the end-to-end metrics of an untraced run; --trace 1 repeats the run
// with the span tracer on and reports the per-layer metrics (layer
// counters, stage spans, layer replays). Lines before the JSON start
// with '#': the run's fingerprint, the checks, and a readable summary.
// See README.md in this directory for the workloads and the metrics.
#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>

#include "deployment.hpp"
#include "replay.hpp"

using namespace perfbench;

namespace {

// Stage spans reported per workload, in protocol order.
const char* const kStages[] = {
    "sched.read",  "slave.read",       "slave.apply",   "sched.update",
    "lock.wait",   "master.exec",      "master.diff",   "master.broadcast",
    "master.commit", "disk.commit"};

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Nearest-rank quantile of an unsorted sample (0 when empty).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t rank = size_t(std::ceil(q * double(v.size())));
  return v[std::min(v.size(), std::max<size_t>(rank, 1)) - 1];
}

double mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return ratio(sum, double(v.size()));
}

// Peak resident set of this process so far, in MB.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  return 0;
}

struct Metric {
  std::string unit;
  double value;
};

class Report {
 public:
  void add(const std::string& name, double value, const char* unit) {
    metrics_.emplace_back(name, Metric{unit, value});
  }
  void check(bool ok, const std::string& what) {
    std::printf("# check %-46s %s\n", what.c_str(), ok ? "ok" : "FAILED");
    if (!ok) correct_ = false;
  }
  bool correct() const { return correct_; }

  void print(uint64_t attempted, uint64_t failed) const {
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                correct_ ? "true" : "false", attempted, failed);
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const auto& [name, m] = metrics_[i];
      // Shortest text that reads back as the same double: every digit.
      char num[32];
      const double v = std::isfinite(m.value) ? m.value : 0.0;
      *std::to_chars(num, num + sizeof num - 1, v).ptr = '\0';
      std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                  i ? ", " : "", name.c_str(), num, m.unit.c_str());
    }
    std::printf("}}\n");
  }

 private:
  std::vector<std::pair<std::string, Metric>> metrics_;
  bool correct_ = true;
};

struct Args {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
};

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a->workload = val;
      continue;
    }
    const long long n = std::strtoll(val, &end, 10);
    if (*val == '\0' || *end != '\0') return false;
    if (key == "--seed" && n >= 0 && n < (1ll << 31))
      a->seed = uint64_t(n);
    else if (key == "--seconds" && n >= 1 && n <= 600)
      a->seconds = int(n);
    else if (key == "--trace" && (n == 0 || n == 1))
      a->trace = int(n);
    else
      return false;
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0 &&
         a->trace >= 0;
}

// Simulated outputs that must not depend on tracing.
bool same_simulation(const RunResult& a, const RunResult& b) {
  return a.fingerprint == b.fingerprint && a.attempted == b.attempted &&
         a.ok == b.ok && a.read_ms == b.read_ms &&
         a.update_ms == b.update_ms &&
         a.window.events == b.window.events &&
         a.window.messages == b.window.messages &&
         a.total.update_commits == b.total.update_commits;
}

void end_to_end(Report& rep, const RunResult& r) {
  rep.add("wips", ratio(double(r.ok), r.window_virtual_s), "1/s");
  rep.add("read_p50_ms", quantile(r.read_ms, 0.50), "ms");
  rep.add("read_p95_ms", quantile(r.read_ms, 0.95), "ms");
  rep.add("update_mean_ms", mean(r.update_ms), "ms");
  rep.add("update_p99_ms", quantile(r.update_ms, 0.99), "ms");
  rep.add("success_rate", ratio(double(r.ok), double(r.attempted)), "ratio");
  rep.add("host_us_per_op",
          ratio(r.window_host_s * 1e6, double(r.attempted)), "us");
  rep.add("setup_s", r.load_s + r.cluster_s + r.warmup_s, "s");
}

void per_layer(Report& rep, const RunResult& u,
               const RunResult& t, const HostLayers& host,
               double mean_waiters, int64_t unattributed) {
  const LayerCounters& w = u.window;
  const double ops = double(u.attempted);
  rep.add("workload.attempts", ops, "count");
  rep.add("workload.read_n", double(u.read_ms.size()), "count");
  rep.add("workload.update_n", double(u.update_ms.size()), "count");
  // Not gated end to end: orders' ~1000 reads leave a sparse tail beyond
  // p95, and 78% of scan's updates take exactly the same time.
  rep.add("workload.read_p99_ms", quantile(u.read_ms, 0.99), "ms");
  rep.add("workload.update_p50_ms", quantile(u.update_ms, 0.50), "ms");

  rep.add("core.version_retries_per_read",
          ratio(double(w.version_retries), double(w.reads_routed)),
          "retries/read");
  rep.add("core.client_errors", double(w.sched_client_errors), "count");
  rep.add("core.unattributed_errors", double(unattributed), "count");

  rep.add("mem.version_aborts_per_read",
          ratio(double(w.slave_version_aborts), double(w.reads_routed)),
          "aborts/read");
  rep.add("mem.mods_applied_ratio",
          ratio(double(w.mods_applied), double(w.mods_enqueued)), "ratio");

  rep.add("txn.lock_waits_per_update",
          ratio(double(w.lock_waits), double(w.update_commits)),
          "waits/update");
  rep.add("txn.lock_deaths_per_update",
          ratio(double(w.lock_deaths), double(w.update_commits)),
          "deaths/update");
  rep.add("txn.mean_waiters", mean_waiters, "txns");

  rep.add("net.msgs_per_op", ratio(double(w.messages), ops), "msgs/op");
  rep.add("net.bytes_per_op", ratio(double(w.bytes), ops), "B/op");
  rep.add("net.writeset_bytes_per_commit",
          ratio(double(w.writeset_bytes), double(w.update_commits)),
          "B/commit");

  rep.add("sim.events_per_op", ratio(double(w.events), ops), "events/op");

  // Zero on the workloads that deploy no disk tier.
  rep.add("disk.records_applied_per_commit",
          ratio(double(w.disk_records_applied), double(w.update_commits)),
          "records/commit");
  rep.add("disk.log_backlog", double(u.log_backlog), "records");

  std::map<std::string, const dmv::obs::SpanStat*> by_name;
  for (const auto& s : t.spans) by_name[s.name] = &s;
  for (const char* stage : kStages) {
    const auto it = by_name.find(stage);
    const dmv::obs::SpanStat* s = it == by_name.end() ? nullptr : it->second;
    const std::string base = std::string("stage.") + stage;
    rep.add(base + ".p50_us", s ? s->p50_us : 0, "us");
    rep.add(base + ".p99_us", s ? s->p99_us : 0, "us");
    rep.add(base + ".per_op",
            s ? ratio(double(s->count), double(t.attempted)) : 0, "spans/op");
  }

  rep.add("host.setup.load_s", u.load_s, "s");
  rep.add("host.setup.cluster_s", u.cluster_s, "s");
  rep.add("host.setup.warmup_s", u.warmup_s, "s");
  rep.add("host.storage.find_ns", host.find_ns, "ns");
  rep.add("host.storage.scan_ns_per_row", host.scan_ns_per_row, "ns/row");
  rep.add("host.storage.decode_ns_per_row", host.decode_ns_per_row,
          "ns/row");
  rep.add("host.txn.acquire_us", host.acquire_us, "us");
  rep.add("host.txn.diff_ns_per_page", host.diff_ns_per_page, "ns/page");
  rep.add("host.txn.apply_ns_per_page", host.apply_ns_per_page, "ns/page");
  rep.add("host.net.send_ns", host.send_ns, "ns");
  rep.add("host.sim.event_ns", host.event_ns, "ns");

  const double u_per_op = ratio(u.window_host_s, double(u.attempted));
  const double t_per_op = ratio(t.window_host_s, double(t.attempted));
  rep.add("obs.trace_overhead_pct", 100.0 * (ratio(t_per_op, u_per_op) - 1),
          "%");
  rep.add("obs.spans_dropped", double(t.spans_dropped), "count");
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: dmvbench --workload shopping|orders|scan "
                 "--seed N --seconds S --trace 0|1\n");
    return 2;
  }
  const WorkloadSpec* spec = find_spec(args.workload);
  if (!spec) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const sim::Time window = sim::Time(std::llround(
      args.seconds * spec->virtual_per_host_s * double(sim::kSec)));

  const RunResult u = run_cluster(*spec, args.seed, window, false, 3);
  const double rss = peak_rss_mb();
  std::printf("# %s seed=%" PRIu64 " window=%.1fvs fingerprint=%016" PRIx64
              "\n",
              spec->name, args.seed, sim::to_seconds(window), u.fingerprint);

  std::printf("# host window %.3fs raw x %.3f speed = %.3fs, warm-up x %.3f\n",
              u.window_raw_s, u.window_scale, u.window_host_s,
              u.setup_scale);
  Report rep;
  const int64_t unattributed =
      int64_t(u.client_failures) - int64_t(u.total.sched_client_errors);
  rep.check(u.attempted > 0, "interactions completed in the window");
  rep.check(u.drained, "every interaction finished after the window");
  rep.check(unattributed == 0,
            "client failures == sum of scheduler client_errors (" +
                std::to_string(u.client_failures) + " vs " +
                std::to_string(u.total.sched_client_errors) + ")");
  rep.check(u.acked_updates <= u.total.update_commits,
            "acked updates <= master update commits (" +
                std::to_string(u.acked_updates) + " vs " +
                std::to_string(u.total.update_commits) + ")");
  check::CheckConfig cc;
  cc.workload = spec->check_family;
  cc.seed = args.seed;
  const check::CheckReport cr = check::run_check(cc, chaos::FaultPlan{});
  rep.check(cr.passed && cr.violations.empty(),
            std::string("fault-free 1-copy-SR check (") +
                check::check_workload_name(cc.workload) + ")");
  if (u.read_ms.size() < 200 || u.update_ms.size() < 1000)
    std::printf("# note: fewer than 10 samples beyond read_p95 or "
                "update_p99 (reads %zu, updates %zu)\n",
                u.read_ms.size(), u.update_ms.size());

  if (args.trace == 0) {
    end_to_end(rep, u);
    rep.add("peak_rss_mb", rss, "MB");
  } else {
    const RunResult t = run_cluster(*spec, args.seed, window, true, 1);
    rep.check(t.spans_dropped == 0, "traced run dropped no spans");
    rep.check(same_simulation(u, t),
              "traced run is bit-identical to the untraced run");
    double lock_wait_us = 0;
    for (const auto& s : t.spans)
      if (s.name == "lock.wait") lock_wait_us = s.total_us;
    const double mean_waiters =
        ratio(lock_wait_us, t.window_virtual_s * 1e6);

    const auto w = workload::make_workload(workload_options(*spec));
    ReplayInputs in;
    in.workload = w.get();
    in.salt = loader_salt(args.seed);
    in.seed = args.seed;
    in.hot_table = u.hottest_table;
    in.hot_rows = &u.hottest_rows;
    in.lock_queue_depth = mean_waiters;
    in.pending_events = t.mean_pending_events;
    const HostLayers host = replay_layers(in);
    rep.check(host.failure.empty(),
              "layer replays produced the expected results" +
                  (host.failure.empty() ? "" : " (" + host.failure + ")"));
    per_layer(rep, u, t, host, mean_waiters, unattributed);
  }
  // A failed interaction is an outcome of the model (success_rate); only
  // failures no layer accounts for count as failed operations here.
  rep.print(u.attempted, uint64_t(std::max<int64_t>(0, unattributed)));
  return rep.correct() ? 0 : 1;
}
