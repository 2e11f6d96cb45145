// One benchmark run: the 8-slave DMV cluster under one closed-loop
// workload, assembled from the system's public constructors
// (net::Network, core::DmvCluster, workload::make_workload,
// workload::spawn_clients) so the benchmark needs nothing outside src/'s
// public headers.
//
// A run is: set-up (data load, cluster build + prewarm, virtual warm-up),
// one measured virtual window, then a drain in which the clients stop
// and every in-flight interaction completes, so whole-run totals can be
// checked against the layers' own counters.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "check/checker.hpp"
#include "core/cluster.hpp"
#include "obs/export.hpp"
#include "workload/client.hpp"

namespace perfbench {

using namespace dmv;

struct WorkloadSpec {
  const char* name;
  workload::Kind kind;
  size_t clients;
  bool persistence;              // deploy the §4.6 on-disk back-end
  double virtual_per_host_s;     // measured virtual seconds per --seconds
  sim::Time warmup;              // virtual warm-up before the window
  check::CheckWorkload check_family;  // op-mix of the fault-free check
};

// The benchmark's workloads by name; nullptr for an unknown name.
const WorkloadSpec* find_spec(const std::string& name);

// Monotone layer counters, summed over the cluster's nodes. Window
// metrics are differences of two snapshots.
struct LayerCounters {
  uint64_t reads_routed = 0;         // Σ scheduler
  uint64_t version_retries = 0;      // Σ scheduler version_abort_retries
  uint64_t sched_client_errors = 0;  // Σ scheduler client_errors
  uint64_t slave_version_aborts = 0;
  uint64_t mods_enqueued = 0;        // every engine node
  uint64_t mods_applied = 0;
  uint64_t update_commits = 0;       // Σ masters
  uint64_t lock_waits = 0;           // Σ masters' lock managers
  uint64_t lock_deaths = 0;
  uint64_t messages = 0;
  uint64_t bytes = 0;
  uint64_t writeset_bytes = 0;       // WriteSetMsg + WriteSetBatchMsg
  uint64_t events = 0;
  uint64_t disk_records_applied = 0;  // Σ backends

  LayerCounters operator-(const LayerCounters& o) const;
};

// Host times are in nominal-speed seconds: raw host seconds scaled by the
// phase's speed probe (see SpeedProbe in deployment.cpp).
struct RunResult {
  // Set-up host seconds: the loader's own time, the rest of cluster
  // construction + start, and the virtual warm-up.
  double load_s = 0;
  double cluster_s = 0;
  double warmup_s = 0;
  double setup_scale = 1;  // speed-probe factor of the warm-up

  // Measured window.
  double window_virtual_s = 0;
  double window_host_s = 0;
  double window_raw_s = 0;  // unscaled host seconds
  double window_scale = 1;  // speed-probe factor of the window
  uint64_t attempted = 0;  // interactions that ended inside the window
  uint64_t ok = 0;
  std::vector<double> read_ms;    // successful read-only latencies
  std::vector<double> update_ms;  // successful update latencies
  LayerCounters window;
  uint64_t log_backlog = 0;  // persistence log records when the window closes
  double mean_pending_events = 0;  // sampled every step of the window
  storage::TableId hottest_table = 0;  // most versions produced in window
  std::vector<storage::Row> hottest_rows;  // its rows on the master, then

  // Whole run, after the drain.
  uint64_t fingerprint = 0;
  uint64_t client_failures = 0;
  uint64_t acked_updates = 0;
  LayerCounters total;
  bool drained = false;

  // Traced run only (span stats over spans begun inside the window).
  std::vector<obs::SpanStat> spans;
  size_t spans_dropped = 0;
};

// Builds the cluster `builds` times (keeping the last, so set-up times
// can be reported as medians) and runs it. `traced` enables the tracer
// for the window only.
RunResult run_cluster(const WorkloadSpec& spec, uint64_t seed,
                      sim::Time window, bool traced, int builds);

// The workload a spec runs (store scale of the figure benches: 1000 items).
workload::Options workload_options(const WorkloadSpec& spec);
// Loader salt derived from the seed (perturbs the TPC-W data image).
uint64_t loader_salt(uint64_t seed);

}  // namespace perfbench
