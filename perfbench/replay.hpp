// Layer replays: host time of single layers, measured by calling each
// layer's public functions directly on the workload's own data. They
// attribute host_us_per_op to storage, lock manager, page diff/apply,
// network and event queue without instrumenting the program.
#pragma once

#include <cstdint>
#include <string>

#include "workload/workload.hpp"

namespace perfbench {

struct ReplayInputs {
  const dmv::workload::Workload* workload = nullptr;
  uint64_t salt = 0;                 // loader salt of the measured run
  uint64_t seed = 0;                 // key order, message sizes
  dmv::storage::TableId hot_table = 0;  // most-updated table in the window
  const std::vector<dmv::storage::Row>* hot_rows = nullptr;  // as it ended
  double lock_queue_depth = 0;       // txn.mean_waiters of the traced run
  double pending_events = 0;         // mean event-queue depth in the window
};

struct HostLayers {
  double find_ns = 0;           // Table::pk_find, per lookup
  double scan_ns_per_row = 0;   // Table::pk_scan over every table
  double decode_ns_per_row = 0;  // Schema::decode of every stored row
  double acquire_us = 0;        // LockManager::acquire + release_all
  double diff_ns_per_page = 0;  // txn::diff_pages
  double apply_ns_per_page = 0;  // txn::apply_mod_indexed
  double send_ns = 0;           // Network::send + delivery
  double event_ns = 0;          // Simulation::schedule_after + dispatch
  std::string failure;  // empty: every replay produced the expected result

  void fail(std::string what) {
    if (failure.empty()) failure = std::move(what);
  }
};

HostLayers replay_layers(const ReplayInputs& in);

}  // namespace perfbench
