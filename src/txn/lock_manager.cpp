#include "txn/lock_manager.hpp"

#include "obs/trace.hpp"

namespace dmv::txn {

LockManager::~LockManager() { shutdown(); }

bool LockManager::compatible(const LockState& ls, const TxnCtx& txn,
                             LockMode mode) const {
  if (ls.x_holder && ls.x_holder != &txn) return false;
  if (mode == LockMode::Exclusive) {
    for (auto& [id, holder] : ls.sharers)
      if (holder != &txn) return false;
  }
  return true;
}

bool LockManager::must_die(const LockState& ls, const TxnCtx& txn,
                           LockMode mode) const {
  // Wait-die with queue-aware edges: the requester may wait only if it is
  // strictly older (smaller ts) than every conflicting holder AND every
  // already-queued waiter. This keeps ts strictly increasing along every
  // waits-for chain, so cycles are impossible even with FIFO queueing.
  if (ls.x_holder && ls.x_holder != &txn && ls.x_holder->ts() < txn.ts())
    return true;
  if (mode == LockMode::Exclusive) {
    for (auto& [id, holder] : ls.sharers)
      if (holder != &txn && holder->ts() < txn.ts()) return true;
  }
  for (auto& w : ls.queue)
    if (w->txn->ts() < txn.ts()) return true;
  return false;
}

void LockManager::grant(LockState& ls, TxnCtx& txn, LockMode mode) {
  // Callers record the pid in txn.held_locks() on first grant.
  if (mode == LockMode::Exclusive) {
    ls.sharers.erase(txn.id());  // covers S -> X upgrade
    ls.x_holder = &txn;
  } else {
    if (ls.x_holder != &txn) ls.sharers.emplace(txn.id(), &txn);
  }
}

bool LockManager::creates_cycle(const TxnCtx& txn, storage::PageId pid) {
  // Walks pages, not waiters: a waiter queued on q waits for exactly q's
  // holders and queue (FIFO), so reaching one waiter of q reaches q and its
  // queue-mates add nothing. The running requester is in no queue, so a
  // cycle exists iff it holds a page reached via "holder -> page it is
  // blocked on" (blocked_on_ keeps granted waiters until they resume).
  DMV_ASSERT(!blocked_on_.count(&txn));
  std::vector<storage::PageId> stack;
  std::set<storage::PageId> visited;
  auto follow_holders = [&](const LockState& ls) {
    auto follow = [&](const TxnCtx* holder) {
      auto bit = blocked_on_.find(holder);
      if (bit != blocked_on_.end()) stack.push_back(bit->second);
    };
    if (ls.x_holder) follow(ls.x_holder);
    for (const auto& [id, holder] : ls.sharers) follow(holder);
  };
  const LockState& start = locks_.at(pid);
  if (!start.queue.empty()) stack.push_back(pid);
  follow_holders(start);
  while (!stack.empty()) {
    const storage::PageId q = stack.back();
    stack.pop_back();
    auto it = locks_.find(q);
    if (!visited.insert(q).second || it == locks_.end()) continue;
    ++cycle_pages_;
    if (it->second.x_holder == &txn || it->second.sharers.count(txn.id()))
      return true;
    follow_holders(it->second);
  }
  return false;
}

sim::Task<LockRc> LockManager::acquire(TxnCtx& txn, storage::PageId pid,
                                       LockMode mode) {
  if (shutdown_) co_return LockRc::Cancelled;
  LockState& ls = locks_[pid];

  // Reentrant fast paths.
  if (ls.x_holder == &txn) co_return LockRc::Granted;
  if (mode == LockMode::Shared && ls.sharers.count(txn.id()))
    co_return LockRc::Granted;

  const bool was_holder = ls.sharers.count(txn.id()) > 0;
  if (ls.queue.empty() && compatible(ls, txn, mode)) {
    grant(ls, txn, mode);
    if (!was_holder) txn.held_locks().push_back(pid);
    co_return LockRc::Granted;
  }

  if (policy_ == LockPolicy::WaitDie) {
    if (must_die(ls, txn, mode)) {
      ++deaths_;
      obs::count("lock.deaths", trace_node_);
      co_return LockRc::Died;
    }
  } else {
    if (creates_cycle(txn, pid)) {
      ++deaths_;
      obs::count("lock.deaths", trace_node_);
      co_return LockRc::Died;
    }
  }

  ++waits_;
  auto waiter = std::make_unique<Waiter>();
  waiter->txn = &txn;
  waiter->mode = mode;
  waiter->wake = std::make_unique<sim::WaitQueue>(sim_);
  sim::WaitQueue* wake = waiter->wake.get();
  ls.queue.push_back(std::move(waiter));
  blocked_on_[&txn] = pid;

  obs::SpanGuard span("lock.wait", obs::Cat::Lock, trace_node_, txn.id());
  const sim::Time wait_start = sim_.now();
  const bool ok = co_await wake->wait();
  span.done();
  obs::count("lock.wait_us", trace_node_, double(sim_.now() - wait_start));
  blocked_on_.erase(&txn);
  if (!ok) co_return LockRc::Cancelled;
  // pump() granted the lock and recorded it before waking us.
  co_return LockRc::Granted;
}

void LockManager::pump(storage::PageId pid) {
  auto it = locks_.find(pid);
  if (it == locks_.end()) return;
  LockState& ls = it->second;
  while (!ls.queue.empty()) {
    Waiter& head = *ls.queue.front();
    if (!compatible(ls, *head.txn, head.mode)) break;
    const bool was_holder = ls.sharers.count(head.txn->id()) > 0 ||
                            ls.x_holder == head.txn;
    grant(ls, *head.txn, head.mode);
    if (!was_holder) head.txn->held_locks().push_back(pid);
    head.wake->notify_one(true);  // empties the wake queue before dtor
    ls.queue.pop_front();
  }
  if (ls.queue.empty() && ls.sharers.empty() && !ls.x_holder)
    locks_.erase(it);
}

void LockManager::release_all(TxnCtx& txn) {
  for (storage::PageId pid : txn.held_locks()) {
    auto it = locks_.find(pid);
    if (it == locks_.end()) continue;
    LockState& ls = it->second;
    if (ls.x_holder == &txn) ls.x_holder = nullptr;
    ls.sharers.erase(txn.id());
    pump(pid);
  }
  txn.held_locks().clear();
}

void LockManager::shutdown() {
  if (shutdown_) return;
  shutdown_ = true;
  for (auto& [pid, ls] : locks_) {
    for (auto& w : ls.queue) w->wake->notify_one(false);
    ls.queue.clear();
  }
  locks_.clear();
}

bool LockManager::x_locked(storage::PageId pid) const {
  auto it = locks_.find(pid);
  return it != locks_.end() && it->second.x_holder != nullptr;
}

bool LockManager::held_by(storage::PageId pid, const TxnCtx& txn) const {
  auto it = locks_.find(pid);
  if (it == locks_.end()) return false;
  return it->second.x_holder == &txn ||
         it->second.sharers.count(txn.id()) > 0;
}

}  // namespace dmv::txn
