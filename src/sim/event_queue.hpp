// Pending-event set for the simulation kernel: a binary min-heap ordered
// by (time, seq), so equal-timestamp events run strictly FIFO. The queue
// is about 2% of host time, so a cleverer structure cannot pay for
// itself end to end (DESIGN.md §11 has the measurements).
//
// Popping via std::pop_heap + vector::pop_back moves the element out of a
// mutable vector slot, never through priority_queue::top()'s const
// reference.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/time.hpp"
#include "util/assert.hpp"

namespace dmv::sim {

struct Event {
  Time at;
  uint64_t seq;
  std::function<void()> fn;
};

class EventQueue {
 public:
  void push(Event ev);

  // Earliest (at, seq) event. Both require !empty().
  Time peek_time() const {
    DMV_ASSERT(!heap_.empty());
    return heap_.front().at;
  }
  Event pop();

  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }

 private:
  struct Later {  // min-heap comparator (std:: heap algorithms are max-)
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  std::vector<Event> heap_;
};

}  // namespace dmv::sim
