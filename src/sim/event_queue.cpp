#include "sim/event_queue.hpp"

#include <algorithm>

namespace dmv::sim {

void EventQueue::push(Event ev) {
  heap_.push_back(std::move(ev));
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

Event EventQueue::pop() {
  DMV_ASSERT(!heap_.empty());
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  Event ev = std::move(heap_.back());
  heap_.pop_back();
  return ev;
}

}  // namespace dmv::sim
