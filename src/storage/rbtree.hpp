// Red-black tree index mapping Key -> RowId.
//
// The paper attributes master saturation under the ordering mix partly to
// "costly index updates ... due to rebalancing for inserts in the RB-tree
// index data structure" — so the index really is a red-black tree, and it
// counts its rotations so the cost model can charge for rebalancing work.
//
// Keys are unique within a tree; non-unique secondary indexes are built by
// appending the primary key to the indexed columns (see Table).
//
// Nodes live in chunks the tree owns and are recycled through a LIFO free
// list. A slave re-indexes every slot it applies by erasing and
// re-inserting its keys; the nodes it frees come back to the same tree, so
// a table's index stays packed in a few chunks instead of spreading over
// the heap. Only the host-memory layout depends on this: insert, erase and
// rotation code, hence tree shape and rotations(), do not. Chunks are not
// returned on erase: a tree keeps the node memory of its peak size until
// clear() or destruction.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "storage/page.hpp"
#include "storage/value.hpp"

namespace dmv::storage {

class RbTree {
 public:
  RbTree();
  ~RbTree();
  RbTree(const RbTree&) = delete;
  RbTree& operator=(const RbTree&) = delete;
  RbTree(RbTree&& o) noexcept;
  RbTree& operator=(RbTree&& o) noexcept;

  // Returns false (and leaves the tree unchanged) on duplicate key.
  bool insert(const Key& key, RowId rid);

  // Returns false if the key was absent.
  bool erase(const Key& key);

  std::optional<RowId> find(const Key& key) const;

  // In-order visit of all entries with lo <= key <= hi (either bound may be
  // null for open ranges). hi is a prefix bound: keys longer than hi whose
  // prefix equals it are included (composite-index range scans). Both ends
  // are found by descent, so the walk between them compares no keys.
  // `fn` returns false to stop early.
  void scan(const Key* lo, const Key* hi,
            const std::function<bool(const Key&, RowId)>& fn) const;

  // Reverse-order visit of the same range (newest-first scans, e.g.
  // "the most recent N orders").
  void scan_desc(const Key* lo, const Key* hi,
                 const std::function<bool(const Key&, RowId)>& fn) const;

  // Visit every entry in order.
  void scan_all(const std::function<bool(const Key&, RowId)>& fn) const {
    scan(nullptr, nullptr, fn);
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  void clear();

  // Rotations performed since construction; proxy for rebalancing cost.
  uint64_t rotations() const { return rotations_; }

  // Validates the red-black invariants (root black, no red-red edge, equal
  // black height on every path, BST ordering). For tests.
  bool check_invariants() const;

 private:
  struct Node;
  Node* minimum(Node* x) const;
  Node* maximum(Node* x) const;
  Node* successor(Node* x) const;
  Node* predecessor(Node* x) const;
  Node* lower_bound(const Key& key) const;
  // Last node whose prefix-compare against `bound` is <= equal.
  Node* upper_bound_prefix(const Key& bound) const;
  // First and last node of [lo, hi], or nil_ twice if the range is empty.
  std::pair<Node*, Node*> range(const Key* lo, const Key* hi) const;
  Node* new_node(const Key& key, RowId rid, Node* parent);
  void release_node(Node* n);
  void rotate_left(Node* x);
  void rotate_right(Node* x);
  void insert_fixup(Node* z);
  void erase_fixup(Node* x);
  void transplant(Node* u, Node* v);

  Node* root_;
  Node* nil_;
  size_t size_ = 0;
  uint64_t rotations_ = 0;

  // Node pool: chunks grow geometrically up to kMaxChunk nodes; released
  // nodes go on a LIFO list threaded through `parent`.
  std::vector<std::unique_ptr<Node[]>> chunks_;
  size_t chunk_cap_ = 0;   // capacity of chunks_.back()
  size_t chunk_used_ = 0;  // nodes handed out from chunks_.back()
  Node* free_ = nullptr;
};

}  // namespace dmv::storage
