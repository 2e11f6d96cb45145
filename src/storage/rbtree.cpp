#include "storage/rbtree.hpp"

#include <algorithm>

namespace dmv::storage {

struct RbTree::Node {
  Key key;
  RowId rid;
  Node* left;
  Node* right;
  Node* parent;
  bool red;
};

namespace {
// First chunk fits a small table's index; later chunks double up to the
// cap, so a tree wastes at most one partly used chunk.
constexpr size_t kFirstChunk = 16;
constexpr size_t kMaxChunk = 1024;
}  // namespace

RbTree::RbTree() {
  nil_ = new Node{};
  nil_->left = nil_->right = nil_->parent = nil_;
  nil_->red = false;
  root_ = nil_;
}

RbTree::~RbTree() { delete nil_; }

RbTree::RbTree(RbTree&& o) noexcept : RbTree() { *this = std::move(o); }

RbTree& RbTree::operator=(RbTree&& o) noexcept {
  if (this != &o) {
    std::swap(root_, o.root_);
    std::swap(nil_, o.nil_);
    std::swap(size_, o.size_);
    std::swap(rotations_, o.rotations_);
    std::swap(chunks_, o.chunks_);
    std::swap(chunk_cap_, o.chunk_cap_);
    std::swap(chunk_used_, o.chunk_used_);
    std::swap(free_, o.free_);
    o.clear();
  }
  return *this;
}

RbTree::Node* RbTree::new_node(const Key& key, RowId rid, Node* parent) {
  Node* n = free_;
  if (n != nullptr) {
    free_ = n->parent;
  } else {
    if (chunk_used_ == chunk_cap_) {
      chunk_cap_ = chunk_cap_ == 0 ? kFirstChunk
                                   : std::min(2 * chunk_cap_, kMaxChunk);
      chunks_.push_back(std::make_unique<Node[]>(chunk_cap_));
      chunk_used_ = 0;
    }
    n = &chunks_.back()[chunk_used_++];
  }
  n->key = key;
  n->rid = rid;
  n->left = n->right = nil_;
  n->parent = parent;
  n->red = true;
  return n;
}

void RbTree::release_node(Node* n) {
  n->key = Key();  // a free node holds no key storage
  n->parent = free_;
  free_ = n;
}

void RbTree::clear() {
  chunks_.clear();
  chunk_cap_ = chunk_used_ = 0;
  free_ = nullptr;
  root_ = nil_;
  size_ = 0;
}

void RbTree::rotate_left(Node* x) {
  ++rotations_;
  Node* y = x->right;
  x->right = y->left;
  if (y->left != nil_) y->left->parent = x;
  y->parent = x->parent;
  if (x->parent == nil_)
    root_ = y;
  else if (x == x->parent->left)
    x->parent->left = y;
  else
    x->parent->right = y;
  y->left = x;
  x->parent = y;
}

void RbTree::rotate_right(Node* x) {
  ++rotations_;
  Node* y = x->left;
  x->left = y->right;
  if (y->right != nil_) y->right->parent = x;
  y->parent = x->parent;
  if (x->parent == nil_)
    root_ = y;
  else if (x == x->parent->right)
    x->parent->right = y;
  else
    x->parent->left = y;
  y->right = x;
  x->parent = y;
}

bool RbTree::insert(const Key& key, RowId rid) {
  Node* y = nil_;
  Node* x = root_;
  while (x != nil_) {
    y = x;
    const auto c = compare(key, x->key);
    if (c == std::strong_ordering::equal) return false;
    x = (c == std::strong_ordering::less) ? x->left : x->right;
  }
  Node* z = new_node(key, rid, y);
  if (y == nil_)
    root_ = z;
  else if (key_less(key, y->key))
    y->left = z;
  else
    y->right = z;
  insert_fixup(z);
  ++size_;
  return true;
}

void RbTree::insert_fixup(Node* z) {
  while (z->parent->red) {
    if (z->parent == z->parent->parent->left) {
      Node* y = z->parent->parent->right;
      if (y->red) {
        z->parent->red = false;
        y->red = false;
        z->parent->parent->red = true;
        z = z->parent->parent;
      } else {
        if (z == z->parent->right) {
          z = z->parent;
          rotate_left(z);
        }
        z->parent->red = false;
        z->parent->parent->red = true;
        rotate_right(z->parent->parent);
      }
    } else {
      Node* y = z->parent->parent->left;
      if (y->red) {
        z->parent->red = false;
        y->red = false;
        z->parent->parent->red = true;
        z = z->parent->parent;
      } else {
        if (z == z->parent->left) {
          z = z->parent;
          rotate_right(z);
        }
        z->parent->red = false;
        z->parent->parent->red = true;
        rotate_left(z->parent->parent);
      }
    }
  }
  root_->red = false;
}

RbTree::Node* RbTree::minimum(Node* x) const {
  while (x->left != nil_) x = x->left;
  return x;
}

RbTree::Node* RbTree::maximum(Node* x) const {
  while (x->right != nil_) x = x->right;
  return x;
}

RbTree::Node* RbTree::successor(Node* x) const {
  if (x->right != nil_) return minimum(x->right);
  Node* p = x->parent;
  while (p != nil_ && x == p->right) {
    x = p;
    p = p->parent;
  }
  return p;
}

RbTree::Node* RbTree::predecessor(Node* x) const {
  if (x->left != nil_) return maximum(x->left);
  Node* p = x->parent;
  while (p != nil_ && x == p->left) {
    x = p;
    p = p->parent;
  }
  return p;
}

void RbTree::transplant(Node* u, Node* v) {
  if (u->parent == nil_)
    root_ = v;
  else if (u == u->parent->left)
    u->parent->left = v;
  else
    u->parent->right = v;
  v->parent = u->parent;
}

bool RbTree::erase(const Key& key) {
  Node* z = root_;
  while (z != nil_) {
    const auto c = compare(key, z->key);
    if (c == std::strong_ordering::equal) break;
    z = (c == std::strong_ordering::less) ? z->left : z->right;
  }
  if (z == nil_) return false;

  Node* y = z;
  bool y_was_red = y->red;
  Node* x;
  if (z->left == nil_) {
    x = z->right;
    transplant(z, z->right);
  } else if (z->right == nil_) {
    x = z->left;
    transplant(z, z->left);
  } else {
    y = minimum(z->right);
    y_was_red = y->red;
    x = y->right;
    if (y->parent == z) {
      x->parent = y;
    } else {
      transplant(y, y->right);
      y->right = z->right;
      y->right->parent = y;
    }
    transplant(z, y);
    y->left = z->left;
    y->left->parent = y;
    y->red = z->red;
  }
  release_node(z);
  if (!y_was_red) erase_fixup(x);
  --size_;
  return true;
}

void RbTree::erase_fixup(Node* x) {
  while (x != root_ && !x->red) {
    if (x == x->parent->left) {
      Node* w = x->parent->right;
      if (w->red) {
        w->red = false;
        x->parent->red = true;
        rotate_left(x->parent);
        w = x->parent->right;
      }
      if (!w->left->red && !w->right->red) {
        w->red = true;
        x = x->parent;
      } else {
        if (!w->right->red) {
          w->left->red = false;
          w->red = true;
          rotate_right(w);
          w = x->parent->right;
        }
        w->red = x->parent->red;
        x->parent->red = false;
        w->right->red = false;
        rotate_left(x->parent);
        x = root_;
      }
    } else {
      Node* w = x->parent->left;
      if (w->red) {
        w->red = false;
        x->parent->red = true;
        rotate_right(x->parent);
        w = x->parent->left;
      }
      if (!w->right->red && !w->left->red) {
        w->red = true;
        x = x->parent;
      } else {
        if (!w->left->red) {
          w->right->red = false;
          w->red = true;
          rotate_left(w);
          w = x->parent->left;
        }
        w->red = x->parent->red;
        x->parent->red = false;
        w->left->red = false;
        rotate_right(x->parent);
        x = root_;
      }
    }
  }
  x->red = false;
}

std::optional<RowId> RbTree::find(const Key& key) const {
  Node* x = root_;
  while (x != nil_) {
    const auto c = compare(key, x->key);
    if (c == std::strong_ordering::equal) return x->rid;
    x = (c == std::strong_ordering::less) ? x->left : x->right;
  }
  return std::nullopt;
}

RbTree::Node* RbTree::lower_bound(const Key& key) const {
  Node* x = root_;
  Node* best = nil_;
  while (x != nil_) {
    if (!key_less(x->key, key)) {  // x->key >= key
      best = x;
      x = x->left;
    } else {
      x = x->right;
    }
  }
  return best;
}

RbTree::Node* RbTree::upper_bound_prefix(const Key& bound) const {
  Node* x = root_;
  Node* best = nil_;
  while (x != nil_) {
    if (compare_prefix(x->key, bound) != std::strong_ordering::greater) {
      best = x;
      x = x->right;
    } else {
      x = x->left;
    }
  }
  return best;
}

std::pair<RbTree::Node*, RbTree::Node*> RbTree::range(const Key* lo,
                                                      const Key* hi) const {
  if (root_ == nil_) return {nil_, nil_};
  Node* first = lo ? lower_bound(*lo) : minimum(root_);
  Node* last = hi ? upper_bound_prefix(*hi) : maximum(root_);
  // A key's prefix-compare against hi only grows in key order, so the
  // range is exactly [first, last]; it is empty when an end is missing or
  // the ends cross (lo above hi).
  if (first == nil_ || last == nil_ ||
      (lo && hi && key_less(last->key, first->key)))
    return {nil_, nil_};
  return {first, last};
}

void RbTree::scan(const Key* lo, const Key* hi,
                  const std::function<bool(const Key&, RowId)>& fn) const {
  auto [x, last] = range(lo, hi);
  if (x == nil_) return;
  while (fn(x->key, x->rid) && x != last) x = successor(x);
}

void RbTree::scan_desc(const Key* lo, const Key* hi,
                       const std::function<bool(const Key&, RowId)>& fn)
    const {
  auto [first, x] = range(lo, hi);
  if (x == nil_) return;
  while (fn(x->key, x->rid) && x != first) x = predecessor(x);
}

bool RbTree::check_invariants() const {
  if (root_->red) return false;
  // Returns the black height, or -1 on error (depth is O(log n), so
  // recursion is safe).
  std::function<int(const Node*)> check = [&](const Node* n) -> int {
    if (n == nil_) return 1;
    if (n->red && (n->left->red || n->right->red)) return -1;
    if (n->left != nil_ && !key_less(n->left->key, n->key)) return -1;
    if (n->right != nil_ && !key_less(n->key, n->right->key)) return -1;
    const int lh = check(n->left);
    const int rh = check(n->right);
    if (lh < 0 || rh < 0 || lh != rh) return -1;
    return lh + (n->red ? 0 : 1);
  };
  return check(root_) >= 0;
}

}  // namespace dmv::storage
