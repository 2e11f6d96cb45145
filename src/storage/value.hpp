// Column values, rows and index keys.
//
// All columns are fixed-width (ints, doubles, CHAR(n)), mirroring the MySQL
// HEAP table format the paper modified: fixed-width rows are what make
// page-level byte diffs and slot arithmetic exact.
#pragma once

#include <compare>
#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "util/assert.hpp"

namespace dmv::storage {

using Value = std::variant<int64_t, double, std::string>;
using Row = std::vector<Value>;

// Index key: one or more column values, compared lexicographically.
using Key = std::vector<Value>;

inline std::strong_ordering compare(const Value& a, const Value& b) {
  // Integers first, ahead of the type check: almost every index column is
  // one.
  if (const auto* ia = std::get_if<int64_t>(&a))
    if (const auto* ib = std::get_if<int64_t>(&b)) return *ia <=> *ib;
  DMV_ASSERT_MSG(a.index() == b.index(), "comparing mismatched value types");
  if (const auto* da = std::get_if<double>(&a)) {
    const auto db = std::get<double>(b);
    if (*da < db) return std::strong_ordering::less;
    if (*da > db) return std::strong_ordering::greater;
    return std::strong_ordering::equal;
  }
  const auto& sa = std::get<std::string>(a);
  const auto& sb = std::get<std::string>(b);
  const int c = sa.compare(sb);
  if (c < 0) return std::strong_ordering::less;
  if (c > 0) return std::strong_ordering::greater;
  return std::strong_ordering::equal;
}

inline std::strong_ordering compare(const Key& a, const Key& b) {
  const size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    const auto c = compare(a[i], b[i]);
    if (c != std::strong_ordering::equal) return c;
  }
  return a.size() <=> b.size();
}

// Compare `key` against `bound` over only bound's components. Used for
// prefix range scans (e.g. an upper bound on the first column of a
// composite index): a key whose prefix equals the bound compares equal,
// so the scan includes it.
inline std::strong_ordering compare_prefix(const Key& key, const Key& bound) {
  const size_t n = std::min(key.size(), bound.size());
  for (size_t i = 0; i < n; ++i) {
    const auto c = compare(key[i], bound[i]);
    if (c != std::strong_ordering::equal) return c;
  }
  if (bound.size() > key.size()) return std::strong_ordering::less;
  return std::strong_ordering::equal;
}

inline bool key_less(const Key& a, const Key& b) {
  return compare(a, b) == std::strong_ordering::less;
}
inline bool key_eq(const Key& a, const Key& b) {
  return compare(a, b) == std::strong_ordering::equal;
}

}  // namespace dmv::storage
