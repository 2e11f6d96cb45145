#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>

#include "storage/table.hpp"
#include "util/rng.hpp"

namespace dmv::storage {
namespace {

Schema test_schema() {
  return Schema({int_col("id"), char_col("name", 20), double_col("price"),
                 int_col("stock")});
}

Row make_row(int64_t id, const std::string& name, double price,
             int64_t stock) {
  return Row{id, name, price, stock};
}

TEST(Value, CompareOrders) {
  EXPECT_EQ(compare(Value{int64_t{1}}, Value{int64_t{2}}),
            std::strong_ordering::less);
  EXPECT_EQ(compare(Value{std::string("abc")}, Value{std::string("abd")}),
            std::strong_ordering::less);
  EXPECT_EQ(compare(Value{2.5}, Value{2.5}), std::strong_ordering::equal);
}

TEST(Value, PrefixCompareTreatsEqualPrefixAsEqual) {
  Key key{int64_t{5}, int64_t{99}};
  Key bound{int64_t{5}};
  EXPECT_EQ(compare_prefix(key, bound), std::strong_ordering::equal);
  EXPECT_EQ(compare_prefix(Key{int64_t{6}}, bound),
            std::strong_ordering::greater);
  // Full-key compare still ranks the longer key after the prefix.
  EXPECT_EQ(compare(bound, key), std::strong_ordering::less);
}

TEST(Schema, RowSizeAndOffsets) {
  Schema s = test_schema();
  EXPECT_EQ(s.row_size(), 8u + 20u + 8u + 8u);
  EXPECT_EQ(s.offset(0), 0u);
  EXPECT_EQ(s.offset(1), 8u);
  EXPECT_EQ(s.offset(2), 28u);
  EXPECT_EQ(s.col("price"), 2u);
}

TEST(Schema, EncodeDecodeRoundTrip) {
  Schema s = test_schema();
  std::vector<std::byte> buf(s.row_size());
  Row r = make_row(42, "dynamic multiversion", 3.14, -7);
  s.encode(r, buf);
  Row back = s.decode(buf);
  ASSERT_EQ(back.size(), 4u);
  EXPECT_EQ(std::get<int64_t>(back[0]), 42);
  EXPECT_EQ(std::get<std::string>(back[1]), "dynamic multiversion");
  EXPECT_DOUBLE_EQ(std::get<double>(back[2]), 3.14);
  EXPECT_EQ(std::get<int64_t>(back[3]), -7);
}

TEST(Schema, LongStringsTruncateToWidth) {
  Schema s({char_col("c", 4)});
  std::vector<std::byte> buf(4);
  s.encode(Row{std::string("abcdefgh")}, buf);
  EXPECT_EQ(std::get<std::string>(s.decode(buf)[0]), "abcd");
}

TEST(Schema, ShortStringsZeroPadded) {
  Schema s({char_col("c", 8)});
  std::vector<std::byte> buf(8, std::byte{0xFF});
  s.encode(Row{std::string("ab")}, buf);
  EXPECT_EQ(std::get<std::string>(s.decode(buf)[0]), "ab");
  EXPECT_EQ(buf[7], std::byte{0});
}

TEST(Page, OccupancyBitmap) {
  Page p;
  EXPECT_FALSE(p.occupied(0));
  p.set_occupied(0, true);
  p.set_occupied(7, true);
  p.set_occupied(511, true);
  EXPECT_TRUE(p.occupied(0));
  EXPECT_TRUE(p.occupied(7));
  EXPECT_TRUE(p.occupied(511));
  EXPECT_FALSE(p.occupied(8));
  p.set_occupied(7, false);
  EXPECT_FALSE(p.occupied(7));
  EXPECT_EQ(p.occupied_count(512), 2u);
}

// occupied_count counts whole 64-slot words at once; every slot-count
// cut, word-aligned or not, must agree with a slot-by-slot count.
TEST(Page, OccupiedCountMatchesSlotBySlot) {
  util::Rng rng(11);
  for (int iter = 0; iter < 20; ++iter) {
    Page p;
    for (size_t s = 0; s < kMaxSlots; ++s)
      if (rng.chance(iter % 2 ? 0.9 : 0.3)) p.set_occupied(s, true);
    for (size_t n = 0; n <= kMaxSlots; ++n) {
      size_t slow = 0;
      for (size_t s = 0; s < n; ++s) slow += p.occupied(s) ? 1 : 0;
      ASSERT_EQ(p.occupied_count(n), slow) << "iteration " << iter
                                           << ", " << n << " slots";
    }
  }
}

TEST(Page, SlotsPerPageBounds) {
  EXPECT_EQ(Page::slots_per_page(8), kMaxSlots);  // capped by bitmap
  EXPECT_EQ(Page::slots_per_page(1000), (kPageSize - kPageHeader) / 1000);
}

TEST(Page, EqualityIsByteWise) {
  Page a, b;
  EXPECT_TRUE(a == b);
  a.set_occupied(3, true);
  EXPECT_FALSE(a == b);
  b.set_occupied(3, true);
  EXPECT_TRUE(a == b);
}

TEST(RbTree, InsertFindErase) {
  RbTree t;
  EXPECT_TRUE(t.insert(Key{int64_t{5}}, RowId{1, 2}));
  EXPECT_FALSE(t.insert(Key{int64_t{5}}, RowId{9, 9}));  // dup
  auto f = t.find(Key{int64_t{5}});
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->page, 1u);
  EXPECT_EQ(f->slot, 2u);
  EXPECT_TRUE(t.erase(Key{int64_t{5}}));
  EXPECT_FALSE(t.erase(Key{int64_t{5}}));
  EXPECT_FALSE(t.find(Key{int64_t{5}}).has_value());
  EXPECT_EQ(t.size(), 0u);
}

TEST(RbTree, ScanRangeInclusive) {
  RbTree t;
  for (int64_t i = 0; i < 20; ++i) t.insert(Key{i}, RowId{0, uint16_t(i)});
  std::vector<int64_t> got;
  Key lo{int64_t{5}}, hi{int64_t{9}};
  t.scan(&lo, &hi, [&](const Key& k, RowId) {
    got.push_back(std::get<int64_t>(k[0]));
    return true;
  });
  EXPECT_EQ(got, (std::vector<int64_t>{5, 6, 7, 8, 9}));
}

TEST(RbTree, ScanEarlyStop) {
  RbTree t;
  for (int64_t i = 0; i < 100; ++i) t.insert(Key{i}, RowId{});
  int visited = 0;
  t.scan_all([&](const Key&, RowId) { return ++visited < 10; });
  EXPECT_EQ(visited, 10);
}

TEST(RbTree, PrefixUpperBoundKeepsCompositeKeys) {
  RbTree t;
  // Composite keys (a, b): prefix bound on a must include all b's.
  for (int64_t a = 0; a < 4; ++a)
    for (int64_t b = 0; b < 3; ++b) t.insert(Key{a, b}, RowId{});
  std::vector<std::pair<int64_t, int64_t>> got;
  Key lo{int64_t{1}}, hi{int64_t{2}};
  t.scan(&lo, &hi, [&](const Key& k, RowId) {
    got.emplace_back(std::get<int64_t>(k[0]), std::get<int64_t>(k[1]));
    return true;
  });
  ASSERT_EQ(got.size(), 6u);
  EXPECT_EQ(got.front(), (std::pair<int64_t, int64_t>{1, 0}));
  EXPECT_EQ(got.back(), (std::pair<int64_t, int64_t>{2, 2}));
}

TEST(RbTree, ScanDescReversesOrder) {
  RbTree t;
  for (int64_t i = 0; i < 10; ++i) t.insert(Key{i}, RowId{});
  std::vector<int64_t> got;
  t.scan_desc(nullptr, nullptr, [&](const Key& k, RowId) {
    got.push_back(std::get<int64_t>(k[0]));
    return true;
  });
  ASSERT_EQ(got.size(), 10u);
  EXPECT_EQ(got.front(), 9);
  EXPECT_EQ(got.back(), 0);
}

TEST(RbTree, ScanDescRangeInclusive) {
  RbTree t;
  for (int64_t i = 0; i < 20; ++i) t.insert(Key{i}, RowId{});
  std::vector<int64_t> got;
  Key lo{int64_t{5}}, hi{int64_t{9}};
  t.scan_desc(&lo, &hi, [&](const Key& k, RowId) {
    got.push_back(std::get<int64_t>(k[0]));
    return true;
  });
  EXPECT_EQ(got, (std::vector<int64_t>{9, 8, 7, 6, 5}));
}

TEST(RbTree, ScanDescPrefixUpperBound) {
  RbTree t;
  for (int64_t a = 0; a < 4; ++a)
    for (int64_t b = 0; b < 3; ++b) t.insert(Key{a, b}, RowId{});
  std::vector<std::pair<int64_t, int64_t>> got;
  Key hi{int64_t{1}};
  t.scan_desc(nullptr, &hi, [&](const Key& k, RowId) {
    got.emplace_back(std::get<int64_t>(k[0]), std::get<int64_t>(k[1]));
    return true;
  });
  // All (0,*) and (1,*), newest-first.
  ASSERT_EQ(got.size(), 6u);
  EXPECT_EQ(got.front(), (std::pair<int64_t, int64_t>{1, 2}));
  EXPECT_EQ(got.back(), (std::pair<int64_t, int64_t>{0, 0}));
}

TEST(RbTree, ScanDescEmptyTree) {
  RbTree t;
  int visits = 0;
  t.scan_desc(nullptr, nullptr, [&](const Key&, RowId) {
    ++visits;
    return true;
  });
  EXPECT_EQ(visits, 0);
}

TEST(RbTree, StringKeys) {
  RbTree t;
  t.insert(Key{std::string("mango")}, RowId{0, 1});
  t.insert(Key{std::string("apple")}, RowId{0, 2});
  t.insert(Key{std::string("peach")}, RowId{0, 3});
  std::vector<std::string> order;
  t.scan_all([&](const Key& k, RowId) {
    order.push_back(std::get<std::string>(k[0]));
    return true;
  });
  EXPECT_EQ(order, (std::vector<std::string>{"apple", "mango", "peach"}));
}

TEST(RbTree, MoveTakesNodesAndLeavesSourceEmpty) {
  RbTree a;
  for (int64_t i = 0; i < 40; ++i) a.insert(Key{i}, RowId{0, uint16_t(i)});
  for (int64_t i = 0; i < 40; i += 2) a.erase(Key{i});  // fill the free list
  RbTree b(std::move(a));
  EXPECT_TRUE(a.empty());
  a.insert(Key{int64_t{7}}, RowId{});  // the source stays usable
  RbTree c;
  c.insert(Key{int64_t{99}}, RowId{});
  c = std::move(b);
  EXPECT_TRUE(b.empty());
  for (int64_t i = 0; i < 40; i += 2) c.insert(Key{i}, RowId{1, 0});
  ASSERT_TRUE(c.check_invariants());
  std::vector<int64_t> got;
  c.scan_all([&](const Key& k, RowId) {
    got.push_back(std::get<int64_t>(k[0]));
    return true;
  });
  ASSERT_EQ(got.size(), 40u);
  for (int64_t i = 0; i < 40; ++i) EXPECT_EQ(got[size_t(i)], i);
  EXPECT_EQ(c.find(Key{int64_t{3}})->slot, 3u);
  EXPECT_FALSE(c.find(Key{int64_t{99}}).has_value());
}

// Property tests: random interleaved inserts/erases vs std::map reference,
// with invariant checks along the way.
class RbTreeProperty : public ::testing::TestWithParam<uint64_t> {
 protected:
  // rotations() at the end of each test, per seed. The node pool must not
  // change the algorithm: the cost model charges index_rotation for every
  // rotation, so any change here changes simulated time.
  uint64_t pinned(const std::map<uint64_t, uint64_t>& by_seed) const {
    const auto it = by_seed.find(GetParam());
    if (it == by_seed.end()) {
      ADD_FAILURE() << "no rotation pin for seed " << GetParam();
      return 0;
    }
    return it->second;
  }
};

TEST_P(RbTreeProperty, MatchesReferenceModel) {
  util::Rng rng(GetParam());
  RbTree t;
  std::map<int64_t, RowId> ref;
  for (int step = 0; step < 4000; ++step) {
    const int64_t k = rng.between(0, 500);
    if (rng.chance(0.55)) {
      const RowId rid{uint32_t(rng.below(1000)), uint16_t(rng.below(100))};
      const bool inserted = t.insert(Key{k}, rid);
      const bool ref_inserted = ref.emplace(k, rid).second;
      EXPECT_EQ(inserted, ref_inserted);
    } else {
      EXPECT_EQ(t.erase(Key{k}), ref.erase(k) > 0);
    }
    if (step % 257 == 0) ASSERT_TRUE(t.check_invariants());
  }
  ASSERT_TRUE(t.check_invariants());
  EXPECT_EQ(t.size(), ref.size());
  auto it = ref.begin();
  bool match = true;
  t.scan_all([&](const Key& k, RowId rid) {
    if (it == ref.end() || std::get<int64_t>(k[0]) != it->first ||
        rid != it->second)
      match = false;
    ++it;
    return match;
  });
  EXPECT_TRUE(match);
  EXPECT_EQ(it, ref.end());
  EXPECT_EQ(t.rotations(), pinned({{1, 893},
                                   {2, 841},
                                   {3, 773},
                                   {5, 810},
                                   {8, 792},
                                   {13, 837},
                                   {21, 838},
                                   {34, 912}}));
}

using IntKey = std::vector<int64_t>;

Key to_key(const IntKey& k) { return Key(k.begin(), k.end()); }

// The entries a scan over [lo, hi] must visit, ascending. hi is a prefix
// bound: a key is in range when its first |hi| columns are <= hi.
std::vector<std::pair<IntKey, RowId>> ref_range(
    const std::map<IntKey, RowId>& ref, const IntKey* lo, const IntKey* hi) {
  std::vector<std::pair<IntKey, RowId>> out;
  for (const auto& [k, rid] : ref) {
    if (lo && k < *lo) continue;
    if (hi && IntKey(k.begin(), k.begin() + std::min(k.size(), hi->size())) >
                  *hi)
      continue;
    out.emplace_back(k, rid);
  }
  return out;
}

// Runs scan and scan_desc over [lo, hi], stopping each after `stop_after`
// visits, and compares both with the reference.
void expect_scans_match(const RbTree& t, const std::map<IntKey, RowId>& ref,
                        const IntKey* lo, const IntKey* hi,
                        size_t stop_after) {
  const Key klo = lo ? to_key(*lo) : Key{};
  const Key khi = hi ? to_key(*hi) : Key{};
  auto want = ref_range(ref, lo, hi);
  const auto visit = [&](std::vector<std::pair<IntKey, RowId>>& got) {
    return [&got, stop_after](const Key& k, RowId rid) {
      IntKey ik;
      for (const Value& v : k) ik.push_back(std::get<int64_t>(v));
      got.emplace_back(std::move(ik), rid);
      return got.size() < stop_after;
    };
  };
  std::vector<std::pair<IntKey, RowId>> asc, desc;
  t.scan(lo ? &klo : nullptr, hi ? &khi : nullptr, visit(asc));
  t.scan_desc(lo ? &klo : nullptr, hi ? &khi : nullptr, visit(desc));
  auto want_desc = want;
  std::reverse(want_desc.begin(), want_desc.end());
  if (want.size() > stop_after) want.resize(stop_after);
  if (want_desc.size() > stop_after) want_desc.resize(stop_after);
  EXPECT_EQ(asc, want);
  EXPECT_EQ(desc, want_desc);
}

// A random bound: open, one column (a prefix of the composite key) or both
// columns, reaching past the keys on either side.
std::optional<IntKey> random_bound(util::Rng& rng, int64_t a_max,
                                   int64_t b_max) {
  const uint64_t kind = rng.below(8);
  if (kind == 0) return std::nullopt;
  const int64_t a = rng.between(-3, a_max + 3);
  if (kind < 4) return IntKey{a};
  return IntKey{a, rng.between(-2, b_max + 2)};
}

// Range scans after the slave-apply pattern: every key erased and
// re-inserted in shuffled order, several times, with random inserts and
// erases in between so the node free list is reused out of key order.
TEST_P(RbTreeProperty, ChurnedRangeScansMatchReference) {
  constexpr int64_t kA = 60, kB = 8;
  util::Rng rng(GetParam());
  RbTree t;
  std::map<IntKey, RowId> ref;
  const auto random_rid = [&] {
    return RowId{uint32_t(rng.below(1000)), uint16_t(rng.below(100))};
  };
  for (int64_t a = 0; a < kA; ++a)
    for (int64_t b = 0; b < kB; ++b)
      if (rng.chance(0.7)) {
        const RowId rid = random_rid();
        ASSERT_TRUE(t.insert(to_key({a, b}), rid));
        ref.emplace(IntKey{a, b}, rid);
      }

  for (int round = 0; round < 6; ++round) {
    std::vector<IntKey> keys;
    for (const auto& [k, rid] : ref) keys.push_back(k);
    for (size_t i = keys.size(); i > 1; --i)
      std::swap(keys[i - 1], keys[rng.below(i)]);
    for (const IntKey& k : keys) {
      if (!ref.count(k)) continue;  // erased earlier this round
      ASSERT_TRUE(t.erase(to_key(k)));
      const RowId rid = random_rid();
      ASSERT_TRUE(t.insert(to_key(k), rid));
      ref[k] = rid;
      if (rng.chance(0.1)) {
        const IntKey other{rng.between(0, kA - 1), rng.between(0, kB - 1)};
        if (rng.chance(0.5)) {
          const RowId r2 = random_rid();
          EXPECT_EQ(t.insert(to_key(other), r2), ref.emplace(other, r2).second);
        } else {
          EXPECT_EQ(t.erase(to_key(other)), ref.erase(other) > 0);
        }
      }
    }
    ASSERT_TRUE(t.check_invariants());
    ASSERT_EQ(t.size(), ref.size());
  }

  for (int q = 0; q < 400; ++q) {
    const auto lo = random_bound(rng, kA, kB);
    const auto hi = random_bound(rng, kA, kB);
    const size_t stop_after =
        rng.chance(0.25) ? 1 + rng.below(12) : SIZE_MAX;
    expect_scans_match(t, ref, lo ? &*lo : nullptr, hi ? &*hi : nullptr,
                       stop_after);
  }
  // The cases the random bounds may miss, spelled out.
  const IntKey below{-5}, above{kA + 5}, mid{kA / 2}, mid_b{kA / 2, 3};
  expect_scans_match(t, ref, &above, &below, SIZE_MAX);   // lo > hi
  expect_scans_match(t, ref, &mid_b, &mid, SIZE_MAX);     // lo > hi by b
  expect_scans_match(t, ref, &mid, &mid_b, SIZE_MAX);
  expect_scans_match(t, ref, &below, &above, SIZE_MAX);   // covers all
  expect_scans_match(t, ref, &above, nullptr, SIZE_MAX);  // past the end
  expect_scans_match(t, ref, nullptr, &below, SIZE_MAX);  // before start
  expect_scans_match(t, ref, &mid, &mid, SIZE_MAX);       // one prefix
  expect_scans_match(t, ref, nullptr, nullptr, 1);

  EXPECT_EQ(t.rotations(), pinned({{1, 1585},
                                   {2, 1532},
                                   {3, 1524},
                                   {5, 1611},
                                   {8, 1602},
                                   {13, 1610},
                                   {21, 1644},
                                   {34, 1558}}));

  // Emptied by erases, then by clear(): no scan visits anything.
  for (const auto& [k, rid] : ref) ASSERT_TRUE(t.erase(to_key(k)));
  ref.clear();
  expect_scans_match(t, ref, nullptr, nullptr, SIZE_MAX);
  expect_scans_match(t, ref, &below, &above, SIZE_MAX);
  t.insert(to_key(mid_b), RowId{});
  t.clear();
  EXPECT_TRUE(t.empty());
  expect_scans_match(t, ref, &mid, &mid, SIZE_MAX);
  expect_scans_match(t, ref, nullptr, nullptr, SIZE_MAX);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RbTreeProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(Table, InsertReadBack) {
  Table t(0, "item", test_schema(), IndexDef{"pk", {0}, true});
  auto rid = t.insert_row(make_row(1, "book", 9.99, 10));
  ASSERT_TRUE(rid.has_value());
  Row r = t.read_row(*rid);
  EXPECT_EQ(std::get<std::string>(r[1]), "book");
  EXPECT_EQ(t.row_count(), 1u);
}

TEST(Table, PrimaryKeyDuplicateRejected) {
  Table t(0, "item", test_schema(), IndexDef{"pk", {0}, true});
  ASSERT_TRUE(t.insert_row(make_row(1, "a", 1, 1)).has_value());
  EXPECT_FALSE(t.insert_row(make_row(1, "b", 2, 2)).has_value());
  EXPECT_EQ(t.row_count(), 1u);
}

TEST(Table, UpdateMaintainsSecondaryIndex) {
  Table t(0, "item", test_schema(), IndexDef{"pk", {0}, true},
          {IndexDef{"by_name", {1}, false}});
  auto rid = *t.insert_row(make_row(1, "alpha", 1, 1));
  t.insert_row(make_row(2, "beta", 2, 2));
  t.update_row(rid, make_row(1, "zeta", 1, 1));
  std::vector<int64_t> ids;
  Key lo{std::string("z")};
  t.sec_scan(0, &lo, nullptr, [&](const Key&, RowId r) {
    ids.push_back(std::get<int64_t>(t.read_row(r)[0]));
    return true;
  });
  EXPECT_EQ(ids, (std::vector<int64_t>{1}));
  // Old key gone.
  size_t alpha_hits = 0;
  Key alo{std::string("alpha")}, ahi{std::string("alpha")};
  t.sec_scan(0, &alo, &ahi, [&](const Key&, RowId) {
    ++alpha_hits;
    return true;
  });
  EXPECT_EQ(alpha_hits, 0u);
}

TEST(Table, DeleteFreesSlotForReuse) {
  Table t(0, "item", test_schema(), IndexDef{"pk", {0}, true});
  auto r1 = *t.insert_row(make_row(1, "a", 1, 1));
  t.delete_row(r1);
  EXPECT_EQ(t.row_count(), 0u);
  auto r2 = *t.insert_row(make_row(2, "b", 2, 2));
  EXPECT_EQ(r1.page, r2.page);
  EXPECT_EQ(r1.slot, r2.slot);  // first free slot reused
  EXPECT_FALSE(t.pk_find(Key{int64_t{1}}).has_value());
  EXPECT_TRUE(t.pk_find(Key{int64_t{2}}).has_value());
}

TEST(Table, PkUpdateMovesIndexEntry) {
  Table t(0, "item", test_schema(), IndexDef{"pk", {0}, true});
  auto rid = *t.insert_row(make_row(1, "a", 1, 1));
  t.update_row(rid, make_row(99, "a", 1, 1));
  EXPECT_FALSE(t.pk_find(Key{int64_t{1}}).has_value());
  auto f = t.pk_find(Key{int64_t{99}});
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(*f, rid);
}

TEST(Table, GrowsAcrossPages) {
  Table t(0, "item", test_schema(), IndexDef{"pk", {0}, true});
  const size_t spp = t.slots_per_page();
  for (size_t i = 0; i < spp + 3; ++i)
    ASSERT_TRUE(t.insert_row(make_row(int64_t(i), "x", 0, 0)).has_value());
  EXPECT_EQ(t.page_count(), 2u);
  EXPECT_EQ(t.row_count(), spp + 3);
  // All retrievable.
  for (size_t i = 0; i < spp + 3; ++i)
    EXPECT_TRUE(t.pk_find(Key{int64_t(i)}).has_value());
}

TEST(Table, RawApplicationPathMatchesLogical) {
  // Mutate table A logically; copy its raw pages into table B and reindex;
  // B must serve identical queries.
  Table a(0, "item", test_schema(), IndexDef{"pk", {0}, true},
          {IndexDef{"by_stock", {3}, false}});
  Table b(0, "item", test_schema(), IndexDef{"pk", {0}, true},
          {IndexDef{"by_stock", {3}, false}});
  util::Rng rng(77);
  std::vector<RowId> rids;
  for (int i = 0; i < 300; ++i)
    rids.push_back(
        *a.insert_row(make_row(i, "n" + std::to_string(i), i * 0.5, i % 7)));
  for (int i = 0; i < 100; ++i) {
    const auto& rid = rids[rng.below(rids.size())];
    if (a.slot_occupied(rid)) {
      if (rng.chance(0.5))
        a.delete_row(rid);
      else
        a.update_row(rid, make_row(std::get<int64_t>(a.read_row(rid)[0]),
                                   "upd", 1.0, 42));
    }
  }
  // Raw page copy.
  for (PageNo p = 0; p < a.page_count(); ++p) {
    b.ensure_page(p);
    std::copy(a.page(p).raw().begin(), a.page(p).raw().end(),
              b.page(p).raw().begin());
  }
  b.rebuild_indexes();
  EXPECT_TRUE(a.pages_equal(b));
  EXPECT_EQ(a.row_count(), b.row_count());
  EXPECT_EQ(a.primary_tree().size(), b.primary_tree().size());
  // Spot-check queries agree.
  for (int64_t k = 0; k < 300; k += 13) {
    auto fa = a.pk_find(Key{k});
    auto fb = b.pk_find(Key{k});
    EXPECT_EQ(fa.has_value(), fb.has_value());
  }
  // Secondary index agrees on a full scan.
  size_t ca = 0, cb = 0;
  a.sec_scan(0, nullptr, nullptr, [&](const Key&, RowId) {
    ++ca;
    return true;
  });
  b.sec_scan(0, nullptr, nullptr, [&](const Key&, RowId) {
    ++cb;
    return true;
  });
  EXPECT_EQ(ca, cb);
}

TEST(Table, UnindexIndexSlotRoundTrip) {
  Table t(0, "item", test_schema(), IndexDef{"pk", {0}, true});
  auto rid = *t.insert_row(make_row(7, "x", 0, 0));
  t.unindex_slot(rid.page, rid.slot);
  EXPECT_FALSE(t.pk_find(Key{int64_t{7}}).has_value());
  EXPECT_EQ(t.row_count(), 0u);
  t.index_slot(rid.page, rid.slot);
  EXPECT_TRUE(t.pk_find(Key{int64_t{7}}).has_value());
  EXPECT_EQ(t.row_count(), 1u);
}

TEST(Database, AddAndFindTables) {
  Database db;
  TableId a = db.add_table("alpha", test_schema(), IndexDef{"pk", {0}, true});
  TableId b = db.add_table("beta", test_schema(), IndexDef{"pk", {0}, true});
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(db.table_count(), 2u);
  EXPECT_EQ(db.find_table("beta")->id(), b);
  EXPECT_EQ(db.find_table("gamma"), nullptr);
}

TEST(Database, PagesEqualDetectsDivergence) {
  Database x, y;
  x.add_table("t", test_schema(), IndexDef{"pk", {0}, true});
  y.add_table("t", test_schema(), IndexDef{"pk", {0}, true});
  x.table(0).insert_row(make_row(1, "a", 1, 1));
  EXPECT_FALSE(x.pages_equal(y));
  y.table(0).insert_row(make_row(1, "a", 1, 1));
  EXPECT_TRUE(x.pages_equal(y));
}

}  // namespace
}  // namespace dmv::storage
