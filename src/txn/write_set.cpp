#include "txn/write_set.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

namespace dmv::txn {

size_t PageMod::byte_size() const {
  size_t n = 16;  // pid + version
  for (const auto& r : runs) n += 8 + r.bytes.size();
  return n;
}

size_t WriteSet::byte_size() const {
  size_t n = 8 + 8 * db_version.size();
  for (const auto& m : mods) n += m.byte_size();
  return n;
}

namespace {

uint64_t word_at(const std::byte* p) {
  uint64_t w;
  std::memcpy(&w, p, sizeof w);
  return w;
}

// One bit per slot of a page, slot s at bit s % 64 of word s / 64.
using SlotBits = std::array<uint64_t, storage::kMaxSlots / 64>;

// The slots whose bytes or occupancy bit `runs` touch.
SlotBits touched_slots(const std::vector<ByteRun>& runs, size_t row_size,
                       size_t slots_per_page) {
  DMV_ASSERT(slots_per_page <= storage::kMaxSlots);
  SlotBits bits{};
  const auto mark = [&](size_t lo, size_t hi) {  // slots [lo, hi)
    for (size_t s = lo; s < std::min(hi, slots_per_page); ++s)
      bits[s / 64] |= uint64_t{1} << (s % 64);
  };
  for (const auto& r : runs) {
    const size_t lo = r.offset;
    const size_t hi = r.offset + r.bytes.size();  // exclusive
    // Bitmap bytes touched: every slot whose bit lives in [lo, hi) within
    // the header may have flipped occupancy.
    if (lo < storage::kPageHeader)
      mark(lo * 8, std::min(hi, storage::kPageHeader) * 8);
    // Row bytes touched.
    if (hi > storage::kPageHeader)
      mark((std::max(lo, storage::kPageHeader) - storage::kPageHeader) /
               row_size,
           (hi - storage::kPageHeader + row_size - 1) / row_size);
  }
  return bits;
}

// Call f(slot) for every set slot, in ascending slot order.
template <typename F>
void for_each_slot(const SlotBits& bits, F&& f) {
  for (size_t w = 0; w < bits.size(); ++w)
    for (uint64_t x = bits[w]; x != 0; x &= x - 1)
      f(uint16_t(w * 64 + size_t(std::countr_zero(x))));
}

// Unindex the slots `mod` touches, copy its bytes in, re-index and refresh
// the page's free-space bookkeeping. Returns the slots re-indexed.
size_t apply_reindexing(storage::Table& table, const PageMod& mod) {
  const storage::PageNo page = mod.pid.page;
  const SlotBits slots = touched_slots(
      mod.runs, table.schema().row_size(), table.slots_per_page());
  for_each_slot(slots, [&](uint16_t s) { table.unindex_slot(page, s); });
  apply_runs(table.page(page), mod.runs);
  for_each_slot(slots, [&](uint16_t s) { table.index_slot(page, s); });
  table.refresh_page_bookkeeping(page);
  size_t n = 0;
  for (uint64_t w : slots) n += size_t(std::popcount(w));
  return n;
}

}  // namespace

std::vector<ByteRun> diff_pages(const storage::Page& before,
                                const storage::Page& after,
                                size_t merge_gap) {
  static_assert(storage::kPageSize % sizeof(uint64_t) == 0);
  std::vector<ByteRun> runs;
  const std::byte* a = before.raw().data();
  const std::byte* b = after.raw().data();
  size_t i = 0;
  while (i < storage::kPageSize) {
    // An equal aligned word holds no run start: skip it whole. The byte
    // loop below walks from a run's end to the next word boundary.
    if (i % sizeof(uint64_t) == 0)
      while (i < storage::kPageSize && word_at(a + i) == word_at(b + i))
        i += sizeof(uint64_t);
    if (i == storage::kPageSize) break;
    if (a[i] == b[i]) {
      ++i;
      continue;
    }
    // Start of a changed run; extend while changed or the gap of unchanged
    // bytes ahead is small enough to merge through.
    const size_t start = i;
    size_t end = i + 1;
    size_t scan = end;
    size_t gap = 0;
    while (scan < storage::kPageSize) {
      if (a[scan] != b[scan]) {
        end = scan + 1;
        gap = 0;
      } else if (++gap > merge_gap) {
        break;
      }
      ++scan;
    }
    ByteRun run;
    run.offset = uint32_t(start);
    run.bytes.assign(b + start, b + end);
    runs.push_back(std::move(run));
    i = end;
  }
  return runs;
}

void apply_runs(storage::Page& target, const std::vector<ByteRun>& runs) {
  for (const auto& r : runs) {
    DMV_ASSERT(r.offset + r.bytes.size() <= storage::kPageSize);
    std::memcpy(target.raw().data() + r.offset, r.bytes.data(),
                r.bytes.size());
  }
}

std::vector<uint16_t> PageMod::affected_slots(size_t row_size,
                                              size_t slots_per_page) const {
  std::vector<uint16_t> slots;
  for_each_slot(touched_slots(runs, row_size, slots_per_page),
                [&](uint16_t s) { slots.push_back(s); });
  return slots;
}

size_t apply_mod_indexed(storage::Table& table, const PageMod& mod) {
  table.ensure_page(mod.pid.page);
  const size_t slots = apply_reindexing(table, mod);
  DMV_ASSERT_MSG(mod.version >= table.meta(mod.pid.page).version,
                 "write-set applied out of order");
  table.meta(mod.pid.page).version = mod.version;
  return slots;
}

void restore_page(storage::Table& table, storage::PageNo page,
                  const storage::Page& before) {
  PageMod restore;
  restore.pid = {table.id(), page};
  restore.runs = diff_pages(table.page(page), before);
  if (!restore.runs.empty()) apply_reindexing(table, restore);
}

}  // namespace dmv::txn
