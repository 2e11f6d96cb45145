// Replicated write-sets: per-page byte-range modification encodings.
//
// At pre-commit the master diffs each dirty page against its before-image
// into runs of changed bytes (Figure 2's CreateWriteSet). A write-set also
// carries the per-page new version and the full post-commit database
// version vector. Slaves queue PageMods per page and apply them lazily in
// version order (dynamic multiversioning); apply_runs is also the redo path
// for rolling a checkpointed page forward.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "storage/page.hpp"
#include "storage/table.hpp"

namespace dmv::txn {

struct ByteRun {
  uint32_t offset = 0;
  std::vector<std::byte> bytes;

  bool operator==(const ByteRun&) const = default;
};

// All modifications one transaction made to one page.
struct PageMod {
  storage::PageId pid;
  // The per-table version this mod advances the page to.
  uint64_t version = 0;
  std::vector<ByteRun> runs;

  size_t byte_size() const;
  // Slots whose bytes or occupancy bit are touched by these runs — the
  // slots whose index entries must be rebuilt around application — in
  // ascending order.
  std::vector<uint16_t> affected_slots(size_t row_size,
                                       size_t slots_per_page) const;
};

struct WriteSet {
  uint64_t txn_id = 0;
  std::vector<PageMod> mods;
  // Post-commit database version vector (one entry per table).
  std::vector<uint64_t> db_version;

  size_t byte_size() const;
};

// A published write-set never changes again: the master hands one shared
// copy to every replica, and slaves queue pointers into it.
using WriteSetPtr = std::shared_ptr<const WriteSet>;

// Diff two page images into byte runs. Runs separated by fewer than
// `merge_gap` unchanged bytes are merged (fewer, larger runs compress the
// encoding of clustered row updates).
std::vector<ByteRun> diff_pages(const storage::Page& before,
                                const storage::Page& after,
                                size_t merge_gap = 8);

void apply_runs(storage::Page& target, const std::vector<ByteRun>& runs);

// Apply a PageMod to a table's page *with index maintenance*: affected
// slots are unindexed, bytes applied, slots re-indexed, free-space
// bookkeeping refreshed, and the page's version meta advanced. Returns the
// number of slots re-indexed (for cost accounting).
size_t apply_mod_indexed(storage::Table& table, const PageMod& mod);

// Roll one page of `table` back to its before-image, with the same index
// maintenance as apply_mod_indexed but leaving the version meta alone
// (the undo path of both engines' rollback).
void restore_page(storage::Table& table, storage::PageNo page,
                  const storage::Page& before);

}  // namespace dmv::txn
