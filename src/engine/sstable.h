// Immutable on-disk table representation (Section 2.2.1): a sorted run of
// keys with a real Bloom filter, plus deletion markers (tombstones).
// Flushes create SSTables from memtables; compactions merge SSTables with
// newest-version-wins semantics, deduplicating superseded row versions and —
// when the merge covers every older version — evicting tombstones.
//
// Values are represented by per-table average row size rather than stored
// bytes — the engine charges I/O costs from byte counts while keeping the
// key structure exact, which is what read amplification depends on.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "engine/bloom.h"

namespace rafiki::engine {

/// A table is a small header (id, level, average row size, key range) over
/// an immutable run: the sorted keys, the tombstones and the Bloom filter.
/// Tables never change after construction and a merge builds a new run, so
/// copies share the run: copying a table costs a reference count, and one
/// preloaded table set can back any number of servers at once.
class SSTable {
 public:
  /// Builds a table from (not necessarily sorted) keys; entries also listed
  /// in `tombstones` are deletion markers.
  SSTable(std::uint32_t id, std::vector<std::int64_t> keys, double avg_row_bytes,
          double bloom_fp_chance, int level = 0,
          std::vector<std::int64_t> tombstones = {});

  std::uint32_t id() const noexcept { return id_; }
  int level() const noexcept { return level_; }

  std::size_t key_count() const noexcept { return run_->keys.size(); }
  std::size_t tombstone_count() const noexcept { return run_->tombstones.size(); }
  /// On-disk footprint: data rows at the average row size, tombstones at
  /// marker size.
  double bytes() const noexcept {
    return avg_row_bytes_ * static_cast<double>(key_count() - tombstone_count()) +
           kTombstoneBytes * static_cast<double>(tombstone_count());
  }
  double avg_row_bytes() const noexcept { return avg_row_bytes_; }

  /// Key range; an empty table has min 0 and max -1, so it covers no key.
  std::int64_t min_key() const noexcept { return min_key_; }
  std::int64_t max_key() const noexcept { return max_key_; }

  bool range_covers(std::int64_t key) const noexcept {
    return key >= min_key_ && key <= max_key_;
  }
  bool overlaps(const SSTable& other) const noexcept {
    return key_count() != 0 && other.key_count() != 0 && min_key() <= other.max_key() &&
           other.min_key() <= max_key();
  }

  /// Bloom-filter check — may return false positives, never false negatives.
  bool maybe_contains(std::int64_t key) const noexcept {
    return run_->bloom.maybe_contains(key);
  }
  /// Exact membership via binary search (the "index probe" of the read path).
  bool has_key(std::int64_t key) const noexcept;
  /// True if this table's version of the key is a deletion marker.
  bool is_tombstone(std::int64_t key) const noexcept;
  /// Position of the first key not below `key` (its lower bound). When the
  /// key is present this is its rank, from which the read path derives the
  /// chunk (page) the read touches: one binary search answers both.
  std::size_t key_rank(std::int64_t key) const noexcept;

  std::span<const std::int64_t> keys() const noexcept { return run_->keys; }
  std::span<const std::int64_t> tombstones() const noexcept { return run_->tombstones; }

  /// Merges several tables into one deduplicated run (compaction): the
  /// version from the newest input (highest table id) wins per key. With
  /// `drop_tombstones`, keys whose surviving version is a deletion marker
  /// are evicted entirely — legal only when the merge covers every older
  /// version of its keys, which the caller asserts by setting the flag.
  static SSTable merge(std::uint32_t new_id, std::span<const SSTable* const> inputs,
                       double bloom_fp_chance, int level, bool drop_tombstones = false);

  /// Splits a sorted key run into tables of at most `max_bytes` each
  /// (leveled compaction emits fixed-size tables).
  static std::vector<SSTable> split_into_tables(std::uint32_t& next_id,
                                                std::vector<std::int64_t> keys,
                                                double avg_row_bytes, double max_bytes,
                                                double bloom_fp_chance, int level,
                                                std::vector<std::int64_t> tombstones = {});

  /// On-disk size of a deletion marker.
  static constexpr double kTombstoneBytes = 48.0;

 private:
  /// The immutable part every copy of the table shares.
  struct Run {
    std::vector<std::int64_t> keys;        // sorted, unique (markers included)
    std::vector<std::int64_t> tombstones;  // sorted subset of keys
    BloomFilter bloom;
  };

  std::uint32_t id_;
  int level_;
  double avg_row_bytes_;
  // The run's key range, kept beside the header: the read path tests it on
  // every candidate table before touching the run.
  std::int64_t min_key_ = 0;
  std::int64_t max_key_ = -1;
  std::shared_ptr<const Run> run_;
};

}  // namespace rafiki::engine
