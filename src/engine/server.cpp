#include "engine/server.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace rafiki::engine {
namespace {

constexpr std::size_t kEpochOps = 256;
/// Number of pre-existing SSTables created by preload in size-tiered mode,
/// with geometric size fractions so the loaded state is bucket-stable.
constexpr double kPreloadFractions[] = {0.5, 0.25, 0.125, 0.0625, 0.0625};
/// Commit-log fsync service time (one write-channel operation).
constexpr double kSyncServiceUs = 400.0;
/// Index-probe inflation when the index summary budget is exceeded.
constexpr double kSummaryPenalty = 1.3;
constexpr double kSummaryBytesPerKey = 2.0;
constexpr double kKeyCacheBytesPerEntry = 64.0;

std::uint64_t mix64(std::uint64_t z) noexcept {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double sstable_target_bytes(const Config& config, const Hardware& hardware) {
  return config.get(ParamId::kSstableSizeMb) * 1024.0 * 1024.0 * hardware.mem_scale;
}

bool is_leveled(const Config& config) {
  return config.get_int(ParamId::kCompactionMethod) == 1;
}

}  // namespace

Server::Server(Config config, Hardware hardware, CostModel costs)
    : config_(std::move(config)), hardware_(hardware), costs_(costs) {
  chunk_kb_ = config_.get(ParamId::kCompressionChunkKb);
  sstable_target_bytes_ = sstable_target_bytes(config_, hardware_);
  leveled_ = is_leveled(config_);

  const double scale_bytes = 1024.0 * 1024.0 * hardware_.mem_scale;
  const double chunk_bytes = chunk_kb_ * 1024.0;
  const double nominal_row_bytes = 256.0 + Memtable::kRowOverheadBytes;
  row_cache_.set_capacity(static_cast<std::size_t>(
      config_.get(ParamId::kRowCacheSizeMb) * scale_bytes / nominal_row_bytes));
  key_cache_.set_capacity(static_cast<std::size_t>(
      config_.get(ParamId::kKeyCacheSizeMb) * scale_bytes / kKeyCacheBytesPerEntry));
  file_cache_.set_capacity(static_cast<std::size_t>(
      config_.get(ParamId::kFileCacheSizeMb) * scale_bytes / chunk_bytes));
  os_cache_.set_capacity(
      static_cast<std::size_t>(hardware_.os_cache_mb * scale_bytes / chunk_bytes));
}

double Server::memtable_space_bytes() const {
  double space = config_.get(ParamId::kMemtableSpaceMb) * 1024.0 * 1024.0 *
                 hardware_.mem_scale;
  if (config_.get_int(ParamId::kMemtableAllocationType) == 1) {
    space *= 1.15;  // offheap buffers escape JVM heap pressure
  }
  return space;
}

double Server::flush_threshold_bytes() const {
  return config_.get(ParamId::kMemtableCleanupThreshold) * memtable_space_bytes();
}

std::uint64_t Server::page_id(std::uint32_t table_id, std::size_t rank,
                              double row_bytes) const {
  const auto chunk = static_cast<std::uint64_t>(
      static_cast<double>(rank) * row_bytes / (chunk_kb_ * 1024.0));
  return (static_cast<std::uint64_t>(table_id) << 32) | chunk;
}

void Server::preload(std::span<const std::int64_t> keys, std::uint32_t value_bytes,
                     double version_dup) {
  load(build_tables(table_spec(config_, hardware_, value_bytes, version_dup), keys));
}

TableSet::Spec Server::table_spec(const Config& config, const Hardware& hardware,
                                  std::uint32_t value_bytes, double version_dup) {
  TableSet::Spec spec;
  spec.leveled = is_leveled(config);
  spec.sstable_target_bytes = spec.leveled ? sstable_target_bytes(config, hardware) : 0.0;
  spec.bloom_fp_chance = config.get(ParamId::kBloomFilterFpChance);
  spec.value_bytes = value_bytes;
  spec.version_dup = version_dup;
  return spec;
}

TableSet Server::build_tables(const TableSet::Spec& spec,
                              std::span<const std::int64_t> keys) {
  TableSet set;
  auto& tables = set.tables;
  const double avg_row = static_cast<double>(spec.value_bytes) +
                         static_cast<double>(Memtable::kRowOverheadBytes);
  const double bloom_fp = spec.bloom_fp_chance;
  const double version_dup = spec.version_dup;

  if (!spec.leveled) {
    // Striped assignment: every table spans the whole key range (overlapping
    // runs, as a size-tiered store looks after sustained load), with
    // geometric sizes so the bucketing does not immediately re-merge them.
    // Extra row versions from the update history land in additional tables,
    // which is exactly STCS's read-amplification mechanism.
    constexpr std::size_t kTables = std::size(kPreloadFractions);
    double cumulative[kTables];
    double acc = 0.0;
    for (std::size_t i = 0; i < kTables; ++i) {
      acc += kPreloadFractions[i];
      cumulative[i] = acc;
    }
    std::vector<std::vector<std::int64_t>> groups(kTables);
    for (auto key : keys) {
      const double u = static_cast<double>(mix64(static_cast<std::uint64_t>(key)) >> 11) *
                       0x1.0p-53;
      std::size_t g = 0;
      while (g + 1 < kTables && u > cumulative[g]) ++g;
      groups[g].push_back(key);
      // Older versions of this key in other tables.
      const double du = static_cast<double>(
                            mix64(static_cast<std::uint64_t>(key) * 0x2545f4914f6cdd1dull) >>
                            11) *
                        0x1.0p-53;
      int extras = static_cast<int>(version_dup);
      if (du < version_dup - static_cast<double>(extras)) ++extras;
      for (int e = 1; e <= extras; ++e) {
        const std::size_t other =
            (g + static_cast<std::size_t>(e)) % kTables;
        groups[other].push_back(key);
      }
    }
    for (auto& group : groups) {
      if (group.empty()) continue;
      tables.emplace_back(set.next_id++, std::move(group), avg_row, bloom_fp, 0);
    }
  } else {
    // Weighted striping across levels 1..L sized by the 10x level targets, so
    // each level spans the whole key range like a production leveled store.
    LeveledPlanner planner(spec.sstable_target_bytes);
    const double total_bytes = avg_row * static_cast<double>(keys.size());
    int max_level = 1;
    double capacity = planner.level_target_bytes(1);
    while (capacity < total_bytes && max_level < 7) {
      ++max_level;
      capacity += planner.level_target_bytes(max_level);
    }
    std::vector<double> cumulative(static_cast<std::size_t>(max_level));
    double acc = 0.0;
    for (int level = 1; level <= max_level; ++level) {
      acc += planner.level_target_bytes(level) / capacity;
      cumulative[static_cast<std::size_t>(level - 1)] = acc;
    }
    std::vector<std::vector<std::int64_t>> per_level(static_cast<std::size_t>(max_level));
    for (auto key : keys) {
      const double u = static_cast<double>(mix64(static_cast<std::uint64_t>(key) ^
                                                 0xabcdef1234567ull) >>
                                           11) *
                       0x1.0p-53;
      std::size_t level = 0;
      while (level + 1 < per_level.size() && u > cumulative[level]) ++level;
      per_level[level].push_back(key);
    }
    for (int level = 1; level <= max_level; ++level) {
      auto& level_keys = per_level[static_cast<std::size_t>(level - 1)];
      if (level_keys.empty()) continue;
      auto split = SSTable::split_into_tables(set.next_id, std::move(level_keys), avg_row,
                                              spec.sstable_target_bytes, bloom_fp, level);
      for (auto& table : split) tables.push_back(std::move(table));
    }
    // Recent update versions not yet promoted out of L0: leveled compaction
    // retires versions continuously, so only a fraction of the update
    // history is still duplicated.
    const double survive = std::min(1.0, 0.25 * version_dup);
    std::vector<std::int64_t> l0_keys;
    for (auto key : keys) {
      const double du = static_cast<double>(
                            mix64(static_cast<std::uint64_t>(key) * 0x2545f4914f6cdd1dull) >>
                            11) *
                        0x1.0p-53;
      if (du < survive) l0_keys.push_back(key);
    }
    if (!l0_keys.empty()) {
      tables.emplace_back(set.next_id++, std::move(l0_keys), avg_row, bloom_fp, 0);
    }
  }
  return set;
}

void Server::load(const TableSet& set) {
  if (!tables_.empty() || !active_.empty() || next_table_id_ != 1) {
    throw std::logic_error("Server::load: store is not empty");
  }
  tables_ = set.tables;
  next_table_id_ = set.next_id;

  // Freshly-loaded data sits in the OS page cache to the extent it fits, so
  // measurement does not begin from an artificial all-cold state.
  for (const auto& table : tables_) {
    const auto pages = static_cast<std::uint64_t>(
        table.bytes() / (chunk_kb_ * 1024.0)) + 1;
    for (std::uint64_t chunk = 0; chunk < pages; ++chunk) {
      os_cache_.insert((static_cast<std::uint64_t>(table.id()) << 32) | chunk);
    }
  }
  for (const auto& table : tables_) total_table_keys_ += table.key_count();
  max_tables_ = std::max(max_tables_, tables_.size());
  level_index_dirty_ = true;
}

const SSTable* Server::find_table(std::uint32_t id) const {
  for (const auto& table : tables_) {
    if (table.id() == id) return &table;
  }
  return nullptr;
}

void Server::rebuild_level_index() {
  level_index_.clear();
  int max_level = 0;
  for (const auto& table : tables_) max_level = std::max(max_level, table.level());
  level_index_.resize(static_cast<std::size_t>(max_level) + 1);
  for (std::size_t i = 0; i < tables_.size(); ++i) {
    level_index_[static_cast<std::size_t>(tables_[i].level())].push_back(
        static_cast<std::uint32_t>(i));
  }
  for (auto& level : level_index_) {
    std::sort(level.begin(), level.end(), [&](std::uint32_t a, std::uint32_t b) {
      return tables_[a].min_key() < tables_[b].min_key();
    });
  }
  level_index_dirty_ = false;
}

void Server::read_candidates(std::int64_t key) {
  candidates_.clear();
  if (!leveled_) {
    for (const auto& table : tables_) {
      if (table.range_covers(key)) candidates_.push_back(&table);
    }
    return;
  }
  if (level_index_dirty_) rebuild_level_index();
  if (level_index_.empty()) return;
  for (auto idx : level_index_[0]) {
    if (tables_[idx].range_covers(key)) candidates_.push_back(&tables_[idx]);
  }
  for (std::size_t level = 1; level < level_index_.size(); ++level) {
    const auto& row = level_index_[level];
    // Tables within a level are non-overlapping and sorted by min key:
    // binary search for the unique candidate.
    auto it = std::upper_bound(row.begin(), row.end(), key,
                               [&](std::int64_t k, std::uint32_t idx) {
                                 return k < tables_[idx].min_key();
                               });
    if (it == row.begin()) continue;
    const auto& table = tables_[*(it - 1)];
    if (table.range_covers(key)) candidates_.push_back(&table);
  }
}

double Server::access_page(std::uint64_t page_id, Acc& acc) {
  ++file_lookups_;
  if (file_cache_.capacity() && file_cache_.touch(page_id)) {
    ++file_hits_;
    return 0.0;  // decompressed chunk already in the in-heap cache
  }
  ++os_lookups_;
  const double decompress =
      costs_.chunk_decompress_fixed_us + costs_.chunk_decompress_us_per_kb * chunk_kb_;
  if (os_cache_.touch(page_id)) {
    ++os_hits_;
    file_cache_.insert(page_id);
    acc.cpu_us += costs_.os_cache_hit_us + decompress;
    return costs_.os_cache_hit_us + decompress;
  }
  // Cold read: disk service time is charged to the disk resource via the
  // epoch accounting; the op's latency sees service plus queueing.
  ++acc.disk_random_reads;
  ++disk_random_reads_;
  os_cache_.insert(page_id);
  file_cache_.insert(page_id);
  const double queue_mult = 1.0 / (1.0 - std::min(disk_read_rho_, 0.9));
  acc.cpu_us += costs_.os_cache_hit_us + decompress;
  return costs_.os_cache_hit_us + decompress + costs_.disk_read_wait_us +
         hardware_.random_read_us * queue_mult;
}

void Server::execute_read(std::int64_t key, Acc& acc) {
  ++reads_;
  ++acc.reads;
  double cpu = costs_.read_base_us;
  double latency_extra = 0.0;  // non-CPU waits

  if (row_cache_.capacity() && row_cache_.touch(key)) {
    cpu += costs_.row_cache_hit_us;
    acc.cpu_us += cpu;
    acc.read_lat_us += cpu;
    return;
  }

  cpu += costs_.memtable_probe_us;
  (void)active_.contains(key);
  for (const auto& job : frozen_) {
    cpu += costs_.memtable_probe_us * 0.5;
    (void)job.memtable.contains(key);
  }

  const bool summary_tight =
      static_cast<double>(total_table_keys_) * kSummaryBytesPerKey >
      config_.get(ParamId::kIndexSummaryCapacityMb) * 1024.0 * 1024.0 *
          hardware_.mem_scale;
  const double summary_mult = summary_tight ? kSummaryPenalty : 1.0;

  double probes = 0.0;
  const double before_cpu = acc.cpu_us;
  read_candidates(key);
  for (const SSTable* table : candidates_) {
    cpu += costs_.bloom_check_us;
    if (!table->maybe_contains(key)) continue;
    probes += 1.0;
    const bool key_cached = key_cache_.capacity() && key_cache_.touch(key);
    cpu += costs_.index_probe_us * (key_cached ? 0.3 : 1.0) * summary_mult;
    // One binary search gives both membership and the page rank.
    const std::size_t rank = table->key_rank(key);
    if (rank == table->key_count() || table->keys()[rank] != key) {
      continue;  // bloom false positive: index-only probe
    }
    if (table->tombstone_count() != 0 && table->is_tombstone(key)) {
      continue;  // deletion marker: no data page
    }
    latency_extra += access_page(page_id(table->id(), rank, table->avg_row_bytes()), acc);
    cpu += costs_.data_read_us + 0.02 * config_.get(ParamId::kColumnIndexSizeKb);
  }
  // access_page charged its CPU directly into acc; separate it from waits.
  const double page_cpu = acc.cpu_us - before_cpu;
  latency_extra -= page_cpu;
  probes_total_ += probes;

  if (key_cache_.capacity()) key_cache_.insert(key);
  if (row_cache_.capacity()) row_cache_.insert(key);

  acc.cpu_us += cpu;
  acc.read_lat_us += cpu + page_cpu + latency_extra;
}

void Server::execute_write(const workload::Op& op, Acc& acc) {
  ++writes_;
  ++acc.writes;
  const bool is_delete = op.kind == workload::Op::Kind::kDelete;
  const double kb =
      (static_cast<double>(op.value_bytes) + Memtable::kRowOverheadBytes) / 1024.0;
  double cpu = costs_.write_base_us + costs_.memtable_insert_us +
               costs_.commitlog_us_per_kb * kb;
  if (config_.get_int(ParamId::kMemtableAllocationType) == 1) {
    cpu += 1.0;  // offheap buffer copy
  }
  const double write_queue_mult = 1.0 / (1.0 - std::min(disk_write_rho_, 0.7));
  const double wait = costs_.commitlog_wait_us * write_queue_mult;

  if (is_delete) {
    active_.put_tombstone(op.key);
  } else {
    active_.put(op.key, op.value_bytes);
  }
  row_cache_.erase(op.key);
  acc.commitlog_kb += kb;

  if (static_cast<double>(active_.bytes()) >= flush_threshold_bytes()) {
    freeze_memtable(acc);
  }
  acc.cpu_us += cpu;
  acc.write_lat_us += cpu + wait;
}

void Server::freeze_memtable(Acc& acc) {
  if (active_.empty()) return;
  // Backpressure (Section 2.2.1): all memtables — active plus flushing —
  // share one space budget; when a freeze would overflow it, writes stall
  // until the oldest flush drains.
  while (!frozen_.empty() &&
         frozen_bytes_ + static_cast<double>(active_.bytes()) > memtable_space_bytes()) {
    FlushJob& oldest = frozen_.front();
    const double stall_us = oldest.remaining_kb / costs_.flush_writer_kbps * 1e6;
    acc.stall_us += stall_us;
    stall_us_total_ += stall_us;
    frozen_bytes_ -= static_cast<double>(oldest.memtable.bytes());
    complete_flush(oldest);
    frozen_.pop_front();
  }
  FlushJob job;
  job.memtable = std::move(active_);
  active_ = Memtable{};
  // The per-SSTable fixed cost (metadata, bloom build, fsync) rides along as
  // a KB-equivalent so small flushes stay disproportionately expensive.
  job.total_kb = static_cast<double>(job.memtable.bytes()) / 1024.0 +
                 costs_.flush_fixed_us / costs_.flush_cpu_us_per_kb;
  job.remaining_kb = job.total_kb;
  frozen_bytes_ += static_cast<double>(job.memtable.bytes());
  frozen_.push_back(std::move(job));
}

void Server::complete_flush(FlushJob& job) {
  std::vector<std::int64_t> keys;
  std::vector<std::int64_t> tombstones;
  keys.reserve(job.memtable.row_count());
  double bytes = 0.0;
  std::size_t data_rows = 0;
  // det:ok(unordered-iter): sink is order-insensitive — the SSTable ctor sorts
  for (const auto& [key, row] : job.memtable.rows()) {
    keys.push_back(key);
    if (row.tombstone) {
      tombstones.push_back(key);
    } else {
      bytes += static_cast<double>(row.value_bytes) + Memtable::kRowOverheadBytes;
      ++data_rows;
    }
  }
  if (keys.empty()) return;
  const double avg_row =
      data_rows ? bytes / static_cast<double>(data_rows) : SSTable::kTombstoneBytes;
  tables_.emplace_back(next_table_id_, std::move(keys), avg_row,
                       config_.get(ParamId::kBloomFilterFpChance), 0,
                       std::move(tombstones));
  // Just-flushed data is hot in the page cache.
  const auto& table = tables_.back();
  const auto pages = static_cast<std::uint64_t>(table.bytes() / (chunk_kb_ * 1024.0)) + 1;
  for (std::uint64_t chunk = 0; chunk < pages; ++chunk) {
    os_cache_.insert((static_cast<std::uint64_t>(next_table_id_) << 32) | chunk);
  }
  ++next_table_id_;
  total_table_keys_ += table.key_count();
  ++flushes_;
  max_tables_ = std::max(max_tables_, tables_.size());
  level_index_dirty_ = true;
  plan_compactions();
}

void Server::plan_compactions() {
  const auto max_jobs = static_cast<std::size_t>(config_.get_int(ParamId::kConcurrentCompactors));
  while (active_compactions_.size() < max_jobs) {
    std::optional<CompactionPlan> plan;
    if (leveled_) {
      plan = LeveledPlanner(sstable_target_bytes_).plan(tables_, busy_);
    } else {
      plan = SizeTieredPlanner(config_.get_int(ParamId::kMinCompactionThreshold),
                               config_.get_int(ParamId::kMaxCompactionThreshold))
                 .plan(tables_, busy_);
    }
    if (!plan || plan->input_ids.size() < 2) break;
    CompactionJob job;
    job.plan = std::move(*plan);
    job.total_kb = costs_.compaction_fixed_us / costs_.compaction_cpu_us_per_kb;
    for (auto id : job.plan.input_ids) {
      const SSTable* table = find_table(id);
      job.total_kb += table ? table->bytes() / 1024.0 : 0.0;
      busy_.insert(id);
    }
    job.remaining_kb = job.total_kb;
    active_compactions_.push_back(std::move(job));
  }
}

void Server::complete_compaction(const CompactionJob& job) {
  std::vector<const SSTable*> inputs;
  for (auto id : job.plan.input_ids) {
    if (const SSTable* table = find_table(id)) inputs.push_back(table);
  }
  if (inputs.empty()) return;

  const double bloom_fp = config_.get(ParamId::kBloomFilterFpChance);

  // Tombstones may be evicted only when the merge is guaranteed to cover
  // every older version of its keys: a leveled merge into the deepest level,
  // or a size-tiered merge that includes the oldest table in the store.
  bool drop_tombstones = false;
  if (leveled_) {
    int deepest = 0;
    for (const auto& table : tables_) deepest = std::max(deepest, table.level());
    drop_tombstones = job.plan.output_level >= deepest;
  } else {
    std::uint32_t oldest_id = tables_.empty() ? 0 : tables_.front().id();
    for (const auto& table : tables_) oldest_id = std::min(oldest_id, table.id());
    drop_tombstones = std::find(job.plan.input_ids.begin(), job.plan.input_ids.end(),
                                oldest_id) != job.plan.input_ids.end();
  }
  std::size_t tombstones_in = 0;
  for (const SSTable* table : inputs) tombstones_in += table->tombstone_count();

  std::vector<SSTable> outputs;
  if (leveled_ && job.plan.output_level >= 1) {
    const auto merged = SSTable::merge(0, inputs, bloom_fp, job.plan.output_level,
                                       drop_tombstones);
    outputs = SSTable::split_into_tables(
        next_table_id_, {merged.keys().begin(), merged.keys().end()},
        merged.avg_row_bytes(), sstable_target_bytes_, bloom_fp, job.plan.output_level,
        {merged.tombstones().begin(), merged.tombstones().end()});
  } else {
    outputs.push_back(
        SSTable::merge(next_table_id_++, inputs, bloom_fp, 0, drop_tombstones));
  }
  std::size_t tombstones_out = 0;
  for (const auto& table : outputs) tombstones_out += table.tombstone_count();
  tombstones_purged_ += tombstones_in - std::min(tombstones_in, tombstones_out);

  // Retire inputs, install outputs.
  std::unordered_set<std::uint32_t> dead(job.plan.input_ids.begin(),
                                         job.plan.input_ids.end());
  for (const auto& table : tables_) {
    if (dead.contains(table.id())) total_table_keys_ -= table.key_count();
  }
  std::erase_if(tables_, [&](const SSTable& table) { return dead.contains(table.id()); });
  for (auto id : job.plan.input_ids) busy_.erase(id);
  for (auto& table : outputs) {
    total_table_keys_ += table.key_count();
    // Compaction output was just written through the page cache.
    const auto pages = static_cast<std::uint64_t>(table.bytes() / (chunk_kb_ * 1024.0)) + 1;
    for (std::uint64_t chunk = 0; chunk < pages; ++chunk) {
      os_cache_.insert((static_cast<std::uint64_t>(table.id()) << 32) | chunk);
    }
    tables_.push_back(std::move(table));
  }
  ++compactions_;
  compacted_kb_ += job.total_kb;
  max_tables_ = std::max(max_tables_, tables_.size());
  level_index_dirty_ = true;
}

double Server::advance_time(Acc& acc) {
  const auto n = static_cast<double>(acc.reads + acc.writes);
  if (n == 0.0) return 0.0;

  // Thread-contention inflation: beyond ~4 runnable threads per core the
  // scheduler and shared locks charge every operation a little extra.
  const double read_share = static_cast<double>(acc.reads) / n;
  const double write_share = static_cast<double>(acc.writes) / n;
  const double threads =
      config_.get(ParamId::kConcurrentWrites) * write_share +
      config_.get(ParamId::kConcurrentReads) * read_share +
      static_cast<double>(active_compactions_.size()) +
      static_cast<double>(std::min<std::size_t>(
          frozen_.size(),
          static_cast<std::size_t>(config_.get_int(ParamId::kMemtableFlushWriters))));
  const double excess = std::max(
      0.0, threads - costs_.contention_free_threads_per_core *
                         static_cast<double>(hardware_.cores));
  const double inflation_us = costs_.contention_us_per_thread * excess;

  const double mod = modulation_ ? modulation_(clock_us_ / 1e6) : 1.0;
  const double fg_cpu = (acc.cpu_us + inflation_us * n) * mod;
  const double fg_disk_read =
      static_cast<double>(acc.disk_random_reads) * hardware_.random_read_us;
  const double fg_disk_write = acc.commitlog_kb * hardware_.seq_write_us_per_kb;

  const double cores = static_cast<double>(hardware_.cores);
  const double t_cpu = fg_cpu / cores;
  const double t_disk_read = fg_disk_read / hardware_.disk_read_channels;
  const double t_disk_write = fg_disk_write / hardware_.disk_write_channels;
  const double t_lat_read =
      (acc.read_lat_us + inflation_us * static_cast<double>(acc.reads)) * mod /
      config_.get(ParamId::kConcurrentReads);
  const double t_lat_write =
      (acc.write_lat_us + inflation_us * static_cast<double>(acc.writes)) * mod /
      config_.get(ParamId::kConcurrentWrites);
  const double t_lat = std::max(t_lat_read, t_lat_write);

  // Background work (flushes, compactions, fsyncs) runs concurrently and
  // steals capacity from foreground traffic: model it as a per-microsecond
  // co-demand that stretches the epoch. Rates are capped so background can
  // take at most kBgMaxShare of any resource — beyond that, jobs back up
  // (compaction debt) instead of freezing the foreground.
  const auto writers = std::min<std::size_t>(
      frozen_.size(), static_cast<std::size_t>(config_.get_int(ParamId::kMemtableFlushWriters)));
  double flush_rate = static_cast<double>(writers) * costs_.flush_writer_kbps / 1e6;
  double comp_rate = 0.0;
  if (!active_compactions_.empty()) {
    comp_rate = std::min(static_cast<double>(active_compactions_.size()) *
                             costs_.compactor_kbps,
                         config_.get(ParamId::kCompactionThroughputMbs) * 1024.0) /
                1e6;
  }
  const double flush_disk_per_kb =
      hardware_.seq_write_us_per_kb *
      (config_.get_bool(ParamId::kTrickleFsync) ? 0.95 : 1.0);
  const double sync_rate =
      kSyncServiceUs / (config_.get(ParamId::kCommitlogSyncPeriodMs) * 1000.0);

  constexpr double kBgMaxShare = 0.6;
  auto bg_scale_for = [&](double rate_on_resource, double capacity) {
    const double cap = kBgMaxShare * capacity;
    return rate_on_resource > cap ? cap / rate_on_resource : 1.0;
  };
  double bg_cpu_rate = flush_rate * costs_.flush_cpu_us_per_kb +
                       comp_rate * costs_.compaction_cpu_us_per_kb;
  double bg_dr_rate = comp_rate * hardware_.seq_read_us_per_kb;
  double bg_dw_rate = flush_rate * flush_disk_per_kb +
                      comp_rate * hardware_.seq_write_us_per_kb + sync_rate;
  double scale = 1.0;
  scale = std::min(scale, bg_scale_for(bg_cpu_rate, cores));
  scale = std::min(scale, bg_scale_for(bg_dr_rate, hardware_.disk_read_channels));
  scale = std::min(scale, bg_scale_for(bg_dw_rate, hardware_.disk_write_channels));
  flush_rate *= scale;
  comp_rate *= scale;
  bg_cpu_rate *= scale;
  bg_dr_rate *= scale;
  bg_dw_rate *= scale;

  const double t_cpu_tot = fg_cpu / std::max(0.25 * cores, cores - bg_cpu_rate);
  const double t_dr_tot =
      fg_disk_read /
      std::max(0.25 * hardware_.disk_read_channels, hardware_.disk_read_channels - bg_dr_rate);
  const double t_dw_tot =
      fg_disk_write / std::max(0.25 * hardware_.disk_write_channels,
                               hardware_.disk_write_channels - bg_dw_rate);

  read_latency_total_us_ += acc.read_lat_us * mod;
  write_latency_total_us_ += acc.write_lat_us * mod;

  double t = std::max({t_cpu, t_disk_read, t_disk_write, t_cpu_tot, t_dr_tot, t_dw_tot,
                       t_lat, n * 0.4});
  {
    const double terms[5] = {std::max(t_cpu, t_cpu_tot), std::max(t_disk_read, t_dr_tot),
                             std::max(t_disk_write, t_dw_tot), t_lat_read, t_lat_write};
    std::size_t argmax = 0;
    for (std::size_t i = 1; i < 5; ++i) {
      if (terms[i] > terms[argmax]) argmax = i;
    }
    ++binding_counts_[argmax];
    ++epochs_;
  }
  t += acc.stall_us;
  progress_background(t, flush_rate, comp_rate);

  // Utilization feedback for next epoch's queueing multipliers.
  disk_read_rho_ = std::clamp((fg_disk_read + bg_dr_rate * t) /
                                  (hardware_.disk_read_channels * t),
                              0.0, 0.85);
  disk_write_rho_ = std::clamp((fg_disk_write + bg_dw_rate * t) /
                                   (hardware_.disk_write_channels * t),
                               0.0, 0.85);
  return t;
}

void Server::progress_background(double t_us, double flush_rate_kb_per_us,
                                 double comp_rate_kb_per_us) {
  // Flushes: the granted rate is shared FIFO among the active writers.
  double flush_kb = flush_rate_kb_per_us * t_us;
  const auto writers = std::min<std::size_t>(
      frozen_.size(), static_cast<std::size_t>(config_.get_int(ParamId::kMemtableFlushWriters)));
  for (std::size_t i = 0; i < writers && flush_kb > 0.0; ++i) {
    FlushJob& job = frozen_[i];
    const double kb = std::min(job.remaining_kb, flush_kb);
    job.remaining_kb -= kb;
    flush_kb -= kb;
  }
  for (auto it = frozen_.begin(); it != frozen_.end();) {
    if (it->remaining_kb <= 1e-9) {
      frozen_bytes_ -= static_cast<double>(it->memtable.bytes());
      complete_flush(*it);
      it = frozen_.erase(it);
    } else {
      ++it;
    }
  }

  // Compactions: granted rate split evenly across active jobs.
  if (!active_compactions_.empty()) {
    const double share =
        comp_rate_kb_per_us * t_us / static_cast<double>(active_compactions_.size());
    bool completed_any = false;
    for (auto& job : active_compactions_) {
      job.remaining_kb -= std::min(job.remaining_kb, share);
      if (job.remaining_kb <= 1e-9) completed_any = true;
    }
    if (completed_any) {
      std::vector<CompactionJob> done;
      std::erase_if(active_compactions_, [&](CompactionJob& job) {
        if (job.remaining_kb <= 1e-9) {
          done.push_back(std::move(job));
          return true;
        }
        return false;
      });
      for (const auto& job : done) complete_compaction(job);
      plan_compactions();
    }
  }
}

void Server::record_window(double t_us, std::size_t ops_done) {
  if (!record_windows_ || t_us <= 0.0) return;
  double start = clock_us_ - t_us;
  const double rate = static_cast<double>(ops_done) / t_us;
  while (start < clock_us_) {
    const double window_end = window_start_us_ + window_us_;
    const double segment_end = std::min(clock_us_, window_end);
    window_ops_ += rate * (segment_end - start);
    if (segment_end >= window_end) {
      window_throughput_.push_back(window_ops_ / (window_us_ / 1e6));
      window_ops_ = 0.0;
      window_start_us_ = window_end;
    }
    start = segment_end;
  }
}

double Server::step(std::span<const workload::Op> ops) {
  Acc acc;
  for (const auto& op : ops) {
    if (op.kind == workload::Op::Kind::kRead) {
      execute_read(op.key, acc);
    } else {
      execute_write(op, acc);
    }
  }
  const double t = advance_time(acc);
  clock_us_ += t;
  record_window(t, ops.size());
  return t;
}

void Server::reset_counters() {
  reads_ = writes_ = flushes_ = compactions_ = 0;
  compacted_kb_ = 0.0;
  probes_total_ = 0.0;
  file_lookups_ = file_hits_ = os_lookups_ = os_hits_ = 0;
  disk_random_reads_ = 0;
  stall_us_total_ = 0.0;
  max_tables_ = tables_.size();
}

RunStats Server::run(workload::Generator& generator, const RunOptions& opts) {
  rng_.reseed(opts.seed);
  record_windows_ = opts.record_windows;
  window_us_ = opts.window_s * 1e6;
  window_start_us_ = clock_us_;
  window_ops_ = 0.0;
  window_throughput_.clear();

  const double clock_before = clock_us_;
  const std::size_t reads_before = reads_, writes_before = writes_;
  const double read_lat_before = read_latency_total_us_;
  const double write_lat_before = write_latency_total_us_;
  const std::size_t flushes_before = flushes_, compactions_before = compactions_;
  const double compacted_before = compacted_kb_;
  const double probes_before = probes_total_;
  const std::uint64_t fl_before = file_lookups_, fh_before = file_hits_;
  const std::uint64_t ol_before = os_lookups_, oh_before = os_hits_;
  const std::size_t dr_before = disk_random_reads_;
  const double stall_before = stall_us_total_;
  const auto binding_before = binding_counts_;
  const std::size_t epochs_before = epochs_;
  const std::size_t tombs_before = tombstones_purged_;

  std::vector<workload::Op> buffer;
  buffer.reserve(kEpochOps);
  std::size_t done = 0;
  while (done < opts.ops) {
    buffer.clear();
    const std::size_t n = std::min(kEpochOps, opts.ops - done);
    for (std::size_t i = 0; i < n; ++i) buffer.push_back(generator.next());
    step(buffer);
    done += n;
  }

  RunStats stats;
  stats.ops = done;
  stats.virtual_seconds = (clock_us_ - clock_before) / 1e6;
  stats.throughput_ops =
      stats.virtual_seconds > 0.0 ? static_cast<double>(done) / stats.virtual_seconds : 0.0;
  if (opts.measurement_noise_sd > 0.0) {
    stats.throughput_ops *= std::max(0.1, 1.0 + rng_.gaussian(0.0, opts.measurement_noise_sd));
  }
  stats.reads = reads_ - reads_before;
  stats.writes = writes_ - writes_before;
  stats.mean_read_latency_us =
      stats.reads ? (read_latency_total_us_ - read_lat_before) /
                        static_cast<double>(stats.reads)
                  : 0.0;
  stats.mean_write_latency_us =
      stats.writes ? (write_latency_total_us_ - write_lat_before) /
                         static_cast<double>(stats.writes)
                   : 0.0;
  stats.flushes = flushes_ - flushes_before;
  stats.compactions = compactions_ - compactions_before;
  stats.compacted_kb = compacted_kb_ - compacted_before;
  stats.avg_sstables_probed =
      stats.reads ? (probes_total_ - probes_before) / static_cast<double>(stats.reads) : 0.0;
  const auto fl = file_lookups_ - fl_before;
  stats.file_cache_hit_rate =
      fl ? static_cast<double>(file_hits_ - fh_before) / static_cast<double>(fl) : 0.0;
  const auto ol = os_lookups_ - ol_before;
  stats.os_cache_hit_rate =
      ol ? static_cast<double>(os_hits_ - oh_before) / static_cast<double>(ol) : 0.0;
  stats.disk_random_reads = disk_random_reads_ - dr_before;
  stats.write_stall_s = (stall_us_total_ - stall_before) / 1e6;
  stats.final_sstable_count = tables_.size();
  stats.max_sstable_count = max_tables_;
  stats.tombstones_purged = tombstones_purged_ - tombs_before;
  stats.window_throughput = window_throughput_;
  const auto epochs = epochs_ - epochs_before;
  if (epochs > 0) {
    for (std::size_t i = 0; i < stats.binding_fractions.size(); ++i) {
      stats.binding_fractions[i] =
          static_cast<double>(binding_counts_[i] - binding_before[i]) /
          static_cast<double>(epochs);
    }
  }
  return stats;
}

}  // namespace rafiki::engine
