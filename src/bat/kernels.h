// Vectorized kernels for the BAT algebra hot path: selection vectors, raw
// gather loops, int64 key extraction, and a flat open-addressing hash table
// (MonetDB hash-heap style). Operators in bat/operators.cc compose these
// instead of walking rows through virtual GetValue/AppendValue boxing; the
// retained row-at-a-time implementations in tests/support/scalar_reference.h
// are the differential-test oracle.
#pragma once

#include <cstdint>
#include <vector>

#include "bat/column.h"
#include "exec/executor.h"

namespace dcy::bat {

/// Row-position selection vector produced by the filter kernels. uint32
/// positions keep it cache-resident; BAT fragments are far below 4G rows.
using SelVec = std::vector<uint32_t>;

namespace kernels {

// ---- morsel-driven parallelism ----------------------------------------------
//
// The adaptive kernels below (gather, selection, key extraction) partition
// inputs at or above ExecPolicy::min_parallel_rows into morsel_rows-sized
// spans executed on exec::Executor::Default(), stitching per-morsel results
// in morsel order so the output is bit-identical to the sequential pass.
// Smaller inputs run the sequential loops unchanged — zero overhead for the
// point queries that dominate ring traffic. Operators (bat/operators.cc)
// drive their own morsel loops (hash-join probe, partial aggregation) with
// PlanMorsels / ForEachMorsel / StitchSelVecs.

/// \brief Partitioning decision for one adaptive kernel invocation under the
/// process ExecPolicy.
struct MorselPlan {
  bool parallel = false;  ///< false: take the sequential path
  size_t workers = 1;     ///< participant cap for ParallelFor
  size_t grain = 1;       ///< rows per morsel
  size_t morsels = 1;
};

/// Sequential when n < min_parallel_rows or only one worker would join.
MorselPlan PlanMorsels(size_t n);

/// Runs fn(morsel, begin, end) for every morsel of `plan` over [0, n) on the
/// shared executor; the calling thread participates, so a saturated pool
/// degrades to sequential execution instead of deadlocking.
void ForEachMorsel(const MorselPlan& plan, size_t n,
                   const std::function<void(size_t, size_t, size_t)>& fn);

// ---- gather -----------------------------------------------------------------

/// out[i] = c[idx[i]] via type-specialized tight loops. A dense oid source
/// gathered with a contiguous index run collapses back to a dense column
/// (slices stay materialization-free). Large gathers run morsel-parallel;
/// strings take a two-pass build (parallel size prefix-sum, then parallel
/// splice into a preallocated heap) whose bytes are identical to the
/// sequential heap append.
ColumnPtr Gather(const Column& c, const uint32_t* idx, size_t n);

/// True if idx is a contiguous ascending run (idx[i] == idx[0] + i).
bool IsContiguous(const uint32_t* idx, size_t n);

// ---- selection --------------------------------------------------------------

/// Appends to *sel the positions with lo <= c[i] <= hi, reproducing the
/// scalar ValueLE semantics exactly (string bounds compare lexicographically;
/// a double column or double bound compares in the double domain; integer
/// families compare as int64). Returns the number of positions appended.
/// Adaptive: large materialized columns are filtered morsel-parallel.
size_t SelectRange(const Column& c, const Value& lo, const Value& hi, SelVec* sel);

/// Appends to *sel the positions with c[i] == v (scalar ValueEQ semantics).
/// Adaptive like SelectRange.
size_t SelectEq(const Column& c, const Value& v, SelVec* sel);

/// Stitches per-morsel selection vectors into *sel in morsel order (the
/// order-preserving merge every parallel filter/probe uses); parallelizes
/// the copy itself for large results. Returns rows appended.
size_t StitchSelVecs(const std::vector<SelVec>& parts, SelVec* sel);

// ---- join keys --------------------------------------------------------------

/// Materializes the canonical int64 hash/equality key of every row: integer
/// families widen, doubles bit-cast (equality-by-bit-pattern, matching the
/// scalar hash join), dense ranges iota. Strings are not representable here;
/// callers dispatch them to the string paths. Adaptive: large extractions
/// split into parallel morsels (output is positionally deterministic).
void ExtractInt64Keys(const Column& c, std::vector<int64_t>* keys);

/// Materializes doubles (order-preserving, for merge join on dbl columns).
/// Adaptive like ExtractInt64Keys.
void ExtractDoubleKeys(const Column& c, std::vector<double>* keys);

/// Borrowed int64 key view of `c` for hash builds and probes: 8-byte
/// integer columns (lng, oid) alias their payload directly — no key vector
/// materialization — and everything else extracts into *scratch with
/// ExtractInt64Keys semantics (widening, dbl bit-cast, dense iota). The
/// view is valid while both `c` and *scratch are alive.
Span<int64_t> Int64KeySpan(const Column& c, std::vector<int64_t>* scratch);

// ---- flat hash table --------------------------------------------------------

/// Shared hash of the flat/partitioned tables. Partitioning consumes the
/// high bits and open-addressing slots the low bits, so one partition's
/// keys do not cluster in its bucket array.
inline uint64_t HashInt64Key(int64_t key) {
  const uint64_t h = static_cast<uint64_t>(key) * 0x9E3779B97F4A7C15ULL;
  return h ^ (h >> 32);
}

/// \brief Flat multimap from int64 key to the rows holding it, with two
/// layouts picked at build time:
///  - direct addressing when the key range is small relative to the row
///    count (the common FK-join shape): one array load per probe;
///  - open addressing (linear probe, power-of-two capacity, <= 50% load)
///    with keys stored inline in the bucket array, so a probe touches one
///    cache line instead of chasing into the key column.
/// Buckets store the first row of a key; duplicates chain through next_ in
/// ascending row order, so probing emits matches in the same order as the
/// scalar reference join.
class FlatTable {
 public:
  static constexpr uint32_t kNone = 0xFFFFFFFFu;

  /// Empty table: every Find misses. Placeholder until a real build is
  /// move-assigned in (PartitionedTable's partition slots).
  FlatTable() = default;

  /// Builds over keys[0, n) (borrowed for the build only).
  FlatTable(const int64_t* keys, size_t n);
  explicit FlatTable(const std::vector<int64_t>& keys)
      : FlatTable(keys.data(), keys.size()) {}
  explicit FlatTable(Span<int64_t> keys) : FlatTable(keys.data, keys.size) {}

  /// First row whose key equals `key`, or kNone.
  uint32_t Find(int64_t key) const {
    if (direct_) {
      // Unsigned wrap maps key < min to a huge offset: one bounds check.
      const uint64_t off = static_cast<uint64_t>(key) - static_cast<uint64_t>(min_);
      return off < bucket_rows_.size() ? bucket_rows_[off] : kNone;
    }
    uint64_t slot = Hash(key) & mask_;
    while (true) {
      const uint32_t row = bucket_rows_[slot];
      if (row == kNone) return kNone;
      if (bucket_keys_[slot] == key) return row;
      slot = (slot + 1) & mask_;
    }
  }

  /// Next row with the same key after `row`, or kNone.
  uint32_t Next(uint32_t row) const { return next_[row]; }

  bool Contains(int64_t key) const { return Find(key) != kNone; }

  bool is_direct() const { return direct_; }

 private:
  static uint64_t Hash(int64_t key) { return HashInt64Key(key); }

  // direct_ defaults true so a default-constructed table takes the bounds
  // check against the empty bucket array and misses — no probe loop on
  // empty storage.
  bool direct_ = true;
  int64_t min_ = 0;
  uint64_t mask_ = 0;
  std::vector<uint32_t> bucket_rows_;
  std::vector<int64_t> bucket_keys_;  // open addressing only
  std::vector<uint32_t> next_;
};

// ---- radix-partitioned hash table -------------------------------------------

/// \brief Radix-partitioned flat multimap: the parallel build of the
/// hash-join / membership table. Keys split by the high bits of
/// HashInt64Key into P partitions (P from ExecPolicy::join_partitions,
/// derived from the worker count when 0): a parallel histogram + scatter
/// pass routes (key, row) pairs to their partition in ascending row order,
/// then every partition builds its own FlatTable concurrently on the shared
/// executor and splices its duplicate chains into one global next_ array.
/// Probes hash to a partition first, so Find/Next still emit build rows in
/// ascending order — bit-identical probe output to the single-table build.
/// Below ExecPolicy::min_parallel_rows (or at one partition/worker) the
/// build collapses to a single sequential FlatTable with zero indirection.
class PartitionedTable {
 public:
  static constexpr uint32_t kNone = FlatTable::kNone;

  /// Builds over keys[0, n) (borrowed for the build only); partition count
  /// and parallelism come from the process ExecPolicy.
  PartitionedTable(const int64_t* keys, size_t n);
  explicit PartitionedTable(Span<int64_t> keys)
      : PartitionedTable(keys.data, keys.size) {}

  /// First (lowest) build row whose key equals `key`, or kNone.
  uint32_t Find(int64_t key) const {
    const Part& p = parts_[parts_.size() == 1 ? 0 : PartitionOf(key)];
    const uint32_t local = p.table.Find(key);
    if (local == kNone) return kNone;
    return p.rows.empty() ? local : p.rows[local];
  }

  /// Next build row with the same key after `row` (ascending), or kNone.
  uint32_t Next(uint32_t row) const {
    return next_.empty() ? parts_[0].table.Next(row) : next_[row];
  }

  bool Contains(int64_t key) const { return Find(key) != kNone; }

  size_t partitions() const { return parts_.size(); }
  bool is_partitioned() const { return parts_.size() > 1; }

 private:
  struct Part {
    std::vector<uint32_t> rows;  ///< local -> original row (ascending); empty = identity
    FlatTable table;             ///< over the partition's local key order
  };

  size_t PartitionOf(int64_t key) const { return HashInt64Key(key) >> shift_; }

  unsigned shift_ = 63;        ///< 64 - log2(partitions); unused when single
  std::vector<Part> parts_;
  std::vector<uint32_t> next_;  ///< global duplicate chains (partitioned only)
};

}  // namespace kernels
}  // namespace dcy::bat
