#ifndef SQUID_STORAGE_COLUMN_INDEX_H_
#define SQUID_STORAGE_COLUMN_INDEX_H_

/// \file column_index.h
/// \brief Sorted (B-tree-style) and hash indexes over single columns. The
/// αDB uses the hash index for entity-keyed lookups into derived relations
/// (the "point queries ... using B-tree indexes" of §7.2), for primary-key
/// lookups, and for every hop of derived-relation materialization.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/cell_key.h"
#include "storage/table.h"

namespace squid {

/// \brief Ordered index: value -> row ids, supporting point and range scans.
class SortedColumnIndex {
 public:
  /// Builds the index over `table.column(attr)`. Nulls are excluded.
  static Result<SortedColumnIndex> Build(const Table& table, const std::string& attr);

  /// Row ids with exactly this value.
  std::vector<size_t> Lookup(const Value& v) const;

  /// Row ids with lo <= value <= hi (either bound may be Null = unbounded).
  std::vector<size_t> Range(const Value& lo, const Value& hi) const;

  /// Number of distinct indexed values.
  size_t NumDistinct() const { return entries_.size(); }

  /// Number of indexed (non-null) rows.
  size_t NumRows() const { return num_rows_; }

  /// Smallest / largest indexed value (error if empty).
  Result<Value> MinValue() const;
  Result<Value> MaxValue() const;

 private:
  std::map<Value, std::vector<size_t>> entries_;
  size_t num_rows_ = 0;
};

/// \brief Hash index: value -> row ids, for equality-only probes (the αDB's
/// per-entity point queries, its PK lookups, and the derived-relation
/// materializer's hops).
///
/// Flat layout, built in two passes over the column. Cells pack to 64-bit
/// keys (storage/cell_key.h: dictionary symbols for strings, exact bits for
/// int64, PackedDoubleBits for doubles). Pass 1 maps each key to a dense
/// slot through an open-addressing table and counts rows per slot; pass 2
/// prefix-sums the counts and scatters row ids into one contiguous array,
/// in ascending row order. The final table holds 16-byte `{key, begin,
/// count}` buckets at <= 50% load with each key's span of the row-id array
/// embedded (the per-slot offsets folded into the bucket), so a hit is one
/// bucket read plus one contiguous span — no per-key heap vector.
///
/// Lookups return a RowSpan of ascending row ids (empty on a miss; nulls
/// are never indexed). Value probes of the other numeric type convert the
/// way Value equality does (1 == 1.0; 2.5 matches no int64 key), and so do
/// packed probes through PackProbe — one conversion for both paths.
class HashColumnIndex {
 public:
  static Result<HashColumnIndex> Build(const Table& table, const std::string& attr);

  /// Row ids with exactly this value (empty when absent).
  RowSpan Lookup(const Value& v) const;

  /// Packs cell `row` of `probe` into this index's key space (the same
  /// conversion Lookup applies to a Value). False when the cell is null or
  /// can match no key, so hot loops probe without materializing Values.
  bool PackProbe(const Column& probe, size_t row, uint64_t* key) const {
    return PackProbeKey(key_type_, pool_.get(), probe, row, key);
  }

  /// Row ids whose cell packs to `key` (empty when absent).
  RowSpan LookupPacked(uint64_t key) const;

  size_t NumDistinct() const { return num_keys_; }

 private:
  struct alignas(16) Bucket {
    uint64_t key = 0;
    uint32_t begin = 0;  // span start in rows_ (the slot id while building)
    uint32_t count = 0;  // 0 marks an empty bucket
  };
  static_assert(sizeof(Bucket) == 16, "bucket layout audited at 16 bytes");

  ValueType key_type_ = ValueType::kNull;
  std::shared_ptr<const StringPool> pool_;  // keeps symbol keys resolvable
  std::vector<Bucket> buckets_;             // power-of-two, <= 50% load
  uint64_t mask_ = 0;
  std::vector<uint32_t> rows_;
  size_t num_keys_ = 0;
};

}  // namespace squid

#endif  // SQUID_STORAGE_COLUMN_INDEX_H_
