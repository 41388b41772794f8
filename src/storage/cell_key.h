#ifndef SQUID_STORAGE_CELL_KEY_H_
#define SQUID_STORAGE_CELL_KEY_H_

/// \file cell_key.h
/// \brief Packed 64-bit cell keys and row-id spans: the one key space shared
/// by every flat hash over column cells — the executor's join and group-by
/// tables (exec/join_hash.h, exec/group_table.h), the storage layer's
/// HashColumnIndex, and the αDB's derived-relation materializer, which
/// probes HashColumnIndex with packed keys instead of Values.
///
/// A cell packs to its dictionary symbol (strings), its exact bit pattern
/// (int64), or PackedDoubleBits (doubles, -0.0 folded onto +0.0). Probing a
/// column of another type converts the probe cell the way Value equality
/// does: int64 widens to double; a double matches an int64 key only when it
/// is integral and in range.

#include <cstddef>
#include <cstdint>

#include "storage/table.h"
#include "storage/value.h"

namespace squid {

/// \brief Non-owning view of one key's row ids: contiguous, ascending when
/// the index was built over ascending rows.
struct RowSpan {
  const uint32_t* data = nullptr;
  uint32_t size = 0;

  const uint32_t* begin() const { return data; }
  const uint32_t* end() const { return data + size; }
  bool empty() const { return size == 0; }
  uint32_t operator[](size_t i) const { return data[i]; }
};

/// 64-bit mixer (splitmix64 finalizer) for bucket choice in the flat
/// tables; packed keys are often small dense ints, so raw masking would
/// cluster.
inline uint64_t MixJoinKey(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// Packs the cell into the 64-bit key space of its own column: dictionary
/// symbol for strings, bit pattern for numerics. Returns false for nulls
/// (which never join).
bool PackCellKey(const Column& col, size_t row, uint64_t* key);

/// Packs a probe cell into the key space of a build side whose cells have
/// type `build_type` and whose strings are symbols of `build_pool`,
/// preserving Value equality (1 == 1.0 across numeric types; strings match
/// exactly). Returns false when the cell is null or cannot equal any build
/// key (type mismatch, string absent from the build dictionary, double
/// outside int64 range or with a fractional part when the build side is
/// integer).
bool PackProbeKey(ValueType build_type, const StringPool* build_pool,
                  const Column& probe, size_t row, uint64_t* key);

/// PackProbeKey against the key space of the column `build`.
inline bool PackProbeKey(const Column& build, const Column& probe, size_t row,
                         uint64_t* key) {
  return PackProbeKey(build.type(), build.pool(), probe, row, key);
}

}  // namespace squid

#endif  // SQUID_STORAGE_CELL_KEY_H_
