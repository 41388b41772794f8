#include "storage/cell_key.h"

#include "storage/string_pool.h"

namespace squid {

bool PackCellKey(const Column& col, size_t row, uint64_t* key) {
  if (col.IsNull(row)) return false;
  switch (col.type()) {
    case ValueType::kString:
      *key = col.SymbolAt(row);
      return true;
    case ValueType::kInt64:
      *key = static_cast<uint64_t>(col.Int64At(row));
      return true;
    case ValueType::kDouble:
      *key = PackedDoubleBits(col.DoubleAt(row));
      return true;
    case ValueType::kNull:
      return false;
  }
  return false;
}

bool PackProbeKey(ValueType build_type, const StringPool* build_pool,
                  const Column& probe, size_t row, uint64_t* key) {
  if (probe.IsNull(row)) return false;
  switch (build_type) {
    case ValueType::kString: {
      if (probe.type() != ValueType::kString) return false;
      if (probe.pool() == build_pool) {
        *key = probe.SymbolAt(row);
        return true;
      }
      Symbol s = build_pool->Find(probe.StringAt(row));
      if (s == kNoSymbol) return false;
      *key = s;
      return true;
    }
    case ValueType::kInt64: {
      if (probe.type() == ValueType::kInt64) {
        *key = static_cast<uint64_t>(probe.Int64At(row));
        return true;
      }
      if (probe.type() == ValueType::kDouble) {
        double d = probe.DoubleAt(row);
        // Out of range (or NaN): the cast would overflow.
        if (!(d >= -9.2e18 && d <= 9.2e18)) return false;
        int64_t i = static_cast<int64_t>(d);
        if (static_cast<double>(i) != d) return false;  // 2.5 matches nothing
        *key = static_cast<uint64_t>(i);
        return true;
      }
      return false;
    }
    case ValueType::kDouble: {
      if (probe.type() == ValueType::kDouble) {
        *key = PackedDoubleBits(probe.DoubleAt(row));
        return true;
      }
      if (probe.type() == ValueType::kInt64) {
        *key = PackedDoubleBits(static_cast<double>(probe.Int64At(row)));
        return true;
      }
      return false;
    }
    case ValueType::kNull:
      return false;
  }
  return false;
}

}  // namespace squid
