#include "storage/column_index.h"

#include <limits>

namespace squid {

Result<SortedColumnIndex> SortedColumnIndex::Build(const Table& table,
                                                   const std::string& attr) {
  SQUID_ASSIGN_OR_RETURN(const Column* col, table.ColumnByName(attr));
  SortedColumnIndex index;
  for (size_t r = 0; r < col->size(); ++r) {
    if (col->IsNull(r)) continue;
    index.entries_[col->ValueAt(r)].push_back(r);
    ++index.num_rows_;
  }
  return index;
}

std::vector<size_t> SortedColumnIndex::Lookup(const Value& v) const {
  auto it = entries_.find(v);
  if (it == entries_.end()) return {};
  return it->second;
}

std::vector<size_t> SortedColumnIndex::Range(const Value& lo, const Value& hi) const {
  auto begin = lo.is_null() ? entries_.begin() : entries_.lower_bound(lo);
  auto end = hi.is_null() ? entries_.end() : entries_.upper_bound(hi);
  std::vector<size_t> out;
  for (auto it = begin; it != end; ++it) {
    out.insert(out.end(), it->second.begin(), it->second.end());
  }
  return out;
}

Result<Value> SortedColumnIndex::MinValue() const {
  if (entries_.empty()) return Status::NotFound("empty index");
  return entries_.begin()->first;
}

Result<Value> SortedColumnIndex::MaxValue() const {
  if (entries_.empty()) return Status::NotFound("empty index");
  return entries_.rbegin()->first;
}

Result<HashColumnIndex> HashColumnIndex::Build(const Table& table,
                                               const std::string& attr) {
  SQUID_ASSIGN_OR_RETURN(const Column* col, table.ColumnByName(attr));
  if (col->size() > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument("hash index over more than 2^32 rows: " +
                                   table.name() + "." + attr);
  }
  HashColumnIndex index;
  index.key_type_ = col->type();
  index.pool_ = table.pool();
  const uint32_t n = static_cast<uint32_t>(col->size());

  // Pass 1: find-or-insert each non-null cell's key, giving new keys dense
  // slot ids in first-occurrence order (`begin` holds the slot while
  // building) and counting rows per key. The table doubles at 50% load;
  // slot ids survive a rehash, so each row's slot is recorded once.
  constexpr uint32_t kNullSlot = std::numeric_limits<uint32_t>::max();
  std::vector<uint32_t> slot_of(n, kNullSlot);
  index.buckets_.assign(16, Bucket{});
  index.mask_ = 15;
  auto rehash = [&index]() {
    std::vector<Bucket> old = std::move(index.buckets_);
    index.buckets_.assign(old.size() * 2, Bucket{});
    index.mask_ = index.buckets_.size() - 1;
    for (const Bucket& b : old) {
      if (b.count == 0) continue;
      uint64_t i = MixJoinKey(b.key) & index.mask_;
      while (index.buckets_[i].count != 0) i = (i + 1) & index.mask_;
      index.buckets_[i] = b;
    }
  };
  uint64_t key = 0;
  for (uint32_t r = 0; r < n; ++r) {
    if (!PackCellKey(*col, r, &key)) continue;
    uint64_t i = MixJoinKey(key) & index.mask_;
    while (true) {
      Bucket& b = index.buckets_[i];
      if (b.count == 0) {
        b = Bucket{key, static_cast<uint32_t>(index.num_keys_++), 0};
      }
      if (b.key == key) {
        ++b.count;
        slot_of[r] = b.begin;
        if (index.num_keys_ * 2 > index.buckets_.size()) rehash();
        break;
      }
      i = (i + 1) & index.mask_;
    }
  }

  // Pass 2: prefix-sum the counts (in bucket order) into span starts, then
  // scatter row ids in ascending order, so every span is ascending.
  std::vector<uint32_t> cursor(index.num_keys_);
  uint32_t offset = 0;
  for (Bucket& b : index.buckets_) {
    if (b.count == 0) continue;
    cursor[b.begin] = offset;
    b.begin = offset;
    offset += b.count;
  }
  index.rows_.resize(offset);
  for (uint32_t r = 0; r < n; ++r) {
    if (slot_of[r] != kNullSlot) index.rows_[cursor[slot_of[r]]++] = r;
  }
  return index;
}

RowSpan HashColumnIndex::Lookup(const Value& v) const {
  uint64_t key = 0;
  switch (v.type()) {
    case ValueType::kNull:
      return RowSpan{};  // nulls are never indexed
    case ValueType::kString: {
      if (key_type_ != ValueType::kString) return RowSpan{};
      Symbol s = pool_->Find(v.AsString());
      if (s == kNoSymbol) return RowSpan{};
      key = s;
      break;
    }
    case ValueType::kInt64:
      if (key_type_ == ValueType::kInt64) {
        key = static_cast<uint64_t>(v.AsInt64());
      } else if (key_type_ == ValueType::kDouble) {
        key = PackedDoubleBits(static_cast<double>(v.AsInt64()));
      } else {
        return RowSpan{};
      }
      break;
    case ValueType::kDouble: {
      double d = v.AsDouble();
      if (key_type_ == ValueType::kDouble) {
        key = PackedDoubleBits(d);
      } else if (key_type_ == ValueType::kInt64) {
        // 2.0 matches int64 2; 2.5 matches nothing (Value equality).
        if (!(d >= -9.2e18 && d <= 9.2e18)) return RowSpan{};  // cast would overflow
        int64_t i = static_cast<int64_t>(d);
        if (static_cast<double>(i) != d) return RowSpan{};
        key = static_cast<uint64_t>(i);
      } else {
        return RowSpan{};
      }
      break;
    }
  }
  return LookupPacked(key);
}

RowSpan HashColumnIndex::LookupPacked(uint64_t key) const {
  if (buckets_.empty()) return RowSpan{};
  uint64_t i = MixJoinKey(key) & mask_;
  while (true) {
    const Bucket& b = buckets_[i];
    if (b.count == 0) return RowSpan{};
    if (b.key == key) return RowSpan{rows_.data() + b.begin, b.count};
    i = (i + 1) & mask_;
  }
}

}  // namespace squid
