#include "exec/join_hash.h"

#include "common/probe_pipeline.h"
#include "storage/string_pool.h"

namespace squid {

bool JoinCellsEqual(const Column& a, size_t ra, const Column& b, size_t rb) {
  if (a.IsNull(ra) || b.IsNull(rb)) return false;
  const bool a_str = a.type() == ValueType::kString;
  const bool b_str = b.type() == ValueType::kString;
  if (a_str != b_str) return false;
  if (a_str) {
    if (a.pool() == b.pool()) return a.SymbolAt(ra) == b.SymbolAt(rb);
    return a.StringAt(ra) == b.StringAt(rb);
  }
  if (a.type() == ValueType::kInt64 && b.type() == ValueType::kInt64) {
    return a.Int64At(ra) == b.Int64At(rb);
  }
  return a.NumericAt(ra) == b.NumericAt(rb);
}

FlatJoinHash FlatJoinHash::Build(const Column& column,
                                 const std::vector<uint32_t>& rows) {
  FlatJoinHash hash;
  if (rows.empty()) return hash;

  // Pass 1: pack every non-null cell once, find-or-insert its bucket, and
  // count per-key rows in the bucket itself (`begin` temporarily holds the
  // key's dense slot index so pass 2 can find its offset).
  struct Keyed {
    uint64_t bucket;
    uint32_t row;
  };
  std::vector<Keyed> keyed;
  keyed.reserve(rows.size());

  size_t cap = 2;
  while (cap < rows.size() * 2) cap <<= 1;  // <= 50% load
  hash.table_.assign(cap, Entry{});
  hash.mask_ = cap - 1;

  uint64_t key = 0;
  for (uint32_t r : rows) {
    if (!PackCellKey(column, r, &key)) continue;
    uint64_t i = MixJoinKey(key) & hash.mask_;
    while (true) {
      Entry& e = hash.table_[i];
      if (e.count == 0) {
        e.key = key;
        ++hash.num_keys_;
      }
      if (e.key == key) {
        ++e.count;
        keyed.push_back(Keyed{i, r});
        break;
      }
      i = (i + 1) & hash.mask_;
    }
  }

  // Pass 2: prefix-sum the per-bucket counts into CSR begins (bucket-walk
  // order is arbitrary but fixed), then scatter rows in build order — which
  // keeps each key's span in `rows` order. During the scatter `begin` is
  // the key's write cursor; a final walk rewinds it to the span start.
  uint32_t offset = 0;
  for (Entry& e : hash.table_) {
    if (e.count == 0) continue;
    e.begin = offset;
    offset += e.count;
  }
  hash.rows_.resize(keyed.size());
  for (const Keyed& k : keyed) {
    hash.rows_[hash.table_[k.bucket].begin++] = k.row;
  }
  for (Entry& e : hash.table_) e.begin -= e.count;
  return hash;
}

FlatJoinHash::RowSpan FlatJoinHash::Probe(uint64_t key) const {
  if (table_.empty()) return RowSpan{};
  uint64_t i = MixJoinKey(key) & mask_;
  while (true) {
    const Entry& e = table_[i];
    if (e.count == 0) return RowSpan{};
    if (e.key == key) return RowSpan{rows_.data() + e.begin, e.count};
    i = (i + 1) & mask_;
  }
}

void FlatJoinHash::ProbeBatch(const uint64_t* keys, const uint8_t* valid,
                              size_t n, RowSpan* out) const {
  if (table_.empty()) {
    for (size_t i = 0; i < n; ++i) out[i] = RowSpan{};
    return;
  }
  // Batching exists so the probe loop can run ahead of the memory system:
  // on large build sides the table exceeds cache and every bucket read is a
  // DRAM load. The shared pipeline hashes + prefetches the bucket of probe
  // i+W while resolving probe i, carrying the computed bucket index across
  // so the resolve stage doesn't re-hash (the window W is
  // MemConfig::prefetch_window; W <= 1 means plain per-item probes).
  const Entry* table = table_.data();
  PipelinedProbe<uint64_t>(
      n, GlobalMemConfig().prefetch_window,
      [&](size_t j) -> uint64_t {
        if (!valid[j]) return 0;
        const uint64_t b = MixJoinKey(keys[j]) & mask_;
        PrefetchRead(table + b);
        return b;
      },
      [&](size_t i, uint64_t bucket) {
        if (!valid[i]) {
          out[i] = RowSpan{};
          return;
        }
        const uint64_t key = keys[i];
        uint64_t b = bucket;
        while (true) {
          const Entry& e = table[b];
          if (e.count == 0) {
            out[i] = RowSpan{};
            return;
          }
          if (e.key == key) {
            // Confirmed hit: start the row-id span on its way to cache
            // before the caller walks it during match expansion.
            PrefetchRead(rows_.data() + e.begin);
            out[i] = RowSpan{rows_.data() + e.begin, e.count};
            return;
          }
          b = (b + 1) & mask_;
        }
      });
}

}  // namespace squid
