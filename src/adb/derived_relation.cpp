#include "adb/derived_relation.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "storage/column_index.h"

namespace squid {

namespace {

/// One path instance during traversal: the origin entity's row and the
/// row the path has reached in the current relation.
struct Arrival {
  uint32_t entity_row;
  uint32_t row;
};

/// One output row before emission: representative cells (rows of the
/// entity key and terminal columns; the bucket index for numeric buckets),
/// the association count, and the entity's portfolio total.
struct CountedRow {
  uint32_t entity_row;
  uint32_t value;
  int64_t count;
  int64_t total;
};

/// Value::Compare(a.ValueAt(ra), b.ValueAt(rb)) == 0 for non-null cells,
/// without materializing Values: int64 pairs compare exactly, other numeric
/// pairs as doubles (where NaN compares equal), strings by content, and a
/// number never equals a string.
bool SameValue(const Column& a, size_t ra, const Column& b, size_t rb) {
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
  const double x = a.NumericAt(ra);
  const double y = b.NumericAt(rb);
  return !(x < y) && !(x > y);
}

/// Sorts `rows` by `less` and gives each run of equivalent cells one dense
/// rank, ascending: (*rank_of)[row] for every row in `rows`. Returns the
/// number of ranks.
template <typename Less>
uint32_t RankSorted(std::vector<uint32_t>* rows, Less less,
                    std::vector<uint32_t>* rank_of) {
  std::sort(rows->begin(), rows->end(), less);
  uint32_t rank = 0;
  for (size_t i = 0; i < rows->size(); ++i) {
    if (i > 0 && less((*rows)[i - 1], (*rows)[i])) ++rank;
    (*rank_of)[(*rows)[i]] = rank;
  }
  return rows->empty() ? 0 : rank + 1;
}

/// Dense ranks of the non-null cells of `col` at `rows`, in Value::Compare
/// order (cells that compare equal, like -0.0 and 0.0, share a rank). NaN,
/// which Value::Compare cannot order, ranks after every number. Returns the
/// number of ranks.
uint32_t RankCells(const Column& col, std::vector<uint32_t> rows,
                   std::vector<uint32_t>* rank_of) {
  switch (col.type()) {
    case ValueType::kInt64:
      return RankSorted(
          &rows, [&](uint32_t a, uint32_t b) { return col.Int64At(a) < col.Int64At(b); },
          rank_of);
    case ValueType::kDouble:
      return RankSorted(
          &rows,
          [&](uint32_t a, uint32_t b) {
            const double x = col.DoubleAt(a), y = col.DoubleAt(b);
            return x < y || (!std::isnan(x) && std::isnan(y));
          },
          rank_of);
    case ValueType::kString: {
      // Symbols are distinct exactly when strings are: rank the distinct
      // symbols by content, then hand each row its symbol's rank.
      std::sort(rows.begin(), rows.end(), [&](uint32_t a, uint32_t b) {
        return col.SymbolAt(a) < col.SymbolAt(b);
      });
      std::vector<uint32_t> firsts;  // first row of each distinct symbol
      for (size_t i = 0; i < rows.size(); ++i) {
        if (i == 0 || col.SymbolAt(rows[i]) != col.SymbolAt(rows[i - 1])) {
          firsts.push_back(rows[i]);
        }
      }
      const uint32_t ranks = RankSorted(
          &firsts,
          [&](uint32_t a, uint32_t b) { return col.StringAt(a) < col.StringAt(b); },
          rank_of);
      for (size_t i = 1; i < rows.size(); ++i) {
        if (col.SymbolAt(rows[i]) == col.SymbolAt(rows[i - 1])) {
          (*rank_of)[rows[i]] = (*rank_of)[rows[i - 1]];
        }
      }
      return ranks;
    }
    case ValueType::kNull:
      break;
  }
  return 0;
}

}  // namespace

Result<std::shared_ptr<Table>> MaterializeDerivedRelation(
    const Database& db, const PropertyDescriptor& desc) {
  if (desc.hops.empty()) {
    return Status::InvalidArgument("descriptor '" + desc.id +
                                   "' has no fact hops; nothing to materialize");
  }
  SQUID_ASSIGN_OR_RETURN(const Table* entity, db.GetTable(desc.entity_relation));
  SQUID_ASSIGN_OR_RETURN(const Column* entity_pk,
                         entity->ColumnByName(desc.entity_key));
  if (entity->num_rows() > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument("entity relation '" + desc.entity_relation +
                                   "' has more than 2^32 rows");
  }

  // Current frontier: (origin entity row, row in the current relation).
  // Every hop expands each arrival in place, so the frontier stays grouped
  // by origin entity row, ascending.
  const Table* current = entity;
  std::string current_key_attr = desc.entity_key;
  const uint32_t num_entities = static_cast<uint32_t>(entity->num_rows());
  std::vector<Arrival> frontier;
  frontier.reserve(num_entities);
  for (uint32_t r = 0; r < num_entities; ++r) {
    if (!entity_pk->IsNull(r)) frontier.push_back(Arrival{r, r});
  }

  // Traverse the fact hops, probing with packed keys.
  for (const FactHop& hop : desc.hops) {
    SQUID_ASSIGN_OR_RETURN(const Table* fact, db.GetTable(hop.fact_table));
    SQUID_ASSIGN_OR_RETURN(HashColumnIndex fact_in,
                           HashColumnIndex::Build(*fact, hop.in_attr));
    SQUID_ASSIGN_OR_RETURN(const Column* fact_out, fact->ColumnByName(hop.out_attr));
    SQUID_ASSIGN_OR_RETURN(const Table* next, db.GetTable(hop.next_relation));
    SQUID_ASSIGN_OR_RETURN(HashColumnIndex next_pk,
                           HashColumnIndex::Build(*next, hop.next_key));
    SQUID_ASSIGN_OR_RETURN(const Column* current_key,
                           current->ColumnByName(current_key_attr));

    const bool arrives_at_origin = hop.next_relation == desc.entity_relation;
    std::vector<Arrival> next_frontier;
    next_frontier.reserve(frontier.size());
    uint64_t in_key = 0, out_key = 0;
    for (const Arrival& a : frontier) {
      if (!fact_in.PackProbe(*current_key, a.row, &in_key)) continue;
      for (uint32_t fr : fact_in.LookupPacked(in_key)) {
        if (!next_pk.PackProbe(*fact_out, fr, &out_key)) continue;
        // Skip self-arrivals on paths that loop back to the origin entity.
        if (arrives_at_origin && SameValue(*fact_out, fr, *entity_pk, a.entity_row)) {
          continue;
        }
        for (uint32_t nr : next_pk.LookupPacked(out_key)) {
          next_frontier.push_back(Arrival{a.entity_row, nr});
        }
      }
    }
    frontier = std::move(next_frontier);
    current = next;
    current_key_attr = hop.next_key;
  }

  // Apply the FK-dim resolution chain.
  for (const DimHop& dim : desc.dims) {
    SQUID_ASSIGN_OR_RETURN(const Column* from, current->ColumnByName(dim.from_attr));
    SQUID_ASSIGN_OR_RETURN(const Table* next, db.GetTable(dim.dim_relation));
    SQUID_ASSIGN_OR_RETURN(HashColumnIndex next_pk,
                           HashColumnIndex::Build(*next, dim.dim_key));
    std::vector<Arrival> next_frontier;
    next_frontier.reserve(frontier.size());
    uint64_t key = 0;
    for (const Arrival& a : frontier) {
      if (!next_pk.PackProbe(*from, a.row, &key)) continue;
      for (uint32_t nr : next_pk.LookupPacked(key)) {
        next_frontier.push_back(Arrival{a.entity_row, nr});
      }
    }
    frontier = std::move(next_frontier);
    current = next;
  }

  SQUID_ASSIGN_OR_RETURN(const Column* terminal,
                         current->ColumnByName(desc.terminal_attr));
  const bool bucketed = desc.kind == PropertyKind::kDerivedNumericBucket;

  // Only arrivals at a non-null terminal count, toward both the value
  // counts and the entity's portfolio total.
  auto null_terminal = [&](const Arrival& a) { return terminal->IsNull(a.row); };
  frontier.erase(std::remove_if(frontier.begin(), frontier.end(), null_terminal),
                 frontier.end());

  // Origin entity rows that kept an arrival, with their frontier ranges.
  std::vector<uint32_t> entity_rows;
  std::vector<size_t> entity_begin;
  for (size_t i = 0; i < frontier.size(); ++i) {
    if (entity_rows.empty() || entity_rows.back() != frontier[i].entity_row) {
      entity_rows.push_back(frontier[i].entity_row);
      entity_begin.push_back(i);
    }
  }
  entity_begin.push_back(frontier.size());

  // Rank entity keys and terminal values once, in Value::Compare order.
  // Entities with equal keys merge into one group; ordering the groups by
  // (rank, row) keeps each group's arrivals in frontier order, so its first
  // arrival supplies the representative key — as the first insertion into
  // an ordered map keyed by Value would.
  std::vector<uint32_t> entity_rank(num_entities);
  RankCells(*entity_pk, entity_rows, &entity_rank);
  std::vector<uint64_t> order(entity_rows.size());
  for (size_t i = 0; i < entity_rows.size(); ++i) {
    order[i] = (static_cast<uint64_t>(entity_rank[entity_rows[i]]) << 32) | i;
  }
  if (!std::is_sorted(order.begin(), order.end())) std::sort(order.begin(), order.end());

  std::vector<uint32_t> value_rank;
  size_t num_values = desc.bucket_thresholds.size();
  if (!bucketed) {
    std::vector<uint8_t> reached(current->num_rows(), 0);
    for (const Arrival& a : frontier) reached[a.row] = 1;
    std::vector<uint32_t> reached_rows;
    for (size_t r = 0; r < reached.size(); ++r) {
      if (reached[r]) reached_rows.push_back(static_cast<uint32_t>(r));
    }
    value_rank.resize(current->num_rows());
    num_values = RankCells(*terminal, std::move(reached_rows), &value_rank);
  }

  // Count per entity group: a dense counter per value rank (or bucket), the
  // touched ranks sorted afterwards. A value's representative is its first
  // arrival in the group. Buckets count associates with
  // attr >= bucket_thresholds[i]; the total is one per arrival either way.
  std::vector<CountedRow> counted;
  std::vector<int64_t> count_of(num_values, 0);
  std::vector<uint32_t> first_row_of(bucketed ? 0 : num_values);
  std::vector<uint32_t> touched;
  for (size_t g = 0; g < order.size();) {
    const uint64_t rank = order[g] >> 32;
    const uint32_t representative = entity_rows[order[g] & 0xFFFFFFFFu];
    int64_t total = 0;
    touched.clear();
    for (; g < order.size() && (order[g] >> 32) == rank; ++g) {
      const size_t e = order[g] & 0xFFFFFFFFu;
      for (size_t k = entity_begin[e]; k < entity_begin[e + 1]; ++k) {
        const uint32_t row = frontier[k].row;
        ++total;
        if (bucketed) {
          const double v = terminal->NumericAt(row);
          for (size_t b = 0; b < num_values; ++b) {
            if (v < desc.bucket_thresholds[b]) continue;
            if (count_of[b]++ == 0) touched.push_back(static_cast<uint32_t>(b));
          }
        } else {
          const uint32_t vr = value_rank[row];
          if (count_of[vr]++ == 0) {
            touched.push_back(vr);
            first_row_of[vr] = row;
          }
        }
      }
    }
    std::sort(touched.begin(), touched.end());
    for (uint32_t v : touched) {
      counted.push_back(CountedRow{representative, bucketed ? v : first_row_of[v],
                                   count_of[v], total});
      count_of[v] = 0;
    }
  }

  // Emit the derived table: (entity_id, value, count, frac) where frac is
  // the portfolio-normalized association strength count / total.
  ValueType value_type = bucketed ? ValueType::kInt64 : terminal->type();
  Schema schema(desc.derived_table,
                {{"entity_id", entity_pk->type()},
                 {"value", value_type},
                 {"count", ValueType::kInt64},
                 {"frac", ValueType::kDouble}});
  schema.AddForeignKey(
      ForeignKeyDef{"entity_id", desc.entity_relation, desc.entity_key});
  // Share the base database's pool so derived string values (and entity
  // keys) carry symbols comparable with the base columns' — and are copied
  // by symbol, never interned.
  auto table = std::make_shared<Table>(std::move(schema), db.pool());
  table->Reserve(counted.size());
  Column* entity_col = table->mutable_column(0);
  Column* value_col = table->mutable_column(1);
  Column* count_col = table->mutable_column(2);
  Column* frac_col = table->mutable_column(3);
  for (const CountedRow& c : counted) {
    SQUID_RETURN_NOT_OK(entity_col->AppendCell(*entity_pk, c.entity_row));
    if (bucketed) {
      value_col->AppendInt64(c.value);
    } else {
      SQUID_RETURN_NOT_OK(value_col->AppendCell(*terminal, c.value));
    }
    count_col->AppendInt64(c.count);
    const double total = static_cast<double>(c.total);
    frac_col->AppendDouble(total > 0 ? static_cast<double>(c.count) / total : 0.0);
  }
  SQUID_RETURN_NOT_OK(table->CommitAppendedRows(counted.size()));
  return table;
}

}  // namespace squid
