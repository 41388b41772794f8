#ifndef SQUID_EXEC_EXPRESSION_H_
#define SQUID_EXEC_EXPRESSION_H_

/// \file expression.h
/// \brief Bound predicate evaluation: resolves AST column references against
/// actual tables, compiles each predicate against its column's storage type,
/// and filters row ids with typed column kernels instead of materializing a
/// Value per row.
///
/// Kernel contract: for every row, a compiled predicate accepts exactly the
/// rows `Predicate::Matches(column.ValueAt(r))` accepts. In particular:
///   - NULL never matches (a NULL cell, or a NULL constant in a compare or
///     BETWEEN);
///   - int64 cells against int64 constants compare exactly; every other
///     numeric pair compares as doubles, and NaN compares "equal" to
///     everything because neither `<` nor `>` holds (Value::Compare);
///   - numbers sort before strings, so a string constant against a numeric
///     column (or the reverse) has one fixed outcome for every non-null row;
///   - string equality and IN-lists compare dictionary symbols; a constant
///     absent from the column's pool equals no cell.
/// Shapes without a kernel (string ranges, numeric IN-lists, columns of
/// other types) keep the Value path.

#include <array>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "sql/ast.h"
#include "storage/database.h"

namespace squid {

/// A predicate bound to a concrete column of a concrete table, compiled to
/// the kernel FilterRows runs for it.
struct BoundPredicate {
  /// How FilterRows evaluates the predicate, fixed at bind time.
  enum class Kernel : uint8_t {
    kValue,     ///< Predicate::Matches(column->ValueAt(r)), row at a time
    kNone,      ///< matches no row
    kNotNull,   ///< matches every non-null row
    kSymbolIn,  ///< string column: the cell's symbol is one of `symbols`
    kNumeric,   ///< numeric column: every entry of `terms` holds
  };

  /// One `cell OP constant` test on a numeric column. `accept` has bit
  /// (c + 1) set for each three-way outcome c in {-1, 0, 1} that passes.
  struct NumericTerm {
    uint8_t accept = 0;
    bool exact_int = false;  ///< int64 column and int64 constant
    int64_t i = 0;           ///< the constant when exact_int
    double d = 0;            ///< the constant as a double otherwise
  };

  const Column* column = nullptr;
  Predicate predicate;
  Kernel kernel = Kernel::kValue;
  std::vector<Symbol> symbols;         // kSymbolIn
  std::array<NumericTerm, 2> terms{};  // kNumeric: terms[0, num_terms)
  size_t num_terms = 0;
};

/// Binds `pred` to `table` (alias must already be resolved) and compiles
/// its kernel.
Result<BoundPredicate> BindPredicate(const Table& table, const Predicate& pred);

/// Returns row ids of `table` satisfying all of `preds`, ascending. Each
/// predicate runs over the whole selection before the next one narrows it
/// further (typed kernels first, Value-path predicates last). Without
/// predicates it returns the identity row list with no per-row work.
/// `rows_visited`, when non-null, is incremented by the table's row count
/// when there is at least one predicate (0 on the no-predicate fast path) —
/// this feeds ExecStats::rows_scanned, which counts scans done, not rows
/// that survive them.
std::vector<uint32_t> FilterRows(const Table& table,
                                 const std::vector<BoundPredicate>& preds,
                                 size_t* rows_visited = nullptr);

}  // namespace squid

#endif  // SQUID_EXEC_EXPRESSION_H_
