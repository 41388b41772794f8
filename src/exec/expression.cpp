#include "exec/expression.h"

#include <algorithm>
#include <numeric>

namespace squid {

namespace {

using Kernel = BoundPredicate::Kernel;
using NumericTerm = BoundPredicate::NumericTerm;

/// Bits of the three-way outcomes (-1, 0, 1 -> bits 0, 1, 2) under which
/// `cell OP constant` holds.
uint8_t AcceptMask(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return 0b010;
    case CompareOp::kNe:
      return 0b101;
    case CompareOp::kLt:
      return 0b001;
    case CompareOp::kLe:
      return 0b011;
    case CompareOp::kGt:
      return 0b100;
    case CompareOp::kGe:
      return 0b110;
  }
  return 0;
}

/// True when outcome `c` passes `accept`.
inline bool Accepts(uint8_t accept, int c) { return (accept >> (c + 1)) & 1; }

/// Value::Compare's numeric rule: NaN on either side yields 0.
template <typename T>
inline int Compare3(T x, T y) {
  return (x > y) - (x < y);
}

/// What one `cell OP constant` test on a numeric column compiles to.
enum class TermShape { kNever, kAlways, kTerm };

TermShape CompileNumericTerm(ValueType column_type, CompareOp op,
                             const Value& constant, NumericTerm* term) {
  const uint8_t accept = AcceptMask(op);
  switch (constant.type()) {
    case ValueType::kNull:
      return TermShape::kNever;  // NULL compares false
    case ValueType::kString:
      // Numbers sort before strings: the outcome is -1 on every row.
      return Accepts(accept, -1) ? TermShape::kAlways : TermShape::kNever;
    case ValueType::kInt64:
      term->accept = accept;
      term->exact_int = column_type == ValueType::kInt64;
      term->i = constant.AsInt64();
      term->d = static_cast<double>(constant.AsInt64());
      return TermShape::kTerm;
    case ValueType::kDouble:
      term->accept = accept;
      term->d = constant.AsDouble();
      return TermShape::kTerm;
  }
  return TermShape::kNever;
}

void CompileNumeric(BoundPredicate* bound) {
  const Predicate& p = bound->predicate;
  if (p.kind == Predicate::Kind::kInList) return;  // Value path
  std::array<std::pair<CompareOp, const Value*>, 2> tests;
  size_t num_tests = 0;
  if (p.kind == Predicate::Kind::kCompare) {
    tests[num_tests++] = {p.op, &p.value};
  } else {
    tests[num_tests++] = {CompareOp::kGe, &p.lo};
    tests[num_tests++] = {CompareOp::kLe, &p.hi};
  }
  bound->kernel = Kernel::kNotNull;
  for (size_t t = 0; t < num_tests; ++t) {
    NumericTerm term;
    switch (CompileNumericTerm(bound->column->type(), tests[t].first,
                               *tests[t].second, &term)) {
      case TermShape::kNever:
        bound->kernel = Kernel::kNone;
        bound->num_terms = 0;
        return;
      case TermShape::kAlways:
        break;
      case TermShape::kTerm:
        bound->terms[bound->num_terms++] = term;
        break;
    }
  }
  if (bound->num_terms > 0) bound->kernel = Kernel::kNumeric;
}

void CompileString(BoundPredicate* bound) {
  const Predicate& p = bound->predicate;
  if (p.kind == Predicate::Kind::kBetween) return;  // Value path
  if (p.kind == Predicate::Kind::kCompare) {
    switch (p.value.type()) {
      case ValueType::kNull:
        bound->kernel = Kernel::kNone;
        return;
      case ValueType::kInt64:
      case ValueType::kDouble:
        // Strings sort after numbers: the outcome is 1 on every row.
        bound->kernel = Accepts(AcceptMask(p.op), 1) ? Kernel::kNotNull
                                                     : Kernel::kNone;
        return;
      case ValueType::kString:
        if (p.op != CompareOp::kEq) return;  // ranges: Value path
        break;
    }
  }
  // Equality and IN-lists: NULL and numeric constants equal no string
  // cell; neither does a string the pool never interned.
  const StringPool& pool = *bound->column->pool();
  auto add = [&](const Value& c) {
    if (c.type() != ValueType::kString) return;
    const Symbol s = pool.Find(c.AsString());
    if (s != kNoSymbol) bound->symbols.push_back(s);
  };
  if (p.kind == Predicate::Kind::kInList) {
    for (const Value& c : p.in_list) add(c);
  } else {
    add(p.value);
  }
  bound->kernel = bound->symbols.empty() ? Kernel::kNone : Kernel::kSymbolIn;
}

/// Narrows the selection `sel` to the rows `pass` accepts, keeping order.
/// When `dense`, the selection is implicitly every row in [0, n) and `sel`
/// is pre-sized to n. Branch-free: every row is written, and the cursor
/// advances only past accepted ones.
template <typename Pass>
void Narrow(std::vector<uint32_t>* sel, bool dense, size_t n, Pass pass) {
  uint32_t* s = sel->data();
  size_t k = 0;
  if (dense) {
    for (size_t r = 0; r < n; ++r) {
      s[k] = static_cast<uint32_t>(r);
      k += pass(static_cast<uint32_t>(r)) ? 1 : 0;
    }
  } else {
    const size_t m = sel->size();
    for (size_t j = 0; j < m; ++j) {
      const uint32_t r = s[j];
      s[k] = r;
      k += pass(r) ? 1 : 0;
    }
  }
  sel->resize(k);
}

/// One numeric term over cells of storage type `C`, compared as `T`. Null
/// cells hold a placeholder in the typed vector, so reading every cell is
/// safe and the validity test needs no branch.
template <typename C, typename T>
void NarrowCompare(const C* cells, const uint8_t* valid, T constant,
                   uint8_t accept, std::vector<uint32_t>* sel, bool dense,
                   size_t n) {
  Narrow(sel, dense, n, [&](uint32_t r) {
    return (valid[r] != 0) &
           Accepts(accept, Compare3(static_cast<T>(cells[r]), constant));
  });
}

void RunKernel(const BoundPredicate& p, std::vector<uint32_t>* sel, bool dense,
               size_t n) {
  const Column& col = *p.column;
  const uint8_t* valid = col.valid_raw().data();
  switch (p.kernel) {
    case Kernel::kNone:
      sel->clear();
      return;
    case Kernel::kNotNull:
      Narrow(sel, dense, n, [&](uint32_t r) { return valid[r] != 0; });
      return;
    case Kernel::kSymbolIn: {
      const Symbol* syms = col.syms_raw().data();
      if (p.symbols.size() == 1) {
        const Symbol s = p.symbols[0];
        Narrow(sel, dense, n,
               [&](uint32_t r) { return (valid[r] != 0) & (syms[r] == s); });
      } else {
        const auto begin = p.symbols.begin();
        const auto end = p.symbols.end();
        Narrow(sel, dense, n, [&](uint32_t r) {
          return valid[r] != 0 && std::find(begin, end, syms[r]) != end;
        });
      }
      return;
    }
    case Kernel::kNumeric:
      for (size_t t = 0; t < p.num_terms; ++t) {
        const NumericTerm& term = p.terms[t];
        if (col.type() == ValueType::kDouble) {
          NarrowCompare(col.doubles_raw().data(), valid, term.d, term.accept,
                        sel, dense, n);
        } else if (term.exact_int) {
          NarrowCompare(col.ints_raw().data(), valid, term.i, term.accept, sel,
                        dense, n);
        } else {
          NarrowCompare(col.ints_raw().data(), valid, term.d, term.accept, sel,
                        dense, n);
        }
        dense = false;
      }
      return;
    case Kernel::kValue:
      Narrow(sel, dense, n, [&](uint32_t r) {
        return p.predicate.Matches(col.ValueAt(r));
      });
      return;
  }
}

}  // namespace

Result<BoundPredicate> BindPredicate(const Table& table, const Predicate& pred) {
  SQUID_ASSIGN_OR_RETURN(const Column* col, table.ColumnByName(pred.column.attribute));
  BoundPredicate bound;
  bound.column = col;
  bound.predicate = pred;
  switch (col->type()) {
    case ValueType::kString:
      CompileString(&bound);
      break;
    case ValueType::kInt64:
    case ValueType::kDouble:
      CompileNumeric(&bound);
      break;
    case ValueType::kNull:
      break;  // Value path
  }
  return bound;
}

std::vector<uint32_t> FilterRows(const Table& table,
                                 const std::vector<BoundPredicate>& preds,
                                 size_t* rows_visited) {
  const size_t n = table.num_rows();
  std::vector<uint32_t> out;
  if (preds.empty()) {
    // No predicates: the scan is pruned entirely; nothing is "visited".
    out.resize(n);
    std::iota(out.begin(), out.end(), 0u);
    return out;
  }
  if (rows_visited) *rows_visited += n;
  // The first pass writes the dense row range straight into `out`; each
  // later pass compacts the survivors in place, so ids stay ascending.
  // Typed kernels run first so the Value path sees the fewest rows.
  out.resize(n);
  bool dense = true;
  for (bool value_path : {false, true}) {
    for (const BoundPredicate& p : preds) {
      if ((p.kernel == Kernel::kValue) != value_path) continue;
      if (!dense && out.empty()) return out;
      RunKernel(p, &out, dense, n);
      dense = false;
    }
  }
  return out;
}

}  // namespace squid
