#include "sql/parser.h"

#include <cstdlib>

#include "sql/lexer.h"

namespace squid {

namespace {

/// Parser state over the token stream.
class Parser {
 public:
  Parser(const std::string& sql, std::vector<Token> tokens)
      : sql_(sql), tokens_(std::move(tokens)) {}

  Result<Query> ParseQuery() {
    Query query;
    SQUID_ASSIGN_OR_RETURN(SelectQuery first, ParseSelectBlock());
    query.branches.push_back(std::move(first));
    while (Peek().IsKeyword("INTERSECT")) {
      Advance();
      SQUID_ASSIGN_OR_RETURN(SelectQuery next, ParseSelectBlock());
      query.branches.push_back(std::move(next));
    }
    SQUID_RETURN_NOT_OK(ExpectEnd());
    return query;
  }

  Result<SelectQuery> ParseSingleSelect() {
    SQUID_ASSIGN_OR_RETURN(SelectQuery q, ParseSelectBlock());
    SQUID_RETURN_NOT_OK(ExpectEnd());
    return q;
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& Advance() { return tokens_[pos_++]; }

  Status Error(const std::string& msg) const {
    return Status::InvalidArgument("SQL parse error at position " +
                                   std::to_string(Peek().position) + ": " + msg);
  }

  Status ExpectKeyword(const char* kw) {
    if (!Peek().IsKeyword(kw)) return Error(std::string("expected ") + kw);
    Advance();
    return Status::OK();
  }

  Status ExpectSymbol(const char* sym) {
    if (!Peek().IsSymbol(sym)) return Error(std::string("expected '") + sym + "'");
    Advance();
    return Status::OK();
  }

  Status ExpectEnd() {
    if (Peek().type != TokenType::kEnd) return Error("trailing tokens");
    return Status::OK();
  }

  Result<SelectQuery> ParseSelectBlock() {
    SelectQuery q;
    SQUID_RETURN_NOT_OK(ExpectKeyword("SELECT"));
    if (Peek().IsKeyword("DISTINCT")) {
      Advance();
      q.distinct = true;
    }
    // Select list.
    while (true) {
      SQUID_ASSIGN_OR_RETURN(ColumnRef col, ParseColumn());
      q.select_list.push_back(SelectItem{std::move(col)});
      if (Peek().IsSymbol(",")) {
        Advance();
        continue;
      }
      break;
    }
    SQUID_RETURN_NOT_OK(ExpectKeyword("FROM"));
    while (true) {
      if (Peek().type != TokenType::kIdentifier) return Error("expected table name");
      TableRef ref;
      ref.table_name = Advance().text;
      ref.alias = ref.table_name;
      if (Peek().IsKeyword("AS")) {
        Advance();
        if (Peek().type != TokenType::kIdentifier) return Error("expected alias");
        ref.alias = Advance().text;
      } else if (Peek().type == TokenType::kIdentifier) {
        ref.alias = Advance().text;
      }
      q.from.push_back(std::move(ref));
      if (Peek().IsSymbol(",")) {
        Advance();
        continue;
      }
      break;
    }
    if (Peek().IsKeyword("WHERE")) {
      Advance();
      while (true) {
        SQUID_RETURN_NOT_OK(ParseConjunct(&q));
        if (Peek().IsKeyword("AND")) {
          Advance();
          continue;
        }
        break;
      }
    }
    if (Peek().IsKeyword("GROUP")) {
      Advance();
      SQUID_RETURN_NOT_OK(ExpectKeyword("BY"));
      while (true) {
        SQUID_ASSIGN_OR_RETURN(ColumnRef col, ParseColumn());
        q.group_by.push_back(std::move(col));
        if (Peek().IsSymbol(",")) {
          Advance();
          continue;
        }
        break;
      }
    }
    if (Peek().IsKeyword("HAVING")) {
      Advance();
      SQUID_RETURN_NOT_OK(ExpectKeyword("COUNT"));
      SQUID_RETURN_NOT_OK(ExpectSymbol("("));
      SQUID_RETURN_NOT_OK(ExpectSymbol("*"));
      SQUID_RETURN_NOT_OK(ExpectSymbol(")"));
      SQUID_ASSIGN_OR_RETURN(CompareOp op, ParseCompareOp());
      SQUID_ASSIGN_OR_RETURN(Value v, ParseLiteral());
      SQUID_ASSIGN_OR_RETURN(double num, v.ToNumeric());
      q.having = HavingCount{op, num};
    }
    SQUID_RETURN_NOT_OK(ResolveUnqualified(&q));
    return q;
  }

  /// Parses `alias.attr` or bare `attr` (alias filled in later).
  Result<ColumnRef> ParseColumn() {
    if (Peek().type != TokenType::kIdentifier) return Error("expected column");
    ColumnRef col;
    std::string first = Advance().text;
    if (Peek().IsSymbol(".")) {
      Advance();
      // After `alias.` a keyword is an attribute name (the αDB's derived
      // relations have a `count` column); keep its spelling from the source,
      // since the lexer upper-cases keywords.
      const Token& attr = Peek();
      if (attr.type == TokenType::kIdentifier) {
        col.attribute = attr.text;
      } else if (attr.type == TokenType::kKeyword) {
        col.attribute = sql_.substr(attr.position, attr.text.size());
      } else {
        return Error("expected attribute");
      }
      Advance();
      col.table_alias = first;
    } else {
      col.attribute = first;  // unqualified; resolved at block end
    }
    return col;
  }

  Result<CompareOp> ParseCompareOp() {
    const Token& t = Peek();
    if (t.type != TokenType::kSymbol) return Error("expected comparison operator");
    CompareOp op;
    if (t.text == "=") op = CompareOp::kEq;
    else if (t.text == "!=") op = CompareOp::kNe;
    else if (t.text == "<") op = CompareOp::kLt;
    else if (t.text == "<=") op = CompareOp::kLe;
    else if (t.text == ">") op = CompareOp::kGt;
    else if (t.text == ">=") op = CompareOp::kGe;
    else return Error("unknown operator '" + t.text + "'");
    Advance();
    return op;
  }

  Result<Value> ParseLiteral() {
    const Token& t = Peek();
    switch (t.type) {
      case TokenType::kInteger: {
        int64_t v = std::strtoll(t.text.c_str(), nullptr, 10);
        Advance();
        return Value(v);
      }
      case TokenType::kFloat: {
        double v = std::strtod(t.text.c_str(), nullptr);
        Advance();
        return Value(v);
      }
      case TokenType::kString: {
        std::string s = t.text;
        Advance();
        return Value(std::move(s));
      }
      case TokenType::kKeyword:
        if (t.text == "NULL") {
          Advance();
          return Value::Null();
        }
        if (t.text == "NAN") {
          return Error(
              "NaN has no SQL literal; a NaN constant cannot be written in a "
              "query");
        }
        [[fallthrough]];
      default:
        return Error("expected literal");
    }
  }

  Status ParseConjunct(SelectQuery* q) {
    SQUID_ASSIGN_OR_RETURN(ColumnRef left, ParseColumn());
    if (Peek().IsKeyword("BETWEEN")) {
      Advance();
      SQUID_ASSIGN_OR_RETURN(Value lo, ParseLiteral());
      SQUID_RETURN_NOT_OK(ExpectKeyword("AND"));
      SQUID_ASSIGN_OR_RETURN(Value hi, ParseLiteral());
      q->where.push_back(Predicate::Between(std::move(left), std::move(lo), std::move(hi)));
      return Status::OK();
    }
    if (Peek().IsKeyword("IN")) {
      Advance();
      SQUID_RETURN_NOT_OK(ExpectSymbol("("));
      std::vector<Value> values;
      while (true) {
        SQUID_ASSIGN_OR_RETURN(Value v, ParseLiteral());
        values.push_back(std::move(v));
        if (Peek().IsSymbol(",")) {
          Advance();
          continue;
        }
        break;
      }
      SQUID_RETURN_NOT_OK(ExpectSymbol(")"));
      q->where.push_back(Predicate::InList(std::move(left), std::move(values)));
      return Status::OK();
    }
    SQUID_ASSIGN_OR_RETURN(CompareOp op, ParseCompareOp());
    // Either a join / anti-join (column on the right) or a selection
    // (literal on the right).
    if (Peek().type == TokenType::kIdentifier) {
      SQUID_ASSIGN_OR_RETURN(ColumnRef right, ParseColumn());
      if (op == CompareOp::kEq) {
        q->join_predicates.push_back(
            JoinPredicate{std::move(left), std::move(right)});
      } else if (op == CompareOp::kNe) {
        q->anti_join_predicates.push_back(
            AntiJoinPredicate{std::move(left), std::move(right)});
      } else {
        return Error("column-column conditions must use '=' or '!='");
      }
      return Status::OK();
    }
    SQUID_ASSIGN_OR_RETURN(Value v, ParseLiteral());
    q->where.push_back(Predicate::Compare(std::move(left), op, std::move(v)));
    return Status::OK();
  }

  /// Fills empty table_alias fields; only legal with a single FROM table.
  Status ResolveUnqualified(SelectQuery* q) {
    auto resolve = [&](ColumnRef* col) -> Status {
      if (!col->table_alias.empty()) return Status::OK();
      if (q->from.size() != 1) {
        return Status::InvalidArgument("unqualified column '" + col->attribute +
                                       "' with multiple FROM tables");
      }
      col->table_alias = q->from[0].alias;
      return Status::OK();
    };
    for (auto& item : q->select_list) SQUID_RETURN_NOT_OK(resolve(&item.column));
    for (auto& p : q->where) SQUID_RETURN_NOT_OK(resolve(&p.column));
    for (auto& j : q->join_predicates) {
      SQUID_RETURN_NOT_OK(resolve(&j.left));
      SQUID_RETURN_NOT_OK(resolve(&j.right));
    }
    for (auto& j : q->anti_join_predicates) {
      SQUID_RETURN_NOT_OK(resolve(&j.left));
      SQUID_RETURN_NOT_OK(resolve(&j.right));
    }
    for (auto& g : q->group_by) SQUID_RETURN_NOT_OK(resolve(&g));
    return Status::OK();
  }

  const std::string& sql_;
  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

Result<Query> ParseQuery(const std::string& sql) {
  SQUID_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  Parser parser(sql, std::move(tokens));
  return parser.ParseQuery();
}

Result<SelectQuery> ParseSelect(const std::string& sql) {
  SQUID_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  Parser parser(sql, std::move(tokens));
  return parser.ParseSingleSelect();
}

}  // namespace squid
