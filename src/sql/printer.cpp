#include "sql/printer.h"

#include <cmath>

namespace squid {

namespace {

std::string HavingValueString(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 9.2e18) {
    return std::to_string(static_cast<int64_t>(v));
  }
  return Value(v).ToSqlLiteral();
}

}  // namespace

std::string ToSql(const SelectQuery& query, const SqlPrintOptions& opts) {
  const char* sep = opts.multiline ? "\n" : " ";
  std::string sql = "SELECT ";
  if (query.distinct) sql += "DISTINCT ";
  for (size_t i = 0; i < query.select_list.size(); ++i) {
    if (i > 0) sql += ", ";
    sql += query.select_list[i].column.ToString();
  }
  sql += sep;
  sql += "FROM ";
  for (size_t i = 0; i < query.from.size(); ++i) {
    if (i > 0) sql += ", ";
    sql += query.from[i].table_name;
    if (query.from[i].alias != query.from[i].table_name) {
      sql += " AS " + query.from[i].alias;
    }
  }
  bool first = true;
  auto add_condition = [&](const std::string& cond) {
    if (first) {
      sql += sep;
      sql += "WHERE ";
      first = false;
    } else {
      sql += sep;
      sql += "  AND ";
    }
    sql += cond;
  };
  for (const auto& j : query.join_predicates) {
    add_condition(j.left.ToString() + " = " + j.right.ToString());
  }
  for (const auto& j : query.anti_join_predicates) {
    add_condition(j.left.ToString() + " != " + j.right.ToString());
  }
  for (const auto& p : query.where) {
    add_condition(p.ToString());
  }
  if (!query.group_by.empty()) {
    sql += sep;
    sql += "GROUP BY ";
    for (size_t i = 0; i < query.group_by.size(); ++i) {
      if (i > 0) sql += ", ";
      sql += query.group_by[i].ToString();
    }
  }
  if (query.having) {
    sql += sep;
    sql += "HAVING count(*) ";
    sql += CompareOpSymbol(query.having->op);
    sql += " ";
    sql += HavingValueString(query.having->value);
  }
  return sql;
}

std::string ToSql(const Query& query, const SqlPrintOptions& opts) {
  std::string sql;
  for (size_t i = 0; i < query.branches.size(); ++i) {
    if (i > 0) sql += opts.multiline ? "\nINTERSECT\n" : " INTERSECT ";
    sql += ToSql(query.branches[i], opts);
  }
  return sql;
}

}  // namespace squid
