#include <gtest/gtest.h>

#include <limits>

#include "sql/ast.h"
#include "sql/lexer.h"
#include "sql/parser.h"
#include "sql/printer.h"

namespace squid {
namespace {

// ---------- Lexer ----------

TEST(LexerTest, KeywordsAndIdentifiers) {
  auto tokens = Tokenize("SELECT name FROM person");
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens.value().size(), 5u);  // incl. end
  EXPECT_TRUE(tokens.value()[0].IsKeyword("SELECT"));
  EXPECT_EQ(tokens.value()[1].type, TokenType::kIdentifier);
  EXPECT_EQ(tokens.value()[1].text, "name");
  EXPECT_TRUE(tokens.value()[2].IsKeyword("FROM"));
  EXPECT_EQ(tokens.value()[4].type, TokenType::kEnd);
}

TEST(LexerTest, KeywordsAreCaseInsensitive) {
  auto tokens = Tokenize("select From wHeRe");
  ASSERT_TRUE(tokens.ok());
  EXPECT_TRUE(tokens.value()[0].IsKeyword("SELECT"));
  EXPECT_TRUE(tokens.value()[1].IsKeyword("FROM"));
  EXPECT_TRUE(tokens.value()[2].IsKeyword("WHERE"));
}

TEST(LexerTest, NumbersAndStrings) {
  auto tokens = Tokenize("42 -7 3.5 'it''s'");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ(tokens.value()[0].type, TokenType::kInteger);
  EXPECT_EQ(tokens.value()[1].text, "-7");
  EXPECT_EQ(tokens.value()[2].type, TokenType::kFloat);
  EXPECT_EQ(tokens.value()[3].type, TokenType::kString);
  EXPECT_EQ(tokens.value()[3].text, "it's");
}

TEST(LexerTest, ExponentLiterals) {
  auto tokens = Tokenize("1e+20 2.5e-07 -3E2 7e x");
  ASSERT_TRUE(tokens.ok());
  const auto& t = tokens.value();
  EXPECT_EQ(t[0].type, TokenType::kFloat);
  EXPECT_EQ(t[0].text, "1e+20");
  EXPECT_EQ(t[1].text, "2.5e-07");
  EXPECT_EQ(t[2].type, TokenType::kFloat);
  EXPECT_EQ(t[2].text, "-3E2");
  // A bare `e` without digits is not an exponent.
  EXPECT_EQ(t[3].type, TokenType::kInteger);
  EXPECT_EQ(t[4].type, TokenType::kIdentifier);
}

TEST(ParserTest, DoubleConstantsRoundTripExactly) {
  auto q = ParseSelect(
      "SELECT m.title FROM movie m WHERE m.rating BETWEEN 5.631771234 AND "
      "7.0 AND m.score >= 2.5e-07");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  auto again = ParseSelect(ToSql(q.value()));
  ASSERT_TRUE(again.ok()) << ToSql(q.value());
  const auto& w = again.value().where;
  ASSERT_EQ(w.size(), 2u);
  EXPECT_EQ(w[0].lo.type(), ValueType::kDouble);
  EXPECT_EQ(w[0].lo.AsDouble(), 5.631771234);
  EXPECT_EQ(w[0].hi.type(), ValueType::kDouble);
  EXPECT_EQ(w[0].hi.AsDouble(), 7.0);
  EXPECT_EQ(w[1].value.AsDouble(), 2.5e-07);
}

TEST(ParserTest, InfiniteConstantsRoundTripExactly) {
  // ±inf print as 1e999 / -1e999, which overflow back to exactly ±inf; the
  // old rendering `inf` re-parsed `m.rating = inf` as the join m.rating =
  // m.inf.
  const double inf = std::numeric_limits<double>::infinity();
  auto q = ParseSelect("SELECT m.title FROM movie m");
  ASSERT_TRUE(q.ok());
  const ColumnRef rating{"m", "rating"};
  q.value().where.push_back(Predicate::Compare(rating, CompareOp::kEq, Value(inf)));
  q.value().where.push_back(Predicate::Compare(rating, CompareOp::kLt, Value(-inf)));
  q.value().where.push_back(Predicate::Between(rating, Value(-inf), Value(inf)));
  q.value().where.push_back(Predicate::InList(rating, {Value(inf), Value(1.5)}));
  const std::string sql = ToSql(q.value());
  EXPECT_EQ(sql.find("inf"), std::string::npos) << sql;
  auto again = ParseSelect(sql);
  ASSERT_TRUE(again.ok()) << sql << ": " << again.status().ToString();
  EXPECT_TRUE(again.value().join_predicates.empty()) << sql;
  const auto& w = again.value().where;
  ASSERT_EQ(w.size(), 4u) << sql;
  EXPECT_EQ(w[0].value.AsDouble(), inf);
  EXPECT_EQ(w[1].value.AsDouble(), -inf);
  EXPECT_EQ(w[2].lo.AsDouble(), -inf);
  EXPECT_EQ(w[2].hi.AsDouble(), inf);
  EXPECT_EQ(w[3].in_list[0].AsDouble(), inf);
  EXPECT_EQ(ToSql(again.value()), sql);
}

TEST(ParserTest, NanConstantIsAnExplicitError) {
  // NaN has no literal: it prints as the keyword NAN, which the parser
  // rejects instead of reading `nan` as a column (a silent join).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(Value(nan).ToSqlLiteral(), "NAN");
  for (const Predicate& p :
       {Predicate::Compare(ColumnRef{"m", "rating"}, CompareOp::kEq, Value(nan)),
        Predicate::Between(ColumnRef{"m", "rating"}, Value(nan), Value(1.0)),
        Predicate::InList(ColumnRef{"m", "rating"}, {Value(2.0), Value(nan)})}) {
    auto q = ParseSelect("SELECT m.title FROM movie m");
    ASSERT_TRUE(q.ok());
    q.value().where.push_back(p);
    const std::string sql = ToSql(q.value());
    auto again = ParseSelect(sql);
    ASSERT_FALSE(again.ok()) << sql;
    EXPECT_NE(again.status().ToString().find("NaN"), std::string::npos)
        << again.status().ToString();
  }
  // The keyword still names an attribute after `alias.`.
  auto col = ParseSelect("SELECT m.nan FROM movie m WHERE m.nan = 1");
  ASSERT_TRUE(col.ok()) << col.status().ToString();
  EXPECT_EQ(col.value().select_list[0].column.attribute, "nan");
}

TEST(LexerTest, TwoCharOperators) {
  auto tokens = Tokenize("a >= 1 AND b <= 2 AND c != 3 AND d <> 4");
  ASSERT_TRUE(tokens.ok());
  int ne_count = 0;
  for (const auto& t : tokens.value()) {
    if (t.IsSymbol("!=")) ++ne_count;
  }
  EXPECT_EQ(ne_count, 2);  // <> normalizes to !=
}

TEST(LexerTest, Errors) {
  EXPECT_FALSE(Tokenize("'unterminated").ok());
  EXPECT_FALSE(Tokenize("a @ b").ok());
}

// ---------- Parser ----------

TEST(ParserTest, MinimalSelect) {
  auto q = ParseSelect("SELECT name FROM person");
  ASSERT_TRUE(q.ok());
  EXPECT_FALSE(q.value().distinct);
  ASSERT_EQ(q.value().select_list.size(), 1u);
  EXPECT_EQ(q.value().select_list[0].column.table_alias, "person");
  EXPECT_EQ(q.value().select_list[0].column.attribute, "name");
}

TEST(ParserTest, DistinctAndAliases) {
  auto q = ParseSelect("SELECT DISTINCT p.name FROM person AS p");
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(q.value().distinct);
  EXPECT_EQ(q.value().from[0].alias, "p");
}

TEST(ParserTest, ImplicitAlias) {
  auto q = ParseSelect("SELECT p.name FROM person p");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q.value().from[0].alias, "p");
}

TEST(ParserTest, JoinsAndSelections) {
  auto q = ParseSelect(
      "SELECT a.name FROM academics a, research r "
      "WHERE r.aid = a.id AND r.interest = 'data management'");
  ASSERT_TRUE(q.ok());
  ASSERT_EQ(q.value().join_predicates.size(), 1u);
  EXPECT_EQ(q.value().join_predicates[0].left.table_alias, "r");
  ASSERT_EQ(q.value().where.size(), 1u);
  EXPECT_EQ(q.value().where[0].value.AsString(), "data management");
}

TEST(ParserTest, AntiJoin) {
  auto q = ParseSelect(
      "SELECT a.name FROM author a, author b WHERE a.id != b.id");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q.value().anti_join_predicates.size(), 1u);
}

TEST(ParserTest, BetweenAndIn) {
  auto q = ParseSelect(
      "SELECT p.name FROM person p WHERE p.age BETWEEN 30 AND 40 "
      "AND p.gender IN ('Male', 'Female')");
  ASSERT_TRUE(q.ok());
  ASSERT_EQ(q.value().where.size(), 2u);
  EXPECT_EQ(q.value().where[0].kind, Predicate::Kind::kBetween);
  EXPECT_EQ(q.value().where[1].kind, Predicate::Kind::kInList);
  EXPECT_EQ(q.value().where[1].in_list.size(), 2u);
}

TEST(ParserTest, GroupByHaving) {
  auto q = ParseSelect(
      "SELECT p.name FROM person p, castinfo c WHERE c.person_id = p.id "
      "GROUP BY p.id HAVING count(*) >= 40");
  ASSERT_TRUE(q.ok());
  ASSERT_EQ(q.value().group_by.size(), 1u);
  ASSERT_TRUE(q.value().having.has_value());
  EXPECT_EQ(q.value().having->op, CompareOp::kGe);
  EXPECT_EQ(q.value().having->value, 40);
}

TEST(ParserTest, Intersect) {
  auto q = ParseQuery(
      "SELECT m.title FROM movie m INTERSECT SELECT m.title FROM movie m");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q.value().branches.size(), 2u);
}

TEST(ParserTest, UnqualifiedColumnsRequireSingleTable) {
  EXPECT_TRUE(ParseSelect("SELECT name FROM person WHERE age >= 5").ok());
  EXPECT_FALSE(ParseSelect("SELECT name FROM person, movie").ok());
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(ParseSelect("SELECT FROM person").ok());
  EXPECT_FALSE(ParseSelect("SELECT a FROM").ok());
  EXPECT_FALSE(ParseSelect("SELECT a.b FROM t WHERE a.b >").ok());
  EXPECT_FALSE(ParseSelect("SELECT a.b FROM t trailing junk tokens").ok());
  EXPECT_FALSE(ParseSelect("SELECT a.b FROM t WHERE a.b < c.d").ok());
}

TEST(ParserTest, KeywordAttributeAfterAliasDot) {
  // The αDB's derived relations carry a `count` column; `count` lexes as a
  // keyword, but after `alias.` it names an attribute, spelled as written.
  auto q = ParseSelect(
      "SELECT DISTINCT p.name FROM person AS p, person_genre AS d "
      "WHERE d.entity_id = p.id AND d.value = 'Comedy' AND d.count >= 3 "
      "AND d.Count <= 9");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q.value().where.size(), 3u);
  EXPECT_EQ(q.value().where[1].column.table_alias, "d");
  EXPECT_EQ(q.value().where[1].column.attribute, "count");
  EXPECT_EQ(q.value().where[2].column.attribute, "Count");
  auto joined = ParseSelect("SELECT a.x FROM a, b WHERE a.count = b.count");
  ASSERT_TRUE(joined.ok()) << joined.status().ToString();
  ASSERT_EQ(joined.value().join_predicates.size(), 1u);
  EXPECT_EQ(joined.value().join_predicates[0].right.attribute, "count");
  // A bare keyword is still not a column.
  EXPECT_FALSE(ParseSelect("SELECT count FROM person").ok());
}

// ---------- Printer round-trips ----------

class RoundTripTest : public ::testing::TestWithParam<const char*> {};

TEST_P(RoundTripTest, ParsePrintParseIsStable) {
  auto q1 = ParseQuery(GetParam());
  ASSERT_TRUE(q1.ok()) << GetParam();
  std::string sql1 = ToSql(q1.value());
  auto q2 = ParseQuery(sql1);
  ASSERT_TRUE(q2.ok()) << sql1;
  EXPECT_EQ(sql1, ToSql(q2.value()));
}

INSTANTIATE_TEST_SUITE_P(
    Queries, RoundTripTest,
    ::testing::Values(
        "SELECT name FROM person",
        "SELECT DISTINCT p.name FROM person AS p",
        "SELECT a.name FROM academics a, research r WHERE r.aid = a.id AND "
        "r.interest = 'data management'",
        "SELECT p.name FROM person p WHERE p.age BETWEEN 30 AND 40",
        "SELECT p.name FROM person p WHERE p.gender IN ('Male', 'Female')",
        "SELECT p.name FROM person p, castinfo c WHERE c.person_id = p.id "
        "GROUP BY p.id HAVING count(*) >= 40",
        "SELECT m.title FROM movie m INTERSECT SELECT m.title FROM movie m",
        "SELECT a.name FROM author a, author b WHERE a.id != b.id",
        "SELECT DISTINCT p.name FROM person AS p, person_genre AS d WHERE "
        "d.entity_id = p.id AND d.value = 'Comedy' AND d.count >= 3"));

// ---------- Predicates ----------

TEST(PredicateTest, CompareMatches) {
  Predicate p = Predicate::Compare({"t", "a"}, CompareOp::kGe,
                                   Value(static_cast<int64_t>(10)));
  EXPECT_TRUE(p.Matches(Value(static_cast<int64_t>(10))));
  EXPECT_TRUE(p.Matches(Value(11.0)));
  EXPECT_FALSE(p.Matches(Value(static_cast<int64_t>(9))));
  EXPECT_FALSE(p.Matches(Value::Null()));  // NULL never matches
}

TEST(PredicateTest, BetweenMatchesInclusive) {
  Predicate p = Predicate::Between({"t", "a"}, Value(static_cast<int64_t>(1)),
                                   Value(static_cast<int64_t>(3)));
  EXPECT_TRUE(p.Matches(Value(static_cast<int64_t>(1))));
  EXPECT_TRUE(p.Matches(Value(static_cast<int64_t>(3))));
  EXPECT_FALSE(p.Matches(Value(static_cast<int64_t>(4))));
  EXPECT_EQ(p.PrimitiveCount(), 2u);
}

TEST(PredicateTest, InListMatches) {
  Predicate p = Predicate::InList({"t", "a"}, {Value("x"), Value("y")});
  EXPECT_TRUE(p.Matches(Value("x")));
  EXPECT_FALSE(p.Matches(Value("z")));
  EXPECT_EQ(p.PrimitiveCount(), 2u);
}

TEST(PredicateTest, EvalCompareAllOps) {
  Value a(static_cast<int64_t>(1)), b(static_cast<int64_t>(2));
  EXPECT_TRUE(EvalCompare(a, CompareOp::kLt, b));
  EXPECT_TRUE(EvalCompare(a, CompareOp::kLe, a));
  EXPECT_TRUE(EvalCompare(b, CompareOp::kGt, a));
  EXPECT_TRUE(EvalCompare(b, CompareOp::kGe, b));
  EXPECT_TRUE(EvalCompare(a, CompareOp::kEq, a));
  EXPECT_TRUE(EvalCompare(a, CompareOp::kNe, b));
  EXPECT_FALSE(EvalCompare(Value::Null(), CompareOp::kEq, Value::Null()));
}

TEST(QueryTest, NumPredicatesCountsJoinsSelectionsHaving) {
  auto q = ParseQuery(
      "SELECT p.name FROM person p, castinfo c WHERE c.person_id = p.id AND "
      "p.age BETWEEN 1 AND 2 GROUP BY p.id HAVING count(*) >= 3");
  ASSERT_TRUE(q.ok());
  // 1 join + 2 (between) + 1 (having) = 4.
  EXPECT_EQ(q.value().NumPredicates(), 4u);
}

TEST(PrinterTest, MultilineRendering) {
  auto q = ParseSelect("SELECT a.b FROM t a WHERE a.b = 1");
  ASSERT_TRUE(q.ok());
  std::string sql = ToSql(q.value(), {.multiline = true});
  EXPECT_NE(sql.find('\n'), std::string::npos);
}

}  // namespace
}  // namespace squid
