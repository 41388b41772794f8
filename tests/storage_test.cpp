#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <limits>
#include <map>
#include <set>
#include <tuple>

#include "common/strings.h"
#include "storage/column_index.h"
#include "storage/csv.h"
#include "storage/database.h"
#include "storage/inverted_index.h"
#include "tests/test_util.h"

namespace squid {
namespace {

// ---------- Value ----------

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_EQ(Value().type(), ValueType::kNull);
  EXPECT_EQ(Value(static_cast<int64_t>(3)).type(), ValueType::kInt64);
  EXPECT_EQ(Value(3.5).type(), ValueType::kDouble);
  EXPECT_EQ(Value("x").type(), ValueType::kString);
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value(static_cast<int64_t>(3)).AsInt64(), 3);
  EXPECT_EQ(Value(3.5).AsDouble(), 3.5);
  EXPECT_EQ(Value("x").AsString(), "x");
}

TEST(ValueTest, NumericCrossTypeEquality) {
  EXPECT_EQ(Value(static_cast<int64_t>(2)), Value(2.0));
  EXPECT_LT(Value(static_cast<int64_t>(2)).Compare(Value(2.5)), 0);
  EXPECT_GT(Value(3.5).Compare(Value(static_cast<int64_t>(3))), 0);
}

TEST(ValueTest, NumericCrossTypeHashAgreesWithEquality) {
  EXPECT_EQ(Value(static_cast<int64_t>(7)).Hash(), Value(7.0).Hash());
}

TEST(ValueTest, NullSortsFirst) {
  EXPECT_LT(Value::Null().Compare(Value(static_cast<int64_t>(-100))), 0);
  EXPECT_LT(Value::Null().Compare(Value("")), 0);
  EXPECT_EQ(Value::Null().Compare(Value::Null()), 0);
}

TEST(ValueTest, NumbersSortBeforeStrings) {
  EXPECT_LT(Value(static_cast<int64_t>(999)).Compare(Value("a")), 0);
}

TEST(ValueTest, StringComparison) {
  EXPECT_LT(Value("abc").Compare(Value("abd")), 0);
  EXPECT_EQ(Value("abc").Compare(Value("abc")), 0);
}

TEST(ValueTest, ToStringRendering) {
  EXPECT_EQ(Value::Null().ToString(), "NULL");
  EXPECT_EQ(Value(static_cast<int64_t>(42)).ToString(), "42");
  EXPECT_EQ(Value("hi").ToString(), "hi");
}

TEST(ValueTest, SqlLiteralQuotesAndEscapes) {
  EXPECT_EQ(Value("it's").ToSqlLiteral(), "'it''s'");
  EXPECT_EQ(Value(static_cast<int64_t>(5)).ToSqlLiteral(), "5");
}

TEST(ValueTest, SqlLiteralDoublesRoundTrip) {
  // Six-digit %g would print 5.63177 and move a range bound.
  EXPECT_EQ(Value(5.631771234).ToSqlLiteral(), "5.631771234");
  EXPECT_EQ(Value(5.0).ToSqlLiteral(), "5.0");  // stays a double literal
  EXPECT_EQ(Value(-0.0).ToSqlLiteral(), "-0.0");
  EXPECT_EQ(Value(1e20).ToSqlLiteral(), "1e+20");
  EXPECT_EQ(Value(2.5e-7).ToSqlLiteral(), "2.5e-07");
  EXPECT_EQ(Value(std::numeric_limits<double>::infinity()).ToSqlLiteral(), "1e999");
  EXPECT_EQ(Value(-std::numeric_limits<double>::infinity()).ToSqlLiteral(), "-1e999");
}

TEST(ValueTest, ToNumeric) {
  EXPECT_EQ(Value(static_cast<int64_t>(4)).ToNumeric().value(), 4.0);
  EXPECT_EQ(Value(4.5).ToNumeric().value(), 4.5);
  EXPECT_FALSE(Value("x").ToNumeric().ok());
  EXPECT_FALSE(Value::Null().ToNumeric().ok());
}

// ---------- Schema ----------

TEST(SchemaTest, AttributeLookup) {
  Schema s("t", {{"a", ValueType::kInt64}, {"b", ValueType::kString}});
  EXPECT_EQ(*s.FindAttribute("b"), 1u);
  EXPECT_FALSE(s.FindAttribute("c").has_value());
  EXPECT_TRUE(s.AttributeIndex("a").ok());
  EXPECT_FALSE(s.AttributeIndex("z").ok());
}

TEST(SchemaTest, MetadataRoundTrip) {
  Schema s("t", {{"id", ValueType::kInt64}});
  s.set_primary_key("id");
  s.set_entity(true);
  s.AddPropertyAttribute("id");
  s.AddForeignKey({"id", "other", "id"});
  s.AddTextSearchAttribute("id");
  EXPECT_EQ(*s.primary_key(), "id");
  EXPECT_TRUE(s.is_entity());
  EXPECT_EQ(s.property_attributes().size(), 1u);
  EXPECT_EQ(s.foreign_keys().size(), 1u);
  EXPECT_EQ(s.text_search_attributes().size(), 1u);
}

// ---------- Table / Column ----------

TEST(TableTest, AppendAndReadBack) {
  Schema s("t", {{"i", ValueType::kInt64},
                 {"d", ValueType::kDouble},
                 {"s", ValueType::kString}});
  Table t(s);
  ASSERT_TRUE(t.AppendRow({Value(static_cast<int64_t>(1)), Value(2.5), Value("x")}).ok());
  ASSERT_TRUE(t.AppendRow({Value::Null(), Value::Null(), Value::Null()}).ok());
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.ValueAt(0, 0).AsInt64(), 1);
  EXPECT_EQ(t.ValueAt(0, 1).AsDouble(), 2.5);
  EXPECT_EQ(t.ValueAt(0, 2).AsString(), "x");
  EXPECT_TRUE(t.ValueAt(1, 0).is_null());
  EXPECT_TRUE(t.column(1).IsNull(1));
}

TEST(TableTest, IntWidensToDoubleColumn) {
  Schema s("t", {{"d", ValueType::kDouble}});
  Table t(s);
  ASSERT_TRUE(t.AppendRow({Value(static_cast<int64_t>(3))}).ok());
  EXPECT_EQ(t.ValueAt(0, 0).AsDouble(), 3.0);
}

TEST(TableTest, TypeMismatchRejected) {
  Schema s("t", {{"i", ValueType::kInt64}});
  Table t(s);
  EXPECT_FALSE(t.AppendRow({Value("nope")}).ok());
  EXPECT_FALSE(t.AppendRow({Value(1.5)}).ok());
}

TEST(TableTest, ArityMismatchRejected) {
  Schema s("t", {{"a", ValueType::kInt64}, {"b", ValueType::kInt64}});
  Table t(s);
  EXPECT_FALSE(t.AppendRow({Value(static_cast<int64_t>(1))}).ok());
}

TEST(TableTest, RowValuesMaterializesWholeRow) {
  Schema s("t", {{"a", ValueType::kInt64}, {"b", ValueType::kString}});
  Table t(s);
  ASSERT_TRUE(t.AppendRow({Value(static_cast<int64_t>(7)), Value("y")}).ok());
  auto row = t.RowValues(0);
  ASSERT_EQ(row.size(), 2u);
  EXPECT_EQ(row[0].AsInt64(), 7);
  EXPECT_EQ(row[1].AsString(), "y");
}

TEST(TableTest, ColumnByNameErrors) {
  Schema s("t", {{"a", ValueType::kInt64}});
  Table t(s);
  EXPECT_TRUE(t.ColumnByName("a").ok());
  EXPECT_FALSE(t.ColumnByName("b").ok());
}

// ---------- Database ----------

TEST(DatabaseTest, AddGetDrop) {
  Database db("d");
  auto t = db.CreateTable(Schema("t", {{"a", ValueType::kInt64}}));
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(db.HasTable("t"));
  EXPECT_TRUE(db.GetTable("t").ok());
  EXPECT_FALSE(db.GetTable("u").ok());
  EXPECT_FALSE(db.CreateTable(Schema("t", {{"a", ValueType::kInt64}})).ok());
  EXPECT_TRUE(db.DropTable("t").ok());
  EXPECT_FALSE(db.DropTable("t").ok());
}

TEST(DatabaseTest, SharedTablesAliasBetweenDatabases) {
  Database a("a");
  auto t = a.CreateTable(Schema("t", {{"x", ValueType::kInt64}}));
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE(t.value()->AppendRow({Value(static_cast<int64_t>(1))}).ok());
  Database b("b");
  ASSERT_TRUE(b.AttachTable(a.GetShared("t").value()).ok());
  EXPECT_EQ(b.GetTable("t").value()->num_rows(), 1u);
  // Mutations through one handle are visible through the other.
  ASSERT_TRUE(t.value()->AppendRow({Value(static_cast<int64_t>(2))}).ok());
  EXPECT_EQ(b.GetTable("t").value()->num_rows(), 2u);
}

TEST(DatabaseTest, ForeignKeyValidationDetectsDangling) {
  auto db = testing::MakeAcademicsDb();
  EXPECT_TRUE(db->ValidateForeignKeys().ok());
  // Corrupt: a research row pointing at a missing academic.
  auto research = db->GetMutableTable("research");
  ASSERT_TRUE(research.ok());
  ASSERT_TRUE(research.value()
                  ->AppendRow({Value(static_cast<int64_t>(99)),
                               Value(static_cast<int64_t>(999)),
                               Value(static_cast<int64_t>(1))})
                  .ok());
  EXPECT_FALSE(db->ValidateForeignKeys().ok());
}

TEST(DatabaseTest, TotalsAndNames) {
  auto db = testing::MakeAcademicsDb();
  EXPECT_EQ(db->num_tables(), 3u);
  EXPECT_EQ(db->TableNames(),
            (std::vector<std::string>{"academics", "interest", "research"}));
  EXPECT_EQ(db->TotalRows(), 6u + 5u + 8u);
  EXPECT_GT(db->ApproxBytes(), 0u);
}

// ---------- Indexes ----------

TEST(SortedIndexTest, PointAndRangeLookups) {
  auto db = testing::MakeMoviesDb();
  const Table* movie = db->GetTable("movie").value();
  auto index = SortedColumnIndex::Build(*movie, "year");
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index.value().NumRows(), 6u);
  EXPECT_EQ(index.value().Lookup(Value(static_cast<int64_t>(2003))).size(), 1u);
  EXPECT_TRUE(index.value().Lookup(Value(static_cast<int64_t>(1900))).empty());
  // Range [1994, 2003]: 1994, 1996, 2001, 2003.
  auto rows = index.value().Range(Value(static_cast<int64_t>(1994)),
                                  Value(static_cast<int64_t>(2003)));
  EXPECT_EQ(rows.size(), 4u);
  // Unbounded range returns everything.
  EXPECT_EQ(index.value().Range(Value::Null(), Value::Null()).size(), 6u);
  EXPECT_EQ(index.value().MinValue().value().AsInt64(), 1994);
  EXPECT_EQ(index.value().MaxValue().value().AsInt64(), 2014);
}

TEST(SortedIndexTest, ExcludesNulls) {
  Schema s("t", {{"a", ValueType::kInt64}});
  Table t(s);
  ASSERT_TRUE(t.AppendRow({Value(static_cast<int64_t>(1))}).ok());
  ASSERT_TRUE(t.AppendRow({Value::Null()}).ok());
  auto index = SortedColumnIndex::Build(t, "a");
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index.value().NumRows(), 1u);
}

TEST(HashIndexTest, LookupPostings) {
  auto db = testing::MakeMoviesDb();
  const Table* cast = db->GetTable("castinfo").value();
  auto index = HashColumnIndex::Build(*cast, "person_id");
  ASSERT_TRUE(index.ok());
  const RowSpan rows = index.value().Lookup(Value(static_cast<int64_t>(2)));
  EXPECT_EQ(rows.size, 4u);  // Ewan appears in 4 movies
  EXPECT_TRUE(index.value().Lookup(Value(static_cast<int64_t>(42))).empty());
}

TEST(HashIndexTest, SpansMatchPerKeyRowLists) {
  // The flat index must hand back, for every key, exactly the ascending row
  // list a map of per-key vectors would hold — across string, int64 and
  // double columns with nulls, repeats, and -0.0 next to 0.0.
  Database db("spans");
  Table* t = db.CreateTable(Schema("t", {{"s", ValueType::kString},
                                         {"i", ValueType::kInt64},
                                         {"d", ValueType::kDouble}}))
                 .value();
  for (int64_t r = 0; r < 5000; ++r) {
    const int64_t k = (r * 7919) % 613;  // repeats, scattered over the rows
    const bool null = r % 11 == 0;
    const double d = k == 0 ? (r % 2 == 0 ? -0.0 : 0.0) : static_cast<double>(k) / 4;
    ASSERT_TRUE(t->AppendRow({null ? Value::Null() : Value("v" + std::to_string(k)),
                              null ? Value::Null() : Value(k - 300),
                              null ? Value::Null() : Value(d)})
                    .ok());
  }
  for (const char* attr : {"s", "i", "d"}) {
    auto index = HashColumnIndex::Build(*t, attr);
    ASSERT_TRUE(index.ok());
    const Column* col = t->ColumnByName(attr).value();
    std::map<uint64_t, std::vector<uint32_t>> expected;
    for (uint32_t r = 0; r < t->num_rows(); ++r) {
      uint64_t key = 0;
      if (PackCellKey(*col, r, &key)) expected[key].push_back(r);
    }
    EXPECT_EQ(index.value().NumDistinct(), expected.size()) << attr;
    for (const auto& [key, want] : expected) {
      const RowSpan packed = index.value().LookupPacked(key);
      EXPECT_EQ(std::vector<uint32_t>(packed.begin(), packed.end()), want) << attr;
      const RowSpan by_value = index.value().Lookup(col->ValueAt(want[0]));
      EXPECT_EQ(std::vector<uint32_t>(by_value.begin(), by_value.end()), want) << attr;
    }
    EXPECT_TRUE(index.value().Lookup(Value::Null()).empty()) << attr;
  }
}

TEST(HashIndexTest, CrossTypeProbesFollowValueEquality) {
  Database db("cross");
  Table* t = db.CreateTable(Schema("t", {{"i", ValueType::kInt64},
                                         {"d", ValueType::kDouble},
                                         {"s", ValueType::kString}}))
                 .value();
  ASSERT_TRUE(t->AppendRow({Value(int64_t{2}), Value(2.0), Value("x")}).ok());
  ASSERT_TRUE(t->AppendRow({Value(int64_t{0}), Value(-0.0), Value("y")}).ok());
  ASSERT_TRUE(t->AppendRow({Value(int64_t{2}), Value(2.5), Value("x")}).ok());
  auto by_int = HashColumnIndex::Build(*t, "i").value();
  auto by_double = HashColumnIndex::Build(*t, "d").value();
  auto by_string = HashColumnIndex::Build(*t, "s").value();
  auto rows = [](RowSpan span) {
    return std::vector<uint32_t>(span.begin(), span.end());
  };

  // Value probes: 2.0 finds int64 2, 2.5 finds nothing, 0.0 finds -0.0.
  EXPECT_EQ(rows(by_int.Lookup(Value(2.0))), (std::vector<uint32_t>{0, 2}));
  EXPECT_TRUE(by_int.Lookup(Value(2.5)).empty());
  EXPECT_TRUE(by_int.Lookup(Value(1e300)).empty());
  EXPECT_EQ(rows(by_double.Lookup(Value(int64_t{2}))), (std::vector<uint32_t>{0}));
  EXPECT_EQ(rows(by_double.Lookup(Value(0.0))), (std::vector<uint32_t>{1}));
  EXPECT_EQ(rows(by_double.Lookup(Value(int64_t{0}))), (std::vector<uint32_t>{1}));
  EXPECT_TRUE(by_string.Lookup(Value(int64_t{2})).empty());
  EXPECT_TRUE(by_int.Lookup(Value("x")).empty());
  EXPECT_TRUE(by_string.Lookup(Value("absent")).empty());
  EXPECT_EQ(rows(by_string.Lookup(Value("x"))), (std::vector<uint32_t>{0, 2}));

  // Packed probes from a column of either numeric type agree with the Value
  // probe of the same cell, and a type mismatch packs to nothing.
  const Column* i = t->ColumnByName("i").value();
  const Column* d = t->ColumnByName("d").value();
  const Column* s = t->ColumnByName("s").value();
  for (const HashColumnIndex* index : {&by_int, &by_double}) {
    for (const Column* probe : {i, d}) {
      for (uint32_t r = 0; r < t->num_rows(); ++r) {
        uint64_t key = 0;
        const bool packed = index->PackProbe(*probe, r, &key);
        const std::vector<uint32_t> want = rows(index->Lookup(probe->ValueAt(r)));
        EXPECT_EQ(packed ? rows(index->LookupPacked(key)) : std::vector<uint32_t>{},
                  want);
      }
    }
    uint64_t key = 0;
    EXPECT_FALSE(index->PackProbe(*s, 0, &key));
  }
}

// ---------- Inverted index ----------

TEST(InvertedIndexTest, CaseInsensitiveLookup) {
  auto db = testing::MakeAcademicsDb();
  auto index = InvertedColumnIndex::Build(*db);
  ASSERT_TRUE(index.ok());
  auto postings = index.value().Lookup("dan susic");
  ASSERT_EQ(postings.size(), 1u);
  EXPECT_EQ(index.value().RelationName(postings[0]), "academics");
  EXPECT_EQ(index.value().AttributeName(postings[0]), "name");
  EXPECT_EQ(index.value().Lookup("DAN SUSIC").size(), 1u);
  EXPECT_TRUE(index.value().Lookup("nobody").empty());
}

TEST(InvertedIndexTest, IndexesDeclaredTextAttributes) {
  auto db = testing::MakeAcademicsDb();
  auto index = InvertedColumnIndex::Build(*db);
  ASSERT_TRUE(index.ok());
  // interest.name is declared text-searchable.
  auto postings = index.value().Lookup("data management");
  ASSERT_FALSE(postings.empty());
  EXPECT_EQ(index.value().RelationName(postings[0]), "interest");
}

/// Naive reference: scans every indexed column for case-insensitive
/// matches of `text` and returns (relation, attribute, row) triples.
std::multiset<std::tuple<std::string, std::string, size_t>> NaiveScan(
    const Database& db, std::string_view text) {
  std::multiset<std::tuple<std::string, std::string, size_t>> out;
  std::string probe = ToLower(std::string(text));
  for (const std::string& name : db.TableNames()) {
    const Table* table = db.GetTable(name).value();
    std::vector<std::string> attrs = table->schema().text_search_attributes();
    if (attrs.empty() && table->schema().is_entity()) {
      for (const auto& a : table->schema().attributes()) {
        if (a.type == ValueType::kString) attrs.push_back(a.name);
      }
    }
    for (const std::string& attr : attrs) {
      const Column* col = table->ColumnByName(attr).value();
      if (col->type() != ValueType::kString) continue;
      for (size_t r = 0; r < col->size(); ++r) {
        if (col->IsNull(r)) continue;
        if (ToLower(col->StringAt(r)) == probe) out.emplace(name, attr, r);
      }
    }
  }
  return out;
}

TEST(InvertedIndexTest, CsrLookupMatchesNaiveScan) {
  auto db = testing::MakeAcademicsDb();
  // Exercise the edge keys the CSR build must keep distinct: the empty
  // string, a key with non-ASCII bytes (folding must only touch A-Z), and a
  // duplicate value spanning two relations.
  Table* academics = db->GetMutableTable("academics").value();
  ASSERT_TRUE(academics
                  ->AppendRow({Value(static_cast<int64_t>(100)), Value("")})
                  .ok());
  ASSERT_TRUE(academics
                  ->AppendRow({Value(static_cast<int64_t>(101)),
                               Value("Jalape\xc3\xb1o Pepper")})
                  .ok());
  ASSERT_TRUE(academics
                  ->AppendRow({Value(static_cast<int64_t>(102)),
                               Value("JALAPE\xc3\xb1O PEPPER")})
                  .ok());

  auto index = InvertedColumnIndex::Build(*db);
  ASSERT_TRUE(index.ok());

  // Every value occurring in the data, plus mixed-case and missing probes.
  std::vector<std::string> probes;
  for (const std::string& name : db->TableNames()) {
    const Table* table = db->GetTable(name).value();
    for (size_t c = 0; c < table->num_columns(); ++c) {
      const Column& col = table->column(c);
      if (col.type() != ValueType::kString) continue;
      for (size_t r = 0; r < col.size(); ++r) {
        if (!col.IsNull(r)) probes.emplace_back(col.StringAt(r));
      }
    }
  }
  probes.push_back("DAN susic");
  probes.push_back("jalape\xc3\xb1o pepper");
  probes.push_back("not in any table");
  probes.push_back("");

  size_t total_hits = 0;
  for (const std::string& probe : probes) {
    std::multiset<std::tuple<std::string, std::string, size_t>> got;
    for (const Posting& p : index.value().Lookup(probe)) {
      got.emplace(std::string(index.value().RelationName(p)),
                  std::string(index.value().AttributeName(p)), p.row);
    }
    EXPECT_EQ(got, NaiveScan(*db, probe)) << "probe '" << probe << "'";
    total_hits += got.size();
  }
  EXPECT_GT(total_hits, 0u);

  // The two Jalapeño spellings fold to one key (ASCII-only folding keeps
  // the UTF-8 bytes intact), so either spelling finds both rows.
  EXPECT_EQ(index.value().Lookup("jalape\xc3\xb1o PEPPER").size(), 2u);
  // A probe differing only in a non-ASCII byte is a different key.
  EXPECT_TRUE(index.value().Lookup("jalapeno pepper").empty());
}

TEST(InvertedIndexTest, PostingCountsSurviveCsrRebuild) {
  auto db = testing::MakeAcademicsDb();
  auto index = InvertedColumnIndex::Build(*db);
  ASSERT_TRUE(index.ok());
  // Postings across all keys must cover exactly the non-null cells of the
  // indexed columns.
  size_t cells = 0;
  for (const std::string& name : db->TableNames()) {
    const Table* table = db->GetTable(name).value();
    std::vector<std::string> attrs = table->schema().text_search_attributes();
    if (attrs.empty() && table->schema().is_entity()) {
      for (const auto& a : table->schema().attributes()) {
        if (a.type == ValueType::kString) attrs.push_back(a.name);
      }
    }
    for (const std::string& attr : attrs) {
      const Column* col = table->ColumnByName(attr).value();
      for (size_t r = 0; r < col->size(); ++r) {
        if (!col->IsNull(r)) ++cells;
      }
    }
  }
  EXPECT_EQ(index.value().NumPostings(), cells);
  EXPECT_GT(index.value().NumKeys(), 0u);
  EXPECT_LE(index.value().NumKeys(), index.value().NumPostings());
}

// ---------- CSV ----------

TEST(CsvTest, ParseLineHandlesQuoting) {
  auto fields = ParseCsvLine("a,\"b,c\",\"d\"\"e\",");
  ASSERT_TRUE(fields.ok());
  EXPECT_EQ(fields.value(),
            (std::vector<std::string>{"a", "b,c", "d\"e", ""}));
}

TEST(CsvTest, ParseLineRejectsMalformed) {
  EXPECT_FALSE(ParseCsvLine("\"unterminated").ok());
  EXPECT_FALSE(ParseCsvLine("ab\"cd").ok());
}

TEST(CsvTest, RoundTrip) {
  Schema s("t", {{"i", ValueType::kInt64},
                 {"d", ValueType::kDouble},
                 {"s", ValueType::kString}});
  Table t(s);
  ASSERT_TRUE(
      t.AppendRow({Value(static_cast<int64_t>(1)), Value(2.5), Value("a,b")}).ok());
  ASSERT_TRUE(t.AppendRow({Value::Null(), Value::Null(), Value("q\"x")}).ok());

  std::string path =
      (std::filesystem::temp_directory_path() / "squid_csv_test.csv").string();
  ASSERT_TRUE(WriteCsv(t, path).ok());
  auto loaded = ReadCsv(s, path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().num_rows(), 2u);
  EXPECT_EQ(loaded.value().ValueAt(0, 0).AsInt64(), 1);
  EXPECT_EQ(loaded.value().ValueAt(0, 2).AsString(), "a,b");
  EXPECT_TRUE(loaded.value().ValueAt(1, 0).is_null());
  EXPECT_EQ(loaded.value().ValueAt(1, 2).AsString(), "q\"x");
  std::remove(path.c_str());
}

TEST(CsvTest, QuotedSeparatorsCrlfAndEmptyTrailingFields) {
  std::string path =
      (std::filesystem::temp_directory_path() / "squid_csv_edge.csv").string();
  {
    FILE* f = fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    // CRLF line endings throughout; quoted separators and doubled quotes;
    // an empty trailing field (NULL) on the last row.
    fputs("name,note\r\n", f);
    fputs("\"Doe, Jane\",\"said \"\"hi\"\"\"\r\n", f);
    fputs("plain,\r\n", f);
    fclose(f);
  }
  Schema s("t", {{"name", ValueType::kString}, {"note", ValueType::kString}});
  auto loaded = ReadCsv(s, path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().num_rows(), 2u);
  EXPECT_EQ(loaded.value().ValueAt(0, 0).AsString(), "Doe, Jane");
  EXPECT_EQ(loaded.value().ValueAt(0, 1).AsString(), "said \"hi\"");
  EXPECT_EQ(loaded.value().ValueAt(1, 0).AsString(), "plain");
  EXPECT_TRUE(loaded.value().ValueAt(1, 1).is_null());
  std::remove(path.c_str());
}

TEST(CsvTest, QuotedEmbeddedNewlinesSpanPhysicalLines) {
  std::string path =
      (std::filesystem::temp_directory_path() / "squid_csv_nl.csv").string();
  {
    FILE* f = fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    // One logical record per quoted field spanning two physical lines; the
    // second uses CRLF, whose embedded \r\n normalizes to \n on read.
    fputs("id,text\n", f);
    fputs("1,\"line one\nline two\"\n", f);
    fputs("2,\"a\r\nb\"\r\n", f);
    fclose(f);
  }
  Schema s("t", {{"id", ValueType::kInt64}, {"text", ValueType::kString}});
  auto loaded = ReadCsv(s, path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded.value().num_rows(), 2u);
  EXPECT_EQ(loaded.value().ValueAt(0, 1).AsString(), "line one\nline two");
  EXPECT_EQ(loaded.value().ValueAt(1, 1).AsString(), "a\nb");
  std::remove(path.c_str());
}

TEST(CsvTest, EmbeddedNewlineValuesRoundTripThroughWrite) {
  Schema s("t", {{"s", ValueType::kString}});
  Table t(s);
  ASSERT_TRUE(t.AppendRow({Value("two\nlines")}).ok());
  ASSERT_TRUE(t.AppendRow({Value("cr\rhere")}).ok());
  std::string path =
      (std::filesystem::temp_directory_path() / "squid_csv_nl_rt.csv").string();
  ASSERT_TRUE(WriteCsv(t, path).ok());
  auto loaded = ReadCsv(s, path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded.value().num_rows(), 2u);
  EXPECT_EQ(loaded.value().ValueAt(0, 0).AsString(), "two\nlines");
  // A bare \r inside a quoted field only survives when it is not part of a
  // \r\n pair; WriteCsv quotes it, ReadCsv keeps it.
  EXPECT_EQ(loaded.value().ValueAt(1, 0).AsString(), "cr\rhere");
  std::remove(path.c_str());
}

TEST(CsvTest, UnterminatedQuoteAtEofIsCorruption) {
  std::string path =
      (std::filesystem::temp_directory_path() / "squid_csv_eof.csv").string();
  {
    FILE* f = fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    fputs("s\n\"never closed\n", f);
    fclose(f);
  }
  Schema s("t", {{"s", ValueType::kString}});
  auto loaded = ReadCsv(s, path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(CsvTest, ReadFromStringMatchesFileReadAndNamesSource) {
  Schema s("t", {{"i", ValueType::kInt64}, {"s", ValueType::kString}});
  const std::string data = "i,s\n1,\"a,b\"\n2,plain\n";
  auto from_string = ReadCsvFromString(s, data, "inline-blob");
  ASSERT_TRUE(from_string.ok()) << from_string.status().ToString();
  EXPECT_EQ(from_string.value().num_rows(), 2u);
  EXPECT_EQ(from_string.value().ValueAt(0, 1).AsString(), "a,b");

  std::string path =
      (std::filesystem::temp_directory_path() / "squid_csv_str.csv").string();
  {
    FILE* f = fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    fputs(data.c_str(), f);
    fclose(f);
  }
  auto from_file = ReadCsv(s, path);
  ASSERT_TRUE(from_file.ok()) << from_file.status().ToString();
  ASSERT_EQ(from_file.value().num_rows(), from_string.value().num_rows());
  for (size_t r = 0; r < from_file.value().num_rows(); ++r) {
    for (size_t c = 0; c < s.num_attributes(); ++c) {
      EXPECT_TRUE(from_file.value().ValueAt(r, c) ==
                  from_string.value().ValueAt(r, c));
    }
  }
  std::remove(path.c_str());

  // Errors cite the caller-supplied source label, not a file path.
  auto bad = ReadCsvFromString(s, "i,s\nnope,x\n", "inline-blob");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("inline-blob"), std::string::npos);
}

TEST(CsvTest, ReadRejectsBadNumbers) {
  std::string path =
      (std::filesystem::temp_directory_path() / "squid_csv_bad.csv").string();
  {
    FILE* f = fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    fputs("i\nnot_a_number\n", f);
    fclose(f);
  }
  Schema s("t", {{"i", ValueType::kInt64}});
  EXPECT_FALSE(ReadCsv(s, path).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace squid
