#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <tuple>
#include <unordered_map>

#include "adb/abduction_ready_db.h"
#include "adb/derived_relation.h"
#include "adb/schema_graph.h"
#include "adb/statistics.h"
#include "common/rng.h"
#include "datagen/imdb_generator.h"
#include "storage/column_index.h"
#include "tests/test_util.h"

namespace squid {
namespace {

using testing::MakeAcademicsDb;
using testing::MakeMoviesDb;

// ---------- Schema graph classification ----------

TEST(SchemaGraphTest, ClassifiesAcademicsSchema) {
  auto db = MakeAcademicsDb();
  auto graph = SchemaGraph::Analyze(*db);
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph.value().KindOf("academics"), RelationKind::kEntity);
  EXPECT_EQ(graph.value().KindOf("interest"), RelationKind::kDimension);
  EXPECT_EQ(graph.value().KindOf("research"), RelationKind::kPropertyLinkFact);
}

TEST(SchemaGraphTest, ClassifiesMoviesSchema) {
  auto db = MakeMoviesDb();
  auto graph = SchemaGraph::Analyze(*db);
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph.value().KindOf("person"), RelationKind::kEntity);
  EXPECT_EQ(graph.value().KindOf("movie"), RelationKind::kEntity);
  EXPECT_EQ(graph.value().KindOf("genre"), RelationKind::kDimension);
  EXPECT_EQ(graph.value().KindOf("castinfo"), RelationKind::kAssociationFact);
  EXPECT_EQ(graph.value().KindOf("movietogenre"), RelationKind::kPropertyLinkFact);
}

TEST(SchemaGraphTest, AcademicsDescriptors) {
  auto db = MakeAcademicsDb();
  auto graph = SchemaGraph::Analyze(*db);
  ASSERT_TRUE(graph.ok());
  // academics has exactly one multi-valued descriptor: interest via research.
  auto descs = graph.value().DescriptorsFor("academics");
  ASSERT_EQ(descs.size(), 1u);
  EXPECT_EQ(descs[0]->kind, PropertyKind::kMultiValued);
  EXPECT_EQ(descs[0]->terminal_relation, "interest");
  EXPECT_EQ(descs[0]->terminal_attr, "name");
  EXPECT_FALSE(descs[0]->derived);
}

TEST(SchemaGraphTest, MovieDescriptorsIncludePaperExamples) {
  auto db = MakeMoviesDb();
  auto graph = SchemaGraph::Analyze(*db);
  ASSERT_TRUE(graph.ok());

  // person: derived genre counts through castinfo+movietogenre (the
  // persontogenre relation of Fig. 5).
  bool found_persontogenre = false;
  for (const auto* d : graph.value().DescriptorsFor("person")) {
    if (d->kind == PropertyKind::kDerivedCategorical &&
        d->terminal_relation == "genre" && d->hops.size() == 2) {
      found_persontogenre = true;
      EXPECT_EQ(d->hops[0].fact_table, "castinfo");
      EXPECT_EQ(d->hops[1].fact_table, "movietogenre");
      EXPECT_TRUE(d->derived);
    }
  }
  EXPECT_TRUE(found_persontogenre);

  // movie: genre via movietogenre is a BASIC multi-valued property (Fig. 5
  // caption), not a derived one.
  bool movie_genre_basic = false;
  for (const auto* d : graph.value().DescriptorsFor("movie")) {
    if (d->kind == PropertyKind::kMultiValued && d->terminal_relation == "genre") {
      movie_genre_basic = true;
    }
  }
  EXPECT_TRUE(movie_genre_basic);
}

TEST(SchemaGraphTest, InlinePropertiesTyped) {
  auto db = MakeMoviesDb();
  auto graph = SchemaGraph::Analyze(*db);
  ASSERT_TRUE(graph.ok());
  bool gender_cat = false, age_num = false;
  for (const auto* d : graph.value().DescriptorsFor("person")) {
    if (d->id == "person.gender") {
      gender_cat = d->kind == PropertyKind::kInlineCategorical;
    }
    if (d->id == "person.age") age_num = d->kind == PropertyKind::kInlineNumeric;
  }
  EXPECT_TRUE(gender_cat);
  EXPECT_TRUE(age_num);
}

TEST(SchemaGraphTest, IdentityDescriptorsDiscoverable) {
  auto db = MakeMoviesDb();
  SchemaGraphOptions opts;
  auto graph = SchemaGraph::Analyze(*db, opts);
  ASSERT_TRUE(graph.ok());
  bool person_movie_identity = false;
  for (const auto* d : graph.value().DescriptorsFor("person")) {
    if (d->kind == PropertyKind::kDerivedEntity && d->terminal_relation == "movie") {
      person_movie_identity = true;
    }
  }
  EXPECT_TRUE(person_movie_identity);

  opts.discover_entity_identity = false;
  auto graph2 = SchemaGraph::Analyze(*db, opts);
  ASSERT_TRUE(graph2.ok());
  for (const auto* d : graph2.value().DescriptorsFor("person")) {
    EXPECT_NE(d->kind, PropertyKind::kDerivedEntity);
  }
}

TEST(SchemaGraphTest, FactHopLimitRespected) {
  auto db = MakeMoviesDb();
  SchemaGraphOptions opts;
  opts.max_fact_hops = 1;
  auto graph = SchemaGraph::Analyze(*db, opts);
  ASSERT_TRUE(graph.ok());
  for (const auto& d : graph.value().descriptors()) {
    EXPECT_LE(d.hops.size(), 1u);
  }
}

TEST(SchemaGraphTest, FindDescriptorById) {
  auto db = MakeMoviesDb();
  auto graph = SchemaGraph::Analyze(*db);
  ASSERT_TRUE(graph.ok());
  EXPECT_TRUE(graph.value().FindDescriptor("person.gender").ok());
  EXPECT_FALSE(graph.value().FindDescriptor("person.nothing").ok());
}

// ---------- Derived relation materialization ----------

TEST(DerivedRelationTest, PersonToGenreCountsMatchFig5) {
  auto db = MakeMoviesDb();
  auto graph = SchemaGraph::Analyze(*db);
  ASSERT_TRUE(graph.ok());
  const PropertyDescriptor* ptg = nullptr;
  for (const auto* d : graph.value().DescriptorsFor("person")) {
    if (d->kind == PropertyKind::kDerivedCategorical &&
        d->terminal_relation == "genre") {
      ptg = d;
    }
  }
  ASSERT_NE(ptg, nullptr);
  auto table = MaterializeDerivedRelation(*db, *ptg);
  ASSERT_TRUE(table.ok());

  // Collect Jim Carris' (person 1) genre counts: Comedy 3, Fantasy 1, Drama 1.
  const Column* entity = table.value()->ColumnByName("entity_id").value();
  const Column* value = table.value()->ColumnByName("value").value();
  const Column* count = table.value()->ColumnByName("count").value();
  std::map<std::string, int64_t> jim;
  for (size_t r = 0; r < table.value()->num_rows(); ++r) {
    if (entity->Int64At(r) == 1) jim[std::string(value->StringAt(r))] = count->Int64At(r);
  }
  EXPECT_EQ(jim["Comedy"], 3);
  EXPECT_EQ(jim["Fantasy"], 1);
  EXPECT_EQ(jim["Drama"], 1);
}

TEST(DerivedRelationTest, FracColumnIsPortfolioFraction) {
  auto db = MakeMoviesDb();
  auto graph = SchemaGraph::Analyze(*db);
  ASSERT_TRUE(graph.ok());
  const PropertyDescriptor* ptg = nullptr;
  for (const auto* d : graph.value().DescriptorsFor("person")) {
    if (d->kind == PropertyKind::kDerivedCategorical &&
        d->terminal_relation == "genre") {
      ptg = d;
    }
  }
  ASSERT_NE(ptg, nullptr);
  auto table = MaterializeDerivedRelation(*db, *ptg);
  ASSERT_TRUE(table.ok());
  const Column* entity = table.value()->ColumnByName("entity_id").value();
  const Column* value = table.value()->ColumnByName("value").value();
  const Column* frac = table.value()->ColumnByName("frac").value();
  for (size_t r = 0; r < table.value()->num_rows(); ++r) {
    if (entity->Int64At(r) == 1 && value->StringAt(r) == "Comedy") {
      EXPECT_NEAR(frac->DoubleAt(r), 3.0 / 5.0, 1e-9);  // 3 of 5 genre links
    }
  }
}

TEST(DerivedRelationTest, CoActorPathSkipsSelf) {
  // Co-actor gender counts for Jim (person 1): his co-actors are Ewan
  // (movies 10, 12) and Laura (movie 11) -> Male 2, Female 1. If the path
  // did not skip self-arrivals, Jim's own three appearances would inflate
  // Male to 5.
  auto db = MakeMoviesDb();
  auto graph = SchemaGraph::Analyze(*db);
  ASSERT_TRUE(graph.ok());
  const PropertyDescriptor* co = nullptr;
  for (const auto* d : graph.value().DescriptorsFor("person")) {
    if (d->kind == PropertyKind::kDerivedCategorical && d->hops.size() == 2 &&
        d->terminal_relation == "person" && d->terminal_attr == "gender") {
      co = d;
    }
  }
  ASSERT_NE(co, nullptr);
  auto table = MaterializeDerivedRelation(*db, *co);
  ASSERT_TRUE(table.ok());
  const Column* entity = table.value()->ColumnByName("entity_id").value();
  const Column* value = table.value()->ColumnByName("value").value();
  const Column* count = table.value()->ColumnByName("count").value();
  std::map<std::string, int64_t> jim;
  for (size_t r = 0; r < table.value()->num_rows(); ++r) {
    if (entity->Int64At(r) == 1) jim[std::string(value->StringAt(r))] = count->Int64At(r);
  }
  EXPECT_EQ(jim["Male"], 2);
  EXPECT_EQ(jim["Female"], 1);
}

TEST(SchemaGraphTest, NoIdentityDescriptorsAtDepthTwo) {
  auto db = MakeMoviesDb();
  auto graph = SchemaGraph::Analyze(*db);
  ASSERT_TRUE(graph.ok());
  for (const auto& d : graph.value().descriptors()) {
    if (d.kind == PropertyKind::kDerivedEntity) {
      EXPECT_EQ(d.hops.size(), 1u) << d.id;
    }
  }
}

TEST(DerivedRelationTest, BasicDescriptorRejected) {
  auto db = MakeMoviesDb();
  auto graph = SchemaGraph::Analyze(*db);
  ASSERT_TRUE(graph.ok());
  auto desc = graph.value().FindDescriptor("person.gender");
  ASSERT_TRUE(desc.ok());
  EXPECT_FALSE(MaterializeDerivedRelation(*db, *desc.value()).ok());
}

// ---------- Typed materializer vs the Value-path reference ----------

/// The Value-path materializer the typed one replaced, kept as the
/// reference: frontier arrivals carry the entity key as a Value, every hop
/// probes HashColumnIndex::Lookup(Value), counts go through ordered maps
/// keyed by Value, and rows are appended as Values.
Result<std::shared_ptr<Table>> ReferenceMaterialize(const Database& db,
                                                    const PropertyDescriptor& desc) {
  struct Arrival {
    Value entity_key;
    size_t row;
  };
  SQUID_ASSIGN_OR_RETURN(const Table* entity, db.GetTable(desc.entity_relation));
  SQUID_ASSIGN_OR_RETURN(const Column* entity_pk, entity->ColumnByName(desc.entity_key));
  const Table* current = entity;
  std::string current_key_attr = desc.entity_key;
  std::vector<Arrival> frontier;
  for (size_t r = 0; r < entity->num_rows(); ++r) {
    if (entity_pk->IsNull(r)) continue;
    frontier.push_back(Arrival{entity_pk->ValueAt(r), r});
  }
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
    for (const Arrival& a : frontier) {
      Value key = current_key->ValueAt(a.row);
      if (key.is_null()) continue;
      for (size_t fr : fact_in.Lookup(key)) {
        if (fact_out->IsNull(fr)) continue;
        Value out_key = fact_out->ValueAt(fr);
        if (arrives_at_origin && out_key == a.entity_key) continue;
        for (size_t nr : next_pk.Lookup(out_key)) {
          next_frontier.push_back(Arrival{a.entity_key, nr});
        }
      }
    }
    frontier = std::move(next_frontier);
    current = next;
    current_key_attr = hop.next_key;
  }
  for (const DimHop& dim : desc.dims) {
    SQUID_ASSIGN_OR_RETURN(const Column* from, current->ColumnByName(dim.from_attr));
    SQUID_ASSIGN_OR_RETURN(const Table* next, db.GetTable(dim.dim_relation));
    SQUID_ASSIGN_OR_RETURN(HashColumnIndex next_pk,
                           HashColumnIndex::Build(*next, dim.dim_key));
    std::vector<Arrival> next_frontier;
    for (const Arrival& a : frontier) {
      if (from->IsNull(a.row)) continue;
      for (size_t nr : next_pk.Lookup(from->ValueAt(a.row))) {
        next_frontier.push_back(Arrival{a.entity_key, nr});
      }
    }
    frontier = std::move(next_frontier);
    current = next;
  }
  SQUID_ASSIGN_OR_RETURN(const Column* terminal, current->ColumnByName(desc.terminal_attr));
  std::map<Value, std::map<Value, int64_t>> counts;
  std::map<Value, int64_t> totals;
  if (desc.kind == PropertyKind::kDerivedNumericBucket) {
    for (const Arrival& a : frontier) {
      if (terminal->IsNull(a.row)) continue;
      double v = terminal->NumericAt(a.row);
      ++totals[a.entity_key];
      auto& per_entity = counts[a.entity_key];
      for (size_t i = 0; i < desc.bucket_thresholds.size(); ++i) {
        if (v >= desc.bucket_thresholds[i]) ++per_entity[Value(static_cast<int64_t>(i))];
      }
    }
  } else {
    for (const Arrival& a : frontier) {
      if (terminal->IsNull(a.row)) continue;
      ++totals[a.entity_key];
      ++counts[a.entity_key][terminal->ValueAt(a.row)];
    }
  }
  ValueType value_type = desc.kind == PropertyKind::kDerivedNumericBucket
                             ? ValueType::kInt64
                             : terminal->type();
  Schema schema(desc.derived_table, {{"entity_id", entity_pk->type()},
                                     {"value", value_type},
                                     {"count", ValueType::kInt64},
                                     {"frac", ValueType::kDouble}});
  schema.AddForeignKey(ForeignKeyDef{"entity_id", desc.entity_relation, desc.entity_key});
  auto table = std::make_shared<Table>(std::move(schema), db.pool());
  for (const auto& [entity_key, per_entity] : counts) {
    double total = static_cast<double>(totals[entity_key]);
    for (const auto& [value, count] : per_entity) {
      double frac = total > 0 ? static_cast<double>(count) / total : 0.0;
      SQUID_RETURN_NOT_OK(table->AppendRow({entity_key, value, Value(count), Value(frac)}));
    }
  }
  return table;
}

/// Cell-by-cell identity down to raw storage: validity bytes, int64s,
/// double bit patterns (so -0.0 differs from 0.0), and dictionary symbols.
void ExpectRawIdentical(const Table& expected, const Table& actual,
                        const std::string& what) {
  ASSERT_EQ(expected.num_columns(), actual.num_columns()) << what;
  ASSERT_EQ(expected.num_rows(), actual.num_rows()) << what;
  EXPECT_EQ(expected.name(), actual.name()) << what;
  for (size_t c = 0; c < expected.num_columns(); ++c) {
    EXPECT_EQ(expected.schema().attributes()[c].name,
              actual.schema().attributes()[c].name)
        << what;
  }
  for (size_t c = 0; c < expected.num_columns(); ++c) {
    const Column& e = expected.column(c);
    const Column& a = actual.column(c);
    ASSERT_EQ(e.type(), a.type()) << what << " column " << c;
    EXPECT_EQ(e.valid_raw(), a.valid_raw()) << what << " column " << c;
    EXPECT_EQ(e.ints_raw(), a.ints_raw()) << what << " column " << c;
    EXPECT_EQ(e.syms_raw(), a.syms_raw()) << what << " column " << c;
    ASSERT_EQ(e.doubles_raw().size(), a.doubles_raw().size()) << what << " column " << c;
    for (size_t r = 0; r < e.doubles_raw().size(); ++r) {
      ASSERT_EQ(std::memcmp(&e.doubles_raw()[r], &a.doubles_raw()[r], sizeof(double)), 0)
          << what << " column " << c << " row " << r << ": " << e.doubles_raw()[r]
          << " vs " << a.doubles_raw()[r];
    }
  }
}

/// Key domains of the randomized schemas: a small pool of values so keys
/// collide, repeat on the far side of hops, and (for doubles) include -0.0
/// next to 0.0 and fractional values no int64 key can equal.
Value RandomKey(Rng* rng, ValueType type) {
  const int64_t k = rng->UniformInt(0, 4);
  switch (type) {
    case ValueType::kString:
      return Value("k" + std::to_string(k));
    case ValueType::kInt64:
      return Value(k);
    case ValueType::kDouble:
      if (k == 0) return Value(rng->Bernoulli(0.5) ? -0.0 : 0.0);
      if (rng->Bernoulli(0.15)) return Value(static_cast<double>(k) + 0.5);
      return Value(static_cast<double>(k));
    case ValueType::kNull:
      break;
  }
  return Value::Null();
}

Value MaybeNull(Rng* rng, Value v, double p_null) {
  return rng->Bernoulli(p_null) ? Value::Null() : std::move(v);
}

/// Terminal payload values: strings, int64s, and doubles with ties and ±0.
Value RandomPayload(Rng* rng, ValueType type) {
  const int64_t k = rng->UniformInt(-3, 3);
  switch (type) {
    case ValueType::kString:
      return Value(std::string(1, static_cast<char>('a' + k + 3)));
    case ValueType::kInt64:
      return Value(k * 10);
    case ValueType::kDouble:
      if (k == 0) return Value(rng->Bernoulli(0.5) ? -0.0 : 0.0);
      return Value(static_cast<double>(k) * 1.25);
    case ValueType::kNull:
      break;
  }
  return Value::Null();
}

ValueType RandomKeyType(Rng* rng) {
  static const ValueType kTypes[] = {ValueType::kString, ValueType::kInt64,
                                     ValueType::kDouble};
  return kTypes[rng->UniformInt(0, 2)];
}

/// The FK side of a key pair: the PK's own type, or for a numeric PK
/// sometimes the other numeric type (int64 <-> double joins).
ValueType FkTypeFor(Rng* rng, ValueType pk) {
  if (pk == ValueType::kString || rng->Bernoulli(0.6)) return pk;
  return pk == ValueType::kInt64 ? ValueType::kDouble : ValueType::kInt64;
}

/// A relation `name(key, s, i, d, fk)`: key of `key_type`, one payload
/// column per type, and an FK of `fk_type` into the next dimension.
void AddRelation(Database* db, Rng* rng, const std::string& name, size_t rows,
                 ValueType key_type, ValueType fk_type, double p_null) {
  Table* t = db->CreateTable(Schema(name, {{"key", key_type},
                                           {"s", ValueType::kString},
                                           {"i", ValueType::kInt64},
                                           {"d", ValueType::kDouble},
                                           {"fk", fk_type}}))
                 .value();
  for (size_t r = 0; r < rows; ++r) {
    ASSERT_TRUE(t->AppendRow({MaybeNull(rng, RandomKey(rng, key_type), p_null / 2),
                              MaybeNull(rng, RandomPayload(rng, ValueType::kString), p_null),
                              MaybeNull(rng, RandomPayload(rng, ValueType::kInt64), p_null),
                              MaybeNull(rng, RandomPayload(rng, ValueType::kDouble), p_null),
                              MaybeNull(rng, RandomKey(rng, fk_type), p_null)})
                    .ok());
  }
}

/// A fact `name(in, out)` with FKs of the given types (nulls included).
void AddFact(Database* db, Rng* rng, const std::string& name, size_t rows,
             ValueType in_type, ValueType out_type, double p_null) {
  Table* t = db->CreateTable(Schema(name, {{"in", in_type}, {"out", out_type}})).value();
  for (size_t r = 0; r < rows; ++r) {
    ASSERT_TRUE(t->AppendRow({MaybeNull(rng, RandomKey(rng, in_type), p_null),
                              MaybeNull(rng, RandomKey(rng, out_type), p_null)})
                    .ok());
  }
}

TEST(DerivedRelationTest, TypedMaterializerMatchesValueReference) {
  Rng rng(20260611);
  size_t compared_rows = 0, empty_outputs = 0, self_paths = 0, buckets = 0;
  for (int trial = 0; trial < 500; ++trial) {
    Database db("random");
    const double p_null = rng.Bernoulli(0.3) ? 0.0 : 0.15;
    // entity e -> fact f1 -> n, optionally n -> fact f2 -> back to e, then
    // up to two dimension hops d1 -> d2.
    const ValueType e_key = RandomKeyType(&rng);
    const ValueType n_key = RandomKeyType(&rng);
    const ValueType d1_key = RandomKeyType(&rng);
    const ValueType d2_key = RandomKeyType(&rng);
    const size_t e_rows = static_cast<size_t>(rng.UniformInt(0, 9));
    AddRelation(&db, &rng, "e", e_rows, e_key, FkTypeFor(&rng, d1_key), p_null);
    AddRelation(&db, &rng, "n", static_cast<size_t>(rng.UniformInt(2, 10)), n_key,
                FkTypeFor(&rng, d1_key), p_null);
    AddRelation(&db, &rng, "d1", static_cast<size_t>(rng.UniformInt(2, 6)), d1_key,
                FkTypeFor(&rng, d2_key), p_null);
    AddRelation(&db, &rng, "d2", static_cast<size_t>(rng.UniformInt(2, 6)), d2_key,
                ValueType::kInt64, p_null);
    AddFact(&db, &rng, "f1", static_cast<size_t>(rng.UniformInt(0, 30)),
            FkTypeFor(&rng, e_key), FkTypeFor(&rng, n_key), p_null);
    AddFact(&db, &rng, "f2", static_cast<size_t>(rng.UniformInt(0, 30)),
            FkTypeFor(&rng, n_key), FkTypeFor(&rng, e_key), p_null);
    if (HasFatalFailure()) return;

    PropertyDescriptor desc;
    desc.id = "random" + std::to_string(trial);
    desc.derived_table = "adb_" + desc.id;
    desc.entity_relation = "e";
    desc.entity_key = "key";
    desc.hops.push_back(FactHop{"f1", "in", "out", "n", "key"});
    std::string current = "n";
    if (rng.Bernoulli(0.4)) {
      desc.hops.push_back(FactHop{"f2", "in", "out", "e", "key"});
      current = "e";
      ++self_paths;
    }
    const int64_t dims = rng.UniformInt(0, 2);
    if (dims >= 1) desc.dims.push_back(DimHop{"fk", "d1", "key"});
    if (dims >= 2) desc.dims.push_back(DimHop{"fk", "d2", "key"});
    if (dims >= 1) current = dims == 1 ? "d1" : "d2";
    desc.terminal_relation = current;
    static const char* kTerminals[] = {"key", "s", "i", "d"};
    desc.terminal_attr = kTerminals[rng.UniformInt(0, 3)];
    desc.kind = desc.terminal_attr == "key" ? PropertyKind::kDerivedEntity
                                            : PropertyKind::kDerivedCategorical;
    const ValueType terminal_type =
        db.GetTable(current).value()->ColumnByName(desc.terminal_attr).value()->type();
    if (terminal_type != ValueType::kString && rng.Bernoulli(0.4)) {
      desc.kind = PropertyKind::kDerivedNumericBucket;
      desc.bucket_thresholds = {-2.5, 0.0, 1.0, 12.5};
      rng.Shuffle(&desc.bucket_thresholds);
      ++buckets;
    }

    auto expected = ReferenceMaterialize(db, desc);
    auto actual = MaterializeDerivedRelation(db, desc);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    ASSERT_TRUE(actual.ok()) << actual.status().ToString();
    ExpectRawIdentical(*expected.value(), *actual.value(), desc.id);
    if (HasFailure()) return;
    compared_rows += expected.value()->num_rows();
    if (expected.value()->num_rows() == 0) ++empty_outputs;
  }
  // The generator must actually reach the interesting shapes.
  EXPECT_GT(compared_rows, 600u);
  EXPECT_GT(empty_outputs, 20u);
  EXPECT_GT(self_paths, 100u);
  EXPECT_GT(buckets, 50u);
}

TEST(DerivedRelationTest, TypedMaterializerMatchesReferenceOnGeneratedImdb) {
  ImdbOptions options;
  options.scale = 0.05;
  auto data = GenerateImdb(options);
  ASSERT_TRUE(data.ok());
  auto graph = SchemaGraph::Analyze(*data.value().db);
  ASSERT_TRUE(graph.ok());
  size_t derived = 0;
  for (const PropertyDescriptor& desc : graph.value().descriptors()) {
    if (desc.hops.empty()) continue;
    auto expected = ReferenceMaterialize(*data.value().db, desc);
    auto actual = MaterializeDerivedRelation(*data.value().db, desc);
    ASSERT_TRUE(expected.ok() && actual.ok()) << desc.id;
    ExpectRawIdentical(*expected.value(), *actual.value(), desc.id);
    ++derived;
  }
  EXPECT_GT(derived, 10u);
}

TEST(DerivedRelationTest, EmptyEntityRelationYieldsEmptyTable) {
  Database db("empty");
  Rng rng(3);
  AddRelation(&db, &rng, "e", 0, ValueType::kInt64, ValueType::kInt64, 0.0);
  AddRelation(&db, &rng, "n", 4, ValueType::kInt64, ValueType::kInt64, 0.0);
  AddFact(&db, &rng, "f1", 8, ValueType::kInt64, ValueType::kInt64, 0.0);
  PropertyDescriptor desc;
  desc.id = "empty";
  desc.derived_table = "adb_empty";
  desc.kind = PropertyKind::kDerivedCategorical;
  desc.entity_relation = "e";
  desc.entity_key = "key";
  desc.hops.push_back(FactHop{"f1", "in", "out", "n", "key"});
  desc.terminal_relation = "n";
  desc.terminal_attr = "s";
  auto table = MaterializeDerivedRelation(db, desc);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table.value()->num_rows(), 0u);
  EXPECT_EQ(table.value()->num_columns(), 4u);
  EXPECT_EQ(table.value()->column(1).type(), ValueType::kString);
}

// ---------- Statistics ----------

TEST(StatisticsTest, CategoricalSelectivity) {
  auto db = MakeMoviesDb();
  auto graph = SchemaGraph::Analyze(*db);
  ASSERT_TRUE(graph.ok());
  auto desc = graph.value().FindDescriptor("person.gender");
  ASSERT_TRUE(desc.ok());
  auto stats = StatisticsBuilder::BuildBasic(*db, *desc.value());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().total_entities(), 6u);
  EXPECT_NEAR(stats.value().SelectivityEquals(Value("Male")), 4.0 / 6.0, 1e-9);
  EXPECT_NEAR(stats.value().SelectivityEquals(Value("Female")), 2.0 / 6.0, 1e-9);
  EXPECT_EQ(stats.value().SelectivityEquals(Value("Other")), 0.0);
  EXPECT_EQ(stats.value().domain_size(), 2u);
}

TEST(StatisticsTest, NumericRangeSelectivity) {
  auto db = MakeMoviesDb();
  auto graph = SchemaGraph::Analyze(*db);
  ASSERT_TRUE(graph.ok());
  auto desc = graph.value().FindDescriptor("person.age");
  ASSERT_TRUE(desc.ok());
  auto stats = StatisticsBuilder::BuildBasic(*db, *desc.value());
  ASSERT_TRUE(stats.ok());
  // Ages: 60, 52, 58, 50, 90, 29. Range [50, 60] covers 4 of 6.
  EXPECT_NEAR(stats.value().SelectivityRange(50, 60), 4.0 / 6.0, 1e-9);
  EXPECT_NEAR(stats.value().SelectivityRange(0, 1000), 1.0, 1e-9);
  EXPECT_EQ(stats.value().domain_min(), 29);
  EXPECT_EQ(stats.value().domain_max(), 90);
}

TEST(StatisticsTest, DerivedSuffixSelectivity) {
  auto db = MakeMoviesDb();
  auto graph = SchemaGraph::Analyze(*db);
  ASSERT_TRUE(graph.ok());
  const PropertyDescriptor* ptg = nullptr;
  for (const auto* d : graph.value().DescriptorsFor("person")) {
    if (d->kind == PropertyKind::kDerivedCategorical &&
        d->terminal_relation == "genre") {
      ptg = d;
    }
  }
  ASSERT_NE(ptg, nullptr);
  auto table = MaterializeDerivedRelation(*db, *ptg);
  ASSERT_TRUE(table.ok());
  std::unordered_map<Value, double, ValueHash> totals;
  auto stats = StatisticsBuilder::BuildFromDerived(*table.value(), 6, &totals);
  ASSERT_TRUE(stats.ok());
  // Comedy counts per person: Jim 3, Ewan 2, Laura 1, Emma 1.
  EXPECT_NEAR(stats.value().SelectivityDerived(Value("Comedy"), 1), 4.0 / 6.0, 1e-9);
  EXPECT_NEAR(stats.value().SelectivityDerived(Value("Comedy"), 2), 2.0 / 6.0, 1e-9);
  EXPECT_NEAR(stats.value().SelectivityDerived(Value("Comedy"), 3), 1.0 / 6.0, 1e-9);
  EXPECT_EQ(stats.value().SelectivityDerived(Value("Comedy"), 4), 0.0);
  EXPECT_EQ(stats.value().SelectivityDerived(Value("Nope"), 1), 0.0);
  EXPECT_EQ(stats.value().EntitiesWithValue(Value("Comedy")), 4u);
}

/// The per-row recomputation EntityTotals replaced: every row that carries
/// a total assigns it, so an entity's last such row wins.
std::unordered_map<Value, double, ValueHash> ReferenceTotals(const Table& derived) {
  const Column* entity = derived.ColumnByName("entity_id").value();
  const Column* count = derived.ColumnByName("count").value();
  const Column* frac = derived.ColumnByName("frac").value();
  std::unordered_map<Value, double, ValueHash> totals;
  for (size_t r = 0; r < derived.num_rows(); ++r) {
    const double c = static_cast<double>(count->Int64At(r));
    const double f = frac->DoubleAt(r);
    if (c > 0 && f > 0) totals[entity->ValueAt(r)] = c / f;
  }
  return totals;
}

void ExpectTotalsMatchReference(const Table& derived) {
  std::unordered_map<Value, double, ValueHash> totals;
  ASSERT_TRUE(StatisticsBuilder::EntityTotals(derived, &totals).ok());
  const auto want = ReferenceTotals(derived);
  ASSERT_EQ(totals.size(), want.size()) << derived.name();
  for (const auto& [key, total] : want) {
    auto it = totals.find(key);
    ASSERT_NE(it, totals.end()) << derived.name() << " " << key.ToString();
    EXPECT_EQ(std::memcmp(&it->second, &total, sizeof(double)), 0)
        << derived.name() << " " << key.ToString() << ": " << it->second
        << " vs " << total;
  }
}

TEST(StatisticsTest, EntityTotalsMatchPerRowRecomputation) {
  // Unsorted rows, an entity split over two runs, null keys, rows without a
  // total, and totals that disagree: the last row with a total wins.
  Table t(Schema("adb_t", {{"entity_id", ValueType::kInt64},
                           {"value", ValueType::kString},
                           {"count", ValueType::kInt64},
                           {"frac", ValueType::kDouble}}));
  const std::vector<std::tuple<Value, int64_t, double>> rows = {
      {Value(int64_t{1}), 2, 0.5},  {Value(int64_t{1}), 1, 0.3},
      {Value(int64_t{2}), 0, 0.0},  {Value(int64_t{2}), 3, 0.75},
      {Value(int64_t{1}), 1, 0.2},  {Value::Null(), 1, 0.5},
      {Value::Null(), 2, 0.25},     {Value(int64_t{3}), 0, 0.0},
      {Value(int64_t{2}), 2, 0.0}};
  for (const auto& [entity, count, frac] : rows) {
    ASSERT_TRUE(t.AppendRow({entity, Value("v"), Value(count), Value(frac)}).ok());
  }
  ExpectTotalsMatchReference(t);
  std::unordered_map<Value, double, ValueHash> totals;
  ASSERT_TRUE(StatisticsBuilder::EntityTotals(t, &totals).ok());
  EXPECT_EQ(totals.at(Value(int64_t{1})), 5.0);  // the later run wins
  EXPECT_EQ(totals.at(Value::Null()), 8.0);
  EXPECT_EQ(totals.count(Value(int64_t{3})), 0u);

  // And over every derived relation of a generated IMDb αDB.
  ImdbOptions options;
  options.scale = 0.05;
  auto data = GenerateImdb(options);
  ASSERT_TRUE(data.ok());
  auto adb = AbductionReadyDb::Build(*data.value().db);
  ASSERT_TRUE(adb.ok());
  size_t derived = 0;
  for (const PropertyDescriptor& desc : adb.value()->schema_graph().descriptors()) {
    if (desc.hops.empty()) continue;
    ExpectTotalsMatchReference(
        *adb.value()->database().GetTable(desc.derived_table).value());
    ++derived;
  }
  EXPECT_GT(derived, 10u);
}

// ---------- αDB assembly ----------

TEST(AdbTest, BuildReportsAndLookups) {
  auto db = MakeMoviesDb();
  auto adb = AbductionReadyDb::Build(*db);
  ASSERT_TRUE(adb.ok());
  const AdbReport& report = adb.value()->report();
  EXPECT_GT(report.num_descriptors, 5u);
  EXPECT_GT(report.num_derived_relations, 0u);
  EXPECT_GT(report.derived_rows, 0u);
  EXPECT_GE(report.build_seconds, 0.0);
  EXPECT_GT(report.derived_seconds, 0.0);
  EXPECT_GT(report.stats_seconds, 0.0);
  EXPECT_GT(report.index_seconds, 0.0);

  // Entity lookup by key.
  auto row = adb.value()->EntityRowByKey("person", Value(static_cast<int64_t>(3)));
  ASSERT_TRUE(row.ok());
  EXPECT_FALSE(
      adb.value()->EntityRowByKey("person", Value(static_cast<int64_t>(99))).ok());
}

TEST(AdbTest, SerialStepTimesFitInBuildTime) {
  // On one thread the steps are disjoint stretches of the build, so their
  // sum cannot exceed the whole.
  auto db = MakeMoviesDb();
  AdbOptions options;
  options.threads = 1;
  auto adb = AbductionReadyDb::Build(*db, options);
  ASSERT_TRUE(adb.ok());
  const AdbReport& report = adb.value()->report();
  EXPECT_LE(report.derived_seconds + report.stats_seconds + report.index_seconds,
            report.build_seconds);
}

TEST(AdbTest, BasicValueResolvesInline) {
  auto db = MakeMoviesDb();
  auto adb = AbductionReadyDb::Build(*db);
  ASSERT_TRUE(adb.ok());
  auto desc = adb.value()->schema_graph().FindDescriptor("person.gender");
  ASSERT_TRUE(desc.ok());
  size_t row =
      adb.value()->EntityRowByKey("person", Value(static_cast<int64_t>(3))).value();
  auto v = adb.value()->BasicValue(*desc.value(), row);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value().AsString(), "Female");
}

TEST(AdbTest, DerivedValuesPointQuery) {
  auto db = MakeMoviesDb();
  auto adb = AbductionReadyDb::Build(*db);
  ASSERT_TRUE(adb.ok());
  const PropertyDescriptor* ptg = nullptr;
  for (const auto* d : adb.value()->schema_graph().DescriptorsFor("person")) {
    if (d->kind == PropertyKind::kDerivedCategorical &&
        d->terminal_relation == "genre") {
      ptg = d;
    }
  }
  ASSERT_NE(ptg, nullptr);
  auto values = adb.value()->DerivedValues(*ptg, Value(static_cast<int64_t>(1)));
  ASSERT_TRUE(values.ok());
  std::map<std::string, double> by_name;
  for (const auto& [v, c] : values.value()) by_name[v.ToString()] = c;
  EXPECT_EQ(by_name["Comedy"], 3);
  EXPECT_EQ(adb.value()->EntityTotal(*ptg, Value(static_cast<int64_t>(1))), 5);
}

TEST(AdbTest, DisplayValueResolvesEntityIdentity) {
  auto db = MakeMoviesDb();
  auto adb = AbductionReadyDb::Build(*db);
  ASSERT_TRUE(adb.ok());
  const PropertyDescriptor* identity = nullptr;
  for (const auto* d : adb.value()->schema_graph().DescriptorsFor("person")) {
    if (d->kind == PropertyKind::kDerivedEntity && d->terminal_relation == "movie") {
      identity = d;
    }
  }
  ASSERT_NE(identity, nullptr);
  EXPECT_EQ(adb.value()->DisplayValue(*identity, Value(static_cast<int64_t>(11))),
            "Dumb Duo");
}

TEST(AdbTest, StatsForUnknownDescriptorErrors) {
  auto db = MakeMoviesDb();
  auto adb = AbductionReadyDb::Build(*db);
  ASSERT_TRUE(adb.ok());
  EXPECT_FALSE(adb.value()->StatsFor("no.such.descriptor").ok());
}

TEST(AdbTest, MaxDerivedRowsSkipsOversized) {
  auto db = MakeMoviesDb();
  AdbOptions options;
  options.max_derived_rows = 1;  // everything is oversized
  auto adb = AbductionReadyDb::Build(*db, options);
  ASSERT_TRUE(adb.ok());
  EXPECT_EQ(adb.value()->report().num_derived_relations, 0u);
}

// ---------- Serial-vs-parallel determinism ----------

/// Builds the αDB over `db` at each thread count and asserts the parallel
/// builds are byte-identical to the serial one: same relations, same cell
/// values, same dictionary symbols, same report counters, and identical
/// selectivities for every descriptor.
void ExpectBuildIsThreadCountInvariant(const Database& db) {
  AdbOptions serial_options;
  serial_options.threads = 1;
  auto serial = AbductionReadyDb::Build(db, serial_options);
  ASSERT_TRUE(serial.ok());

  for (size_t threads : {2u, 8u}) {
    AdbOptions options;
    options.threads = threads;
    auto parallel = AbductionReadyDb::Build(db, options);
    ASSERT_TRUE(parallel.ok()) << "threads=" << threads;
    EXPECT_EQ(parallel.value()->report().threads_used, threads);

    const AdbReport& sr = serial.value()->report();
    const AdbReport& pr = parallel.value()->report();
    EXPECT_EQ(sr.num_descriptors, pr.num_descriptors) << "threads=" << threads;
    EXPECT_EQ(sr.num_derived_relations, pr.num_derived_relations);
    EXPECT_EQ(sr.derived_rows, pr.derived_rows);
    EXPECT_EQ(sr.base_rows, pr.base_rows);
    EXPECT_EQ(sr.derived_bytes, pr.derived_bytes);

    testing::ExpectDatabasesIdentical(serial.value()->database(),
                                      parallel.value()->database());

    EXPECT_EQ(serial.value()->inverted_index().NumKeys(),
              parallel.value()->inverted_index().NumKeys());
    EXPECT_EQ(serial.value()->inverted_index().NumPostings(),
              parallel.value()->inverted_index().NumPostings());

    // Statistics must agree probe-for-probe: walk every descriptor and
    // compare selectivities over each derived relation's observed values.
    for (const PropertyDescriptor& desc :
         serial.value()->schema_graph().descriptors()) {
      auto ss = serial.value()->StatsFor(desc.id);
      auto ps = parallel.value()->StatsFor(desc.id);
      ASSERT_EQ(ss.ok(), ps.ok()) << desc.id;
      if (!ss.ok()) continue;
      EXPECT_EQ(ss.value()->total_entities(), ps.value()->total_entities())
          << desc.id;
      EXPECT_EQ(ss.value()->domain_size(), ps.value()->domain_size()) << desc.id;
      EXPECT_EQ(ss.value()->domain_min(), ps.value()->domain_min()) << desc.id;
      EXPECT_EQ(ss.value()->domain_max(), ps.value()->domain_max()) << desc.id;
      if (desc.derived) {
        auto table = serial.value()->database().GetTable(desc.derived_table);
        if (!table.ok()) continue;
        const Column* value_col = table.value()->ColumnByName("value").value();
        const Column* count_col = table.value()->ColumnByName("count").value();
        for (size_t r = 0; r < table.value()->num_rows(); ++r) {
          Value v = value_col->ValueAt(r);
          double theta = static_cast<double>(count_col->Int64At(r));
          EXPECT_EQ(ss.value()->SelectivityDerived(v, theta),
                    ps.value()->SelectivityDerived(v, theta))
              << desc.id << " row " << r;
        }
      }
    }
  }
}

TEST(AdbDeterminismTest, MoviesBuildIsThreadCountInvariant) {
  auto db = MakeMoviesDb();
  ExpectBuildIsThreadCountInvariant(*db);
}

TEST(AdbDeterminismTest, AcademicsBuildIsThreadCountInvariant) {
  auto db = MakeAcademicsDb();
  ExpectBuildIsThreadCountInvariant(*db);
}

TEST(AdbDeterminismTest, GeneratedImdbBuildIsThreadCountInvariant) {
  ImdbOptions options;
  options.scale = 0.05;
  auto data = GenerateImdb(options);
  ASSERT_TRUE(data.ok());
  ExpectBuildIsThreadCountInvariant(*data.value().db);
}

}  // namespace
}  // namespace squid
