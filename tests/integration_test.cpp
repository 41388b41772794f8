#include <gtest/gtest.h>

#include "baselines/talos.h"
#include "bench/bench_util.h"
#include "core/squid.h"
#include "eval/experiment.h"
#include "eval/metrics.h"
#include "eval/sampler.h"
#include "exec/executor.h"
#include "sql/parser.h"
#include "sql/printer.h"
#include "tests/test_util.h"

namespace squid {
namespace {

using bench::BuildDblpBench;
using bench::BuildImdbBench;
using bench::DblpBench;
using bench::GroundTruthKeys;
using bench::ImdbBench;

/// One shared small-scale IMDb + αDB for the whole suite (expensive).
class IntegrationFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { bench_ = new ImdbBench(BuildImdbBench(0.2)); }
  static void TearDownTestSuite() {
    delete bench_;
    bench_ = nullptr;
  }
  static ImdbBench* bench_;

  /// Runs discovery for `query_id` with `n` examples; returns metrics.
  static Metrics Discover(const std::string& query_id, size_t n,
                          SquidConfig config = {}, uint64_t seed = 77) {
    auto query = FindQuery(bench_->queries, query_id);
    EXPECT_TRUE(query.ok());
    auto truth = GroundTruth(*bench_->data.db, *query.value());
    EXPECT_TRUE(truth.ok());
    Rng rng(seed);
    auto examples = SampleExamples(truth.value(), n, &rng);
    auto outcome = RunDiscovery(*bench_->adb, config, examples,
                                ToStringSet(truth.value()));
    EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
    return outcome.ok() ? outcome.value().metrics : Metrics{};
  }
};
ImdbBench* IntegrationFixture::bench_ = nullptr;

TEST_F(IntegrationFixture, HubMovieCastConverges) {
  // IQ1-style: with 10 examples the movie-identity filter pins the intent.
  Metrics m = Discover("IQ1", 10);
  EXPECT_GT(m.fscore, 0.6);
}

TEST_F(IntegrationFixture, TrilogyIntentUsesIntersection) {
  auto query = FindQuery(bench_->queries, "IQ2").value();
  auto truth = GroundTruth(*bench_->data.db, *query);
  ASSERT_TRUE(truth.ok());
  Rng rng(3);
  auto examples = SampleExamples(truth.value(), 8, &rng);
  Squid squid(bench_->adb.get());
  auto abduced = squid.Discover(examples);
  ASSERT_TRUE(abduced.ok());
  // The original-schema form must have one GROUP BY branch per trilogy part
  // (three INTERSECT branches), mirroring the paper's SPJA^I class.
  EXPECT_GE(abduced.value().original_query.branches.size(), 3u);
}

TEST_F(IntegrationFixture, CompoundIntentStaysOutOfScope) {
  // IQ10: the conjunction "many RECENT RUSSIAN movies" is outside the
  // search space; precision must suffer even with many examples (§7.3).
  Metrics m = Discover("IQ10", 12);
  EXPECT_LT(m.precision, 0.9);
  EXPECT_GT(m.recall, 0.5);
}

TEST_F(IntegrationFixture, ValidityInvariantAcrossQueries) {
  // Definition 2.1: E ⊆ Q(D) for the abduced query, on several intents.
  for (const char* id : {"IQ1", "IQ4", "IQ6", "IQ12", "IQ15"}) {
    auto query = FindQuery(bench_->queries, id).value();
    auto truth = GroundTruth(*bench_->data.db, *query);
    ASSERT_TRUE(truth.ok());
    Rng rng(11);
    auto examples = SampleExamples(truth.value(), 6, &rng);
    if (examples.size() < 2) continue;
    Squid squid(bench_->adb.get());
    auto abduced = squid.Discover(examples);
    ASSERT_TRUE(abduced.ok()) << id;
    auto rs = ExecuteQuery(bench_->adb->database(), abduced.value().adb_query);
    ASSERT_TRUE(rs.ok()) << id;
    auto out = ToStringSet(rs.value());
    for (const auto& e : examples) {
      EXPECT_TRUE(out.count(e)) << id << " lost example " << e;
    }
  }
}

TEST_F(IntegrationFixture, AdbAndOriginalFormsAgreeOnRealQueries) {
  for (const char* id : {"IQ4", "IQ6", "IQ13", "IQ15"}) {
    auto query = FindQuery(bench_->queries, id).value();
    auto truth = GroundTruth(*bench_->data.db, *query);
    ASSERT_TRUE(truth.ok());
    Rng rng(13);
    auto examples = SampleExamples(truth.value(), 8, &rng);
    if (examples.size() < 2) continue;
    Squid squid(bench_->adb.get());
    auto abduced = squid.Discover(examples);
    ASSERT_TRUE(abduced.ok()) << id;
    auto adb_rs = ExecuteQuery(bench_->adb->database(), abduced.value().adb_query);
    auto orig_rs = ExecuteQuery(*bench_->data.db, abduced.value().original_query);
    ASSERT_TRUE(adb_rs.ok()) << id;
    ASSERT_TRUE(orig_rs.ok()) << id << ": " << orig_rs.status().ToString();
    // The original-schema form INTERSECTs branches on the projected strings
    // (the paper's Q4/DQ2 shape); when two entities share a display string,
    // that intersection can admit strings the per-entity conjunction (the
    // αDB form) rejects. The αDB result is therefore a subset.
    auto adb_set = ToStringSet(adb_rs.value());
    auto orig_set = ToStringSet(orig_rs.value());
    for (const auto& s : adb_set) {
      EXPECT_TRUE(orig_set.count(s)) << id << " missing " << s;
    }
    EXPECT_LE(orig_set.size(), adb_set.size() + 3) << id;
  }
}

/// Discovers each benchmark query of `queries` from sampled examples, then
/// checks that the αDB query's SQL text (what a socket client receives as
/// WireAnswer::adb_sql) parses and executes to the same ResultSet as the
/// query itself. Returns how many of those texts name a derived `count`
/// column, a keyword the parser must accept as an attribute.
size_t ExpectAdbSqlRoundTrips(const Database& base, const AbductionReadyDb& adb,
                              const std::vector<BenchmarkQuery>& queries) {
  size_t with_count = 0;
  for (const auto& bq : queries) {
    auto truth = GroundTruth(base, bq);
    EXPECT_TRUE(truth.ok()) << bq.id;
    if (!truth.ok()) continue;
    Rng rng(29);
    auto examples = SampleExamples(truth.value(), 8, &rng);
    if (examples.size() < 2) continue;
    Squid squid(&adb);
    auto abduced = squid.Discover(examples);
    if (!abduced.ok()) continue;
    const std::string sql = ToSql(abduced.value().adb_query);
    if (sql.find(".count ") != std::string::npos) ++with_count;
    auto parsed = ParseQuery(sql);
    EXPECT_TRUE(parsed.ok()) << bq.id << ": " << parsed.status().ToString();
    if (!parsed.ok()) continue;
    auto expected = ExecuteQuery(adb.database(), abduced.value().adb_query);
    auto actual = ExecuteQuery(adb.database(), parsed.value());
    EXPECT_TRUE(expected.ok()) << bq.id;
    EXPECT_TRUE(actual.ok()) << bq.id << ": " << actual.status().ToString();
    if (!expected.ok() || !actual.ok()) continue;
    EXPECT_EQ(expected.value().column_names(), actual.value().column_names())
        << bq.id;
    EXPECT_EQ(expected.value().num_rows(), actual.value().num_rows())
        << bq.id << ": " << sql;
    if (expected.value().num_rows() != actual.value().num_rows()) continue;
    for (size_t i = 0; i < expected.value().num_rows(); ++i) {
      EXPECT_EQ(ResultSet::EncodeRow(expected.value().row(i)),
                ResultSet::EncodeRow(actual.value().row(i)))
          << bq.id << " row " << i;
    }
  }
  return with_count;
}

TEST_F(IntegrationFixture, AdbSqlTextRoundTripsOnImdbAndDblp) {
  const size_t imdb_count =
      ExpectAdbSqlRoundTrips(*bench_->data.db, *bench_->adb, bench_->queries);
  DblpBench dblp = BuildDblpBench(0.2);
  const size_t dblp_count =
      ExpectAdbSqlRoundTrips(*dblp.data.db, *dblp.adb, dblp.queries);
  // The derived `count` threshold must actually occur, or the round trip
  // would not cover the keyword-attribute case.
  EXPECT_GT(imdb_count + dblp_count, 0u);
}

TEST_F(IntegrationFixture, QreModeReverseEngineersSelections) {
  // §7.5: full output + optimistic preset reverse engineers selection-based
  // intents (here IQ15, Japanese animation).
  auto query = FindQuery(bench_->queries, "IQ15").value();
  auto truth = GroundTruth(*bench_->data.db, *query);
  ASSERT_TRUE(truth.ok());
  std::vector<std::string> examples;
  for (const Value& v : truth.value().ColumnValues(0)) {
    examples.push_back(v.ToString());
  }
  Squid squid(bench_->adb.get(), SquidConfig::Optimistic());
  auto abduced = squid.Discover(examples);
  ASSERT_TRUE(abduced.ok());
  auto rs = ExecuteQuery(bench_->adb->database(), abduced.value().adb_query);
  ASSERT_TRUE(rs.ok());
  Metrics m = ComputeMetrics(ToStringSet(truth.value()), ToStringSet(rs.value()));
  EXPECT_GT(m.fscore, 0.9);
}

TEST_F(IntegrationFixture, SquidQueriesSmallerThanTalos) {
  // Fig. 15's headline: SQuID's abduced queries carry far fewer predicates.
  auto query = FindQuery(bench_->queries, "IQ15").value();
  auto truth = GroundTruth(*bench_->data.db, *query);
  ASSERT_TRUE(truth.ok());
  std::vector<std::string> examples;
  for (const Value& v : truth.value().ColumnValues(0)) {
    examples.push_back(v.ToString());
  }
  Squid squid(bench_->adb.get(), SquidConfig::Optimistic());
  auto abduced = squid.Discover(examples);
  ASSERT_TRUE(abduced.ok());

  auto keys = GroundTruthKeys(*bench_->data.db, *query);
  auto talos = RunTalos(*bench_->adb, "movie", keys);
  ASSERT_TRUE(talos.ok());
  EXPECT_LT(abduced.value().original_query.NumPredicates(),
            talos.value().num_predicates);
}

TEST_F(IntegrationFixture, AbductionIsDeterministic) {
  auto query = FindQuery(bench_->queries, "IQ13").value();
  auto truth = GroundTruth(*bench_->data.db, *query);
  ASSERT_TRUE(truth.ok());
  Rng rng(21);
  auto examples = SampleExamples(truth.value(), 6, &rng);
  Squid squid(bench_->adb.get());
  auto a = squid.Discover(examples);
  auto b = squid.Discover(examples);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(ToSql(a.value().original_query), ToSql(b.value().original_query));
  EXPECT_EQ(a.value().log_posterior, b.value().log_posterior);
}

TEST_F(IntegrationFixture, ParallelAdbBuildPreservesDiscoverOutput) {
  // The offline phase's determinism contract, end to end: an αDB built with
  // 8 threads must be indistinguishable from the serial build — identical
  // αDB relations, identical abduced queries, identical posteriors, and
  // identical result sets for the same examples.
  AdbOptions serial_options;
  serial_options.threads = 1;
  auto serial = AbductionReadyDb::Build(*bench_->data.db, serial_options);
  ASSERT_TRUE(serial.ok());
  AdbOptions parallel_options;
  parallel_options.threads = 8;
  auto parallel = AbductionReadyDb::Build(*bench_->data.db, parallel_options);
  ASSERT_TRUE(parallel.ok());

  testing::ExpectDatabasesIdentical(serial.value()->database(),
                                    parallel.value()->database());

  for (const char* id : {"IQ1", "IQ6", "IQ13", "IQ15"}) {
    auto query = FindQuery(bench_->queries, id).value();
    auto truth = GroundTruth(*bench_->data.db, *query);
    ASSERT_TRUE(truth.ok());
    Rng rng(51);
    auto examples = SampleExamples(truth.value(), 8, &rng);
    if (examples.size() < 2) continue;
    Squid squid_serial(serial.value().get());
    Squid squid_parallel(parallel.value().get());
    auto a = squid_serial.Discover(examples);
    auto b = squid_parallel.Discover(examples);
    ASSERT_TRUE(a.ok()) << id;
    ASSERT_TRUE(b.ok()) << id;
    EXPECT_EQ(ToSql(a.value().original_query), ToSql(b.value().original_query)) << id;
    EXPECT_EQ(ToSql(a.value().adb_query), ToSql(b.value().adb_query)) << id;
    EXPECT_EQ(a.value().log_posterior, b.value().log_posterior) << id;
    auto rs_a = ExecuteQuery(serial.value()->database(), a.value().adb_query);
    auto rs_b = ExecuteQuery(parallel.value()->database(), b.value().adb_query);
    ASSERT_TRUE(rs_a.ok()) << id;
    ASSERT_TRUE(rs_b.ok()) << id;
    EXPECT_EQ(ToStringSet(rs_a.value()), ToStringSet(rs_b.value())) << id;
  }
}

TEST_F(IntegrationFixture, ParallelAdbBuildPreservesAccuracyFigures) {
  // Fig. 10's protocol (AccuracyAtSize) must produce the same numbers on a
  // serial and a parallel αDB: same examples drawn, same metrics, bit for
  // bit.
  AdbOptions parallel_options;
  parallel_options.threads = 8;
  auto parallel = AbductionReadyDb::Build(*bench_->data.db, parallel_options);
  ASSERT_TRUE(parallel.ok());
  SquidConfig config;
  for (const char* id : {"IQ1", "IQ13"}) {
    auto query = FindQuery(bench_->queries, id).value();
    auto truth = GroundTruth(*bench_->data.db, *query);
    ASSERT_TRUE(truth.ok());
    for (size_t n : {5u, 10u}) {
      if (n > truth.value().num_rows()) break;
      auto serial_point =
          AccuracyAtSize(*bench_->adb, config, truth.value(), n, 2, 500 + n);
      auto parallel_point =
          AccuracyAtSize(*parallel.value(), config, truth.value(), n, 2, 500 + n);
      ASSERT_EQ(serial_point.ok(), parallel_point.ok()) << id;
      if (!serial_point.ok()) continue;
      EXPECT_EQ(serial_point.value().metrics.precision,
                parallel_point.value().metrics.precision)
          << id << " n=" << n;
      EXPECT_EQ(serial_point.value().metrics.recall,
                parallel_point.value().metrics.recall)
          << id << " n=" << n;
      EXPECT_EQ(serial_point.value().metrics.fscore,
                parallel_point.value().metrics.fscore)
          << id << " n=" << n;
    }
  }
}

TEST_F(IntegrationFixture, MoreExamplesNeverLoseValidity) {
  // Growing |E| keeps the abduced query valid and (typically) more precise.
  auto query = FindQuery(bench_->queries, "IQ6").value();
  auto truth = GroundTruth(*bench_->data.db, *query);
  ASSERT_TRUE(truth.ok());
  auto intended = ToStringSet(truth.value());
  double previous_precision = -1;
  for (size_t n : {4u, 12u, 24u}) {
    if (n > truth.value().num_rows()) break;
    Rng rng(31);
    auto examples = SampleExamples(truth.value(), n, &rng);
    auto outcome = RunDiscovery(*bench_->adb, SquidConfig{}, examples, intended);
    ASSERT_TRUE(outcome.ok());
    EXPECT_GE(outcome.value().metrics.recall, 0.0);
    previous_precision = outcome.value().metrics.precision;
  }
  EXPECT_GE(previous_precision, 0.0);
}

}  // namespace
}  // namespace squid
