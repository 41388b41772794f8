// Self-test of the benchmark's correctness checks: each check must accept a
// genuine answer and report a failure for a deliberately corrupted one.
//
//   python3 perfbench/run.py --selftest
//
// Exits 0 when every check behaves, 1 otherwise.

#include <cstdio>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench_common.h"

#include "adb/abduction_ready_db.h"
#include "core/squid.h"
#include "datagen/dblp_generator.h"
#include "eval/metrics.h"
#include "exec/executor.h"
#include "net/frame.h"

namespace squid {
namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

int Main() {
  DblpOptions options;
  options.scale = 0.3;
  options.threads = 1;
  Result<DblpData> data = GenerateDblp(options);
  if (!data.ok()) return std::fprintf(stderr, "%s\n", data.status().ToString().c_str()), 2;
  AdbOptions adb_options;
  adb_options.threads = 1;
  Result<std::unique_ptr<AbductionReadyDb>> adb =
      AbductionReadyDb::Build(*data.value().db, adb_options);
  if (!adb.ok()) return std::fprintf(stderr, "%s\n", adb.status().ToString().c_str()), 2;

  const std::vector<std::string>& cohort = data.value().manifest.prolific_authors;
  if (cohort.size() < 3) return std::fprintf(stderr, "prolific cohort too small\n"), 2;
  const std::vector<std::string> examples(cohort.begin(), cohort.begin() + 3);
  Squid squid(adb.value().get());
  Result<AbducedQuery> q = squid.Discover(examples);
  if (!q.ok()) return std::fprintf(stderr, "%s\n", q.status().ToString().c_str()), 2;
  Result<ResultSet> rs = ExecuteQuery(adb.value()->database(), q.value().adb_query);
  if (!rs.ok()) return std::fprintf(stderr, "%s\n", rs.status().ToString().c_str()), 2;
  const std::unordered_set<std::string> result = ToStringSet(rs.value());
  const std::vector<Filter>& filters = q.value().filters;
  const double rho = squid.config().rho;
  const std::string answer = net::WireAnswer::FromQuery(q.value()).Encode();

  // Genuine answers pass.
  Expect(CheckExamplesInResult(examples, result).empty(), "examples in result: genuine");
  Expect(!filters.empty() && CheckFilterDecisions(filters, rho, examples.size()).empty(),
         "filter decisions: genuine");
  Expect(CheckSameAnswer(answer, answer).empty(), "same answer: genuine");

  // Check 1: an example dropped from the result.
  std::unordered_set<std::string> dropped = result;
  dropped.erase(examples[1]);
  Expect(!CheckExamplesInResult(examples, dropped).empty(),
         "examples in result: dropped example caught");

  // Check 2: one filter decision flipped, each filter in turn.
  bool all_caught = !filters.empty();
  for (size_t i = 0; i < filters.size(); ++i) {
    std::vector<Filter> flipped = filters;
    flipped[i].included = !flipped[i].included;
    all_caught = all_caught && !CheckFilterDecisions(flipped, rho, examples.size()).empty();
  }
  Expect(all_caught, "filter decisions: flipped decision caught");

  // Check 3: one byte of the wire answer changed, at every position.
  all_caught = true;
  for (size_t i = 0; i < answer.size(); ++i) {
    std::string corrupt = answer;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x01);
    all_caught = all_caught && !CheckSameAnswer(corrupt, answer).empty();
  }
  Expect(all_caught, "same answer: changed byte caught");

  // Exact quantiles: 1..100 has p50 = 50, p99 = 99 and one sample beyond.
  std::vector<double> ramp;
  for (int i = 100; i >= 1; --i) ramp.push_back(i);
  const Summary s = Summarize(ramp);
  Expect(s.n == 100 && s.p50 == 50 && s.p99 == 99 && s.beyond_p99 == 1, "exact quantiles");

  // Prepared inputs round-trip, and a truncated file is refused.
  PreparedInputs in;
  in.truth_ids = {"DQ2"};
  in.truths = {examples};
  in.requests.push_back(PreparedRequest{0, examples, answer});
  in.sessions = {{0}};
  const std::string bytes = EncodeInputs(in);
  Result<PreparedInputs> back = DecodeInputs(bytes);
  Expect(back.ok() && EncodeInputs(back.value()) == bytes, "inputs round-trip");
  Expect(!DecodeInputs(bytes.substr(0, bytes.size() - 1)).ok(), "truncated inputs refused");

  std::printf("%s\n", failures == 0 ? "selftest passed" : "selftest FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench
}  // namespace squid

int main() { return squid::perfbench::Main(); }
