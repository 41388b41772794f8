// End-to-end benchmark of SQuID over three closed-loop workloads:
//
//   explore   IMDb, αDB built in-process on one thread, one in-process client
//   sessions  DBLP snapshot booted behind TcpServer, two socket clients
//             replaying add-one-example sessions
//   boot      IMDb snapshot, repeated cold boot + a short list of requests
//
// Every answer is checked (bench_common.h). Latencies are exact quantiles of
// every sample. `--trace 1` runs a separate per-layer replay instead of the
// timed loop. perfbench/run.py builds this binary and drives it; see
// perfbench/README.md for the workload make-up and the metric map.
//
//   squid_perfbench prepare --workload sessions|boot --seed N --dir D
//   squid_perfbench run --workload W --seed N --seconds S --trace 0|1 --dir D

#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bench_common.h"

#include "adb/abduction_ready_db.h"
#include "adb/derived_relation.h"
#include "adb/schema_graph.h"
#include "adb/statistics.h"
#include "common/rng.h"
#include "core/abduction_model.h"
#include "core/context_discovery.h"
#include "core/disambiguation.h"
#include "core/entity_lookup.h"
#include "core/query_builder.h"
#include "core/squid.h"
#include "datagen/dblp_generator.h"
#include "datagen/imdb_generator.h"
#include "eval/metrics.h"
#include "eval/sampler.h"
#include "exec/executor.h"
#include "net/frame.h"
#include "net/tcp_client.h"
#include "net/tcp_server.h"
#include "serve/squid_service.h"
#include "storage/inverted_index.h"
#include "storage/snapshot.h"
#include "workloads/benchmark_query.h"
#include "workloads/dblp_queries.h"
#include "workloads/imdb_queries.h"

namespace squid {
namespace perfbench {
namespace {

// --- Committed inputs (datagen seeds are the generators' defaults: IMDb 42,
// DBLP 43). The workload seed only drives example-set sampling. ---
constexpr double kExploreScale = 0.3;   // IMDb
constexpr double kSessionsScale = 0.5;  // DBLP
constexpr double kBootScale = 0.6;      // IMDb, larger than explore

// A run splits its work over several worker processes, one after another
// (RunInProcesses).
constexpr size_t kExploreProcesses = 8;  // each builds the αDB once
constexpr size_t kSessionsProcesses = 8;
constexpr size_t kBootProcesses = 16;  // kBootSetsPerTruth divides the boots
constexpr size_t kExploreSetsPerTruth = 2;   // per round
constexpr size_t kExploreMaxExamples = 25;
// DQ1..DQ5 and the cohort. Each sessions process replays its own
// contiguous eighth (SessionShare), which holds every source evenly.
constexpr size_t kSessionsPerSource = 384;
constexpr size_t kSessionMaxExamples = 10;
constexpr size_t kSessionsWorkers = 2;
constexpr size_t kSessionsClients = 2;
constexpr size_t kSessionsBootsPerProcess = 2;
constexpr size_t kSessionsCpus = 1;  // see PinToCpus
constexpr size_t kBootSetsPerTruth = 64;
constexpr size_t kBootMaxExamples = 15;

// Fixed work per run: `--seconds` times these nominal rates (measured on
// the reference machine, README.md), rounded up to whole rounds. Every run
// of one --seconds does the same number of operations.
constexpr double kExploreSetsPerSecond = 480;
constexpr double kSessionsRequestsPerSecond = 7000;
constexpr double kBootsPerSecond = 6;

struct Args {
  std::string mode;
  std::string workload;
  std::string dir = ".";
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(2);
}

template <typename T>
T Check(Result<T> r, const std::string& what) {
  if (!r.ok()) Die(what + ": " + r.status().ToString());
  return std::move(r).value();
}

void Check(const Status& s, const std::string& what) {
  if (!s.ok()) Die(what + ": " + s.ToString());
}

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t x = a * 0x9E3779B97F4A7C15ULL + b + 0x632BE59BD9B4E019ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

double ElapsedMs(uint64_t from_ns, uint64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e6;
}

double PeakRssMib() {
  struct rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double FileMib(const std::string& path) {
  struct stat st;
  if (stat(path.c_str(), &st) != 0) Die("cannot stat " + path);
  return static_cast<double>(st.st_size) / (1024.0 * 1024.0);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) Die("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) Die("cannot write " + path);
}

double Sum(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return sum;
}

double Mean(const std::vector<double>& v) {
  return v.empty() ? 0 : Sum(v) / static_cast<double>(v.size());
}

std::string Encoded(const AbducedQuery& q) { return net::WireAnswer::FromQuery(q).Encode(); }

// ---------------------------------------------------------------------------
// Inputs: datasets, ground truths, example sets.
// ---------------------------------------------------------------------------

ImdbData MakeImdb(double scale) {
  ImdbOptions options;
  options.scale = scale;
  options.threads = 1;
  return Check(GenerateImdb(options), "GenerateImdb");
}

DblpData MakeDblp() {
  DblpOptions options;
  options.scale = kSessionsScale;
  options.threads = 1;
  return Check(GenerateDblp(options), "GenerateDblp");
}

std::unique_ptr<AbductionReadyDb> BuildAdb(const Database& db) {
  AdbOptions options;
  options.threads = 1;
  return Check(AbductionReadyDb::Build(db, options), "AbductionReadyDb::Build");
}

/// Ground truths (distinct, sorted strings) of the queries with at least two
/// answers — an example set needs two examples.
void AddTruths(const Database& db, const std::vector<BenchmarkQuery>& queries,
               PreparedInputs* in) {
  for (const BenchmarkQuery& q : queries) {
    ResultSet rs = Check(GroundTruth(db, q), "ground truth of " + q.id);
    std::unordered_set<std::string> set = ToStringSet(rs);
    std::vector<std::string> truth(set.begin(), set.end());
    std::sort(truth.begin(), truth.end());
    if (truth.size() < 2) continue;
    in->truth_ids.push_back(q.id);
    in->truths.push_back(std::move(truth));
  }
}

using TruthSet = std::unordered_set<std::string>;

/// The ground truths as hash sets, built once for scoring.
std::vector<TruthSet> TruthSets(const PreparedInputs& in) {
  std::vector<TruthSet> out;
  for (const auto& truth : in.truths) out.emplace_back(truth.begin(), truth.end());
  return out;
}

/// An example set of 2..max_examples distinct answers of truth `t`.
PreparedRequest SampleRequest(const PreparedInputs& in, size_t t, size_t max_examples,
                              Rng* rng) {
  PreparedRequest r;
  r.truth = static_cast<uint32_t>(t);
  const auto& truth = in.truths[t];
  const size_t k = static_cast<size_t>(rng->UniformInt(
      2, static_cast<int64_t>(std::min(max_examples, truth.size()))));
  r.examples = SampleExamples(truth, k, rng);
  return r;
}

/// Explore's example sets of one round: kExploreSetsPerTruth from every
/// truth, so a round's mix of queries does not depend on the seed (round ~0
/// is the warm-up).
std::vector<PreparedRequest> ExploreRound(const PreparedInputs& in, uint64_t seed,
                                          uint64_t round) {
  Rng rng(Mix(seed, round));
  std::vector<PreparedRequest> out;
  for (size_t rep = 0; rep < kExploreSetsPerTruth; ++rep) {
    for (size_t t = 0; t < in.truths.size(); ++t) {
      out.push_back(SampleRequest(in, t, kExploreMaxExamples, &rng));
    }
  }
  return out;
}

/// Sessions: a user adds one example at a time, from 2 up to L examples
/// (L in 2..10), drawn from a DQ ground truth or the prolific-author cohort
/// (scored against DQ2, the query that plants that cohort).
void BuildSessions(const DblpManifest& manifest, uint64_t seed, PreparedInputs* in) {
  size_t dq2 = in->truths.size();
  for (size_t i = 0; i < in->truth_ids.size(); ++i) {
    if (in->truth_ids[i] == "DQ2") dq2 = i;
  }
  if (dq2 == in->truths.size()) Die("DQ2 ground truth missing");
  std::vector<std::string> cohort = manifest.prolific_authors;
  std::sort(cohort.begin(), cohort.end());
  const size_t sources = in->truths.size() + 1;  // every truth + the cohort
  std::map<std::vector<std::string>, uint32_t> index;
  Rng rng(Mix(seed, 7));
  for (size_t s = 0; s < kSessionsPerSource * sources; ++s) {
    const size_t source = s % sources;
    const bool from_cohort = source == in->truths.size();
    const std::vector<std::string>& pool = from_cohort ? cohort : in->truths[source];
    const size_t len = static_cast<size_t>(rng.UniformInt(
        2, static_cast<int64_t>(std::min(kSessionMaxExamples, pool.size()))));
    std::vector<std::string> order = SampleExamples(pool, len, &rng);
    rng.Shuffle(&order);
    std::vector<uint32_t> steps;
    for (size_t k = 2; k <= order.size(); ++k) {
      std::vector<std::string> prefix(order.begin(), order.begin() + k);
      auto it = index.find(prefix);
      if (it == index.end()) {
        PreparedRequest r;
        r.truth = static_cast<uint32_t>(from_cohort ? dq2 : source);
        r.examples = prefix;
        it = index.emplace(prefix, static_cast<uint32_t>(in->requests.size())).first;
        in->requests.push_back(std::move(r));
      }
      steps.push_back(it->second);
    }
    in->sessions.push_back(std::move(steps));
  }
}

std::string SnapshotPath(const Args& a) { return a.dir + "/" + a.workload + ".snap"; }
std::string InputsPath(const Args& a) { return a.dir + "/" + a.workload + ".inputs"; }

/// Untimed preparation for sessions and boot: generate the tables, build the
/// αDB, write its snapshot, and record the reference answer of
/// Squid::Discover for every request (with its filter decisions checked).
int Prepare(const Args& a) {
  PreparedInputs in;
  std::unique_ptr<Database> db;
  if (a.workload == "sessions") {
    DblpData data = MakeDblp();
    AddTruths(*data.db, DblpBenchmarkQueries(data.manifest), &in);
    BuildSessions(data.manifest, a.seed, &in);
    db = std::move(data.db);
  } else if (a.workload == "boot") {
    ImdbData data = MakeImdb(kBootScale);
    AddTruths(*data.db, ImdbBenchmarkQueries(data.manifest), &in);
    Rng rng(Mix(a.seed, 11));
    for (size_t i = 0; i < kBootSetsPerTruth; ++i) {
      for (size_t t = 0; t < in.truths.size(); ++t) {
        in.requests.push_back(SampleRequest(in, t, kBootMaxExamples, &rng));
      }
    }
    db = std::move(data.db);
  } else {
    Die("nothing to prepare for workload " + a.workload);
  }
  std::unique_ptr<AbductionReadyDb> adb = BuildAdb(*db);
  Check(adb->SaveSnapshot(SnapshotPath(a)), "SaveSnapshot");
  Squid squid(adb.get());
  for (PreparedRequest& r : in.requests) {
    AbducedQuery q = Check(squid.Discover(r.examples), "reference Discover");
    std::string why = CheckFilterDecisions(q.filters, squid.config().rho,
                                           q.entity_keys.size());
    if (!why.empty()) Die("reference answer: " + why);
    r.reference = Encoded(q);
  }
  WriteFile(InputsPath(a), EncodeInputs(in));
  std::fprintf(stderr, "prepared %s: %zu requests, %zu sessions\n", a.workload.c_str(),
               in.requests.size(), in.sessions.size());
  return 0;
}

// ---------------------------------------------------------------------------
// Results and reporting.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  void Add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
};

/// Operation outcomes and samples of the timed loop.
struct Samples {
  std::vector<double> discover_ms;
  std::vector<double> answer_ms;
  std::vector<double> fscores;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_failure;

  void Fail(const std::string& why) {
    ++failed;
    if (first_failure.empty()) first_failure = why;
  }
  /// Counts `o`'s operations and failures but not its samples (warm-up).
  void AddOutcomes(const Samples& o) {
    attempted += o.attempted;
    failed += o.failed;
    if (first_failure.empty()) first_failure = o.first_failure;
  }
  void Merge(Samples&& o) {
    discover_ms.insert(discover_ms.end(), o.discover_ms.begin(), o.discover_ms.end());
    answer_ms.insert(answer_ms.end(), o.answer_ms.begin(), o.answer_ms.end());
    fscores.insert(fscores.end(), o.fscores.begin(), o.fscores.end());
    AddOutcomes(o);
  }
};

/// What one worker process of a run measured.
struct Part {
  Samples s;
  std::vector<double> setup_s;
  double loop_s = 0;  // wall time of the timed closed loop (printed only)
  double peak_rss_mib = 0;
  double snapshot_mib = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
};

void AppendDoubles(std::string* out, const std::vector<double>& v) {
  wire::AppendU32(out, static_cast<uint32_t>(v.size()));
  for (double x : v) wire::AppendDouble(out, x);
}

Status ReadDoubles(wire::WireReader* in, std::vector<double>* v) {
  uint32_t n = 0;
  SQUID_RETURN_NOT_OK(in->ReadU32(&n));
  if (n > in->remaining() / 8) return Status::Corruption("sample count beyond input");
  v->resize(n);
  for (double& x : *v) SQUID_RETURN_NOT_OK(in->ReadDouble(&x));
  return Status::OK();
}

std::string EncodePart(const Part& p) {
  std::string out;
  AppendDoubles(&out, p.s.discover_ms);
  AppendDoubles(&out, p.s.answer_ms);
  AppendDoubles(&out, p.s.fscores);
  AppendDoubles(&out, p.setup_s);
  wire::AppendU64(&out, p.s.attempted);
  wire::AppendU64(&out, p.s.failed);
  wire::AppendString(&out, p.s.first_failure);
  wire::AppendDouble(&out, p.loop_s);
  wire::AppendDouble(&out, p.peak_rss_mib);
  wire::AppendDouble(&out, p.snapshot_mib);
  wire::AppendU64(&out, p.cache_hits);
  wire::AppendU64(&out, p.cache_misses);
  return out;
}

Result<Part> DecodePart(const std::string& bytes) {
  wire::WireReader in(bytes);
  Part p;
  SQUID_RETURN_NOT_OK(ReadDoubles(&in, &p.s.discover_ms));
  SQUID_RETURN_NOT_OK(ReadDoubles(&in, &p.s.answer_ms));
  SQUID_RETURN_NOT_OK(ReadDoubles(&in, &p.s.fscores));
  SQUID_RETURN_NOT_OK(ReadDoubles(&in, &p.setup_s));
  SQUID_RETURN_NOT_OK(in.ReadU64(&p.s.attempted));
  SQUID_RETURN_NOT_OK(in.ReadU64(&p.s.failed));
  SQUID_RETURN_NOT_OK(in.ReadString(&p.s.first_failure));
  SQUID_RETURN_NOT_OK(in.ReadDouble(&p.loop_s));
  SQUID_RETURN_NOT_OK(in.ReadDouble(&p.peak_rss_mib));
  SQUID_RETURN_NOT_OK(in.ReadDouble(&p.snapshot_mib));
  SQUID_RETURN_NOT_OK(in.ReadU64(&p.cache_hits));
  SQUID_RETURN_NOT_OK(in.ReadU64(&p.cache_misses));
  if (!in.AtEnd()) return Status::Corruption("trailing bytes in part");
  return p;
}

void PrintLatency(const char* name, const std::vector<double>& ms) {
  Summary s = Summarize(ms);
  std::printf("%-12s n=%zu  p50=%.4f ms  p99=%.4f ms  beyond_p99=%zu\n", name, s.n, s.p50,
              s.p99, s.beyond_p99);
}

/// Runs `fn(part)` for part = 0..parts-1, each in its own child process, one
/// after the other, and returns what each measured. The same work splits over
/// several processes because one process's speed can sit well off another's
/// for its whole life on a shared VM, and the host slows down for stretches
/// of several seconds; ReportEndToEnd's medians over processes set both apart.
std::vector<Part> RunInProcesses(const Args& a, size_t parts,
                                 const std::function<Part(size_t)>& fn) {
  std::vector<Part> out;
  for (size_t p = 0; p < parts; ++p) {
    const std::string path = a.dir + "/" + a.workload + ".part" + std::to_string(p);
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = fork();
    if (pid < 0) Die("fork failed");
    if (pid == 0) {
      Part part = fn(p);
      part.peak_rss_mib = PeakRssMib();
      WriteFile(path, EncodePart(part));
      std::fflush(stdout);
      _exit(0);
    }
    int status = 0;
    if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      Die("worker process " + std::to_string(p) + " failed");
    }
    Part part = Check(DecodePart(ReadFile(path)), "worker result");
    std::remove(path.c_str());
    std::printf("process %zu: timed loop %.3f s, Discover time summed over clients %.3f s\n", p,
                part.loop_s, Sum(part.s.discover_ms) / 1e3);
    PrintLatency("  discover", part.s.discover_ms);
    PrintLatency("  answer", part.s.answer_ms);
    out.push_back(std::move(part));
  }
  return out;
}

/// Checks 1 (examples in the executed result) and scores the result against
/// the truth. Returns the failure reason, empty when the answer passes.
std::string CheckAndScore(const std::vector<std::string>& examples, const ResultSet& rs,
                          const TruthSet& truth, Samples* s) {
  std::unordered_set<std::string> result = ToStringSet(rs);
  std::string why = CheckExamplesInResult(examples, result);
  if (!why.empty()) return why;
  s->fscores.push_back(ComputeMetrics(truth, result).fscore);
  return "";
}

int Report(const RunResult& r) {
  std::string json = "{\"correct\": ";
  json += r.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    std::printf("%-28s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return r.failed == 0 ? 0 : 1;
}

/// Every latency quantile and discover_rps is computed per process, as an
/// exact quantile of all that process's samples, and the run reports the
/// median over its processes. `clients` is the number of closed-loop clients
/// that issued the Discover samples: discover_rps is clients / mean latency,
/// so the client's own work between requests (checks, scoring, sampling)
/// does not count.
int ReportEndToEnd(const std::vector<Part>& parts, size_t clients) {
  RunResult out;
  std::vector<double> setup_s, fscores, discover_p50, discover_p99, rps, answer_p50, answer_p99;
  double peak_rss_mib = 0;
  uint64_t hits = 0, misses = 0;
  std::string first_failure;
  for (const Part& p : parts) {
    out.attempted += p.s.attempted;
    out.failed += p.s.failed;
    if (first_failure.empty()) first_failure = p.s.first_failure;
    setup_s.insert(setup_s.end(), p.setup_s.begin(), p.setup_s.end());
    fscores.insert(fscores.end(), p.s.fscores.begin(), p.s.fscores.end());
    const Summary d = Summarize(p.s.discover_ms);
    const Summary ans = Summarize(p.s.answer_ms);
    discover_p50.push_back(d.p50);
    discover_p99.push_back(d.p99);
    rps.push_back(static_cast<double>(clients * d.n) / (Sum(p.s.discover_ms) / 1e3));
    answer_p50.push_back(ans.p50);
    answer_p99.push_back(ans.p99);
    peak_rss_mib = std::max(peak_rss_mib, p.peak_rss_mib);
    hits += p.cache_hits;
    misses += p.cache_misses;
  }
  std::printf("context cache: hits %llu misses %llu\n", static_cast<unsigned long long>(hits),
              static_cast<unsigned long long>(misses));
  if (!first_failure.empty()) std::printf("first failure: %s\n", first_failure.c_str());
  out.Add("setup_s", Median(setup_s), "s");
  out.Add("discover_p50_ms", Median(discover_p50), "ms");
  out.Add("discover_p99_ms", Median(discover_p99), "ms");
  out.Add("discover_rps", Median(rps), "req/s");
  out.Add("answer_p50_ms", Median(answer_p50), "ms");
  out.Add("answer_p99_ms", Median(answer_p99), "ms");
  out.Add("fscore_mean", Mean(fscores), "ratio");
  out.Add("peak_rss_mib", peak_rss_mib, "MiB");
  out.Add("snapshot_mib", parts.back().snapshot_mib, "MiB");
  return Report(out);
}

/// Rounds of fixed work for `seconds` at the nominal rate, rounded up to a
/// multiple of `parts` so every process of the run does the same work.
size_t RoundsFor(double seconds, double ops_per_second, size_t ops_per_round, size_t parts) {
  const double ops = seconds * ops_per_second;
  const size_t rounds = std::max<size_t>(
      1, static_cast<size_t>(std::ceil(ops / static_cast<double>(ops_per_round))));
  return (rounds + parts - 1) / parts * parts;
}

PreparedInputs LoadInputs(const Args& a) {
  return Check(DecodeInputs(ReadFile(InputsPath(a))), "inputs " + InputsPath(a));
}

// ---------------------------------------------------------------------------
// Timed workloads.
// ---------------------------------------------------------------------------

/// One in-process Discover + ExecuteQuery with all in-process checks.
/// `reference` (may be null) is compared byte for byte.
void AnswerInProcess(SquidService* service, const AbductionReadyDb& adb,
                     const PreparedRequest& r, const TruthSet& truth,
                     const std::string* reference, Samples* s) {
  ++s->attempted;
  const uint64_t t0 = NowNs();
  Result<AbducedQuery> q = service->DiscoverSync(r.examples);
  const uint64_t t1 = NowNs();
  if (!q.ok()) return s->Fail("Discover: " + q.status().ToString());
  Result<ResultSet> rs = ExecuteQuery(adb.database(), q.value().adb_query);
  const uint64_t t2 = NowNs();
  if (!rs.ok()) return s->Fail("ExecuteQuery: " + rs.status().ToString());
  std::string why = CheckFilterDecisions(q.value().filters, service->options().config.rho,
                                         q.value().entity_keys.size());
  if (why.empty() && reference != nullptr) why = CheckSameAnswer(Encoded(q.value()), *reference);
  if (why.empty()) why = CheckAndScore(r.examples, rs.value(), truth, s);
  if (!why.empty()) return s->Fail(why);
  s->discover_ms.push_back(ElapsedMs(t0, t1));
  s->answer_ms.push_back(ElapsedMs(t0, t2));
}

void CountCache(const SquidService& service, Part* p) {
  const ServeStats stats = service.stats();
  p->cache_hits = stats.hits;
  p->cache_misses = stats.misses;
}

Part ExplorePart(const Args& a, size_t part, size_t parts) {
  Part p;
  ImdbData data = MakeImdb(kExploreScale);
  PreparedInputs in;
  AddTruths(*data.db, ImdbBenchmarkQueries(data.manifest), &in);

  // Set-up: base tables in memory -> ready to answer.
  ServeOptions options;
  options.threads = 1;
  const uint64_t t0 = NowNs();
  std::unique_ptr<AbductionReadyDb> adb = BuildAdb(*data.db);
  auto service = std::make_unique<SquidService>(adb.get(), options);
  p.setup_s.push_back(ElapsedMs(t0, NowNs()) / 1e3);
  const std::string snap = SnapshotPath(a);
  Check(adb->SaveSnapshot(snap), "SaveSnapshot");
  p.snapshot_mib = FileMib(snap);

  const std::vector<TruthSet> truths = TruthSets(in);
  Samples warmup;
  for (const PreparedRequest& r : ExploreRound(in, a.seed, ~0ULL)) {
    AnswerInProcess(service.get(), *adb, r, truths[r.truth], nullptr, &warmup);
  }
  const size_t per_round = kExploreSetsPerTruth * in.truths.size();
  const size_t rounds = RoundsFor(a.seconds, kExploreSetsPerSecond, per_round, parts);
  std::vector<PreparedRequest> timed;
  for (size_t round = part; round < rounds; round += parts) {
    for (PreparedRequest& r : ExploreRound(in, a.seed, round)) timed.push_back(std::move(r));
  }
  const uint64_t t1 = NowNs();
  for (const PreparedRequest& r : timed) {
    AnswerInProcess(service.get(), *adb, r, truths[r.truth], nullptr, &p.s);
  }
  p.loop_s = ElapsedMs(t1, NowNs()) / 1e3;
  p.s.AddOutcomes(warmup);
  CountCache(*service, &p);
  return p;
}

struct SocketServing {
  std::unique_ptr<SnapshotBootedService> booted;
  std::unique_ptr<net::TcpServer> server;  // declared last: stops first
};

SocketServing BootSocketServing(const std::string& snap) {
  SocketServing s;
  ServeOptions options;
  options.threads = kSessionsWorkers;
  s.booted = Check(BootServiceFromSnapshot(snap, options), "BootServiceFromSnapshot");
  s.server = std::make_unique<net::TcpServer>(s.booted->service.get());
  Check(s.server->Start(), "TcpServer::Start");
  return s;
}

/// One socket round trip for `r`, with its answer checked byte for byte
/// against the reference. Returns false (and counts a failure) if it fails.
bool RoundTrip(net::TcpClient* c, const PreparedRequest& r, double* ms, Samples* s) {
  ++s->attempted;
  const uint64_t t0 = NowNs();
  Result<net::Reply> reply = c->Discover(r.examples);
  *ms = ElapsedMs(t0, NowNs());
  std::string why;
  if (!reply.ok()) {
    why = "socket: " + reply.status().ToString();
  } else if (reply.value().kind != net::Reply::Kind::kOk) {
    why = "reply is not DiscoverOk";
  } else {
    why = CheckSameAnswer(reply.value().answer.Encode(), r.reference);
  }
  if (!why.empty()) s->Fail(why);
  return why.empty();
}

/// The sessions [first, second) that process `part` of `parts` replays.
std::pair<size_t, size_t> SessionShare(const PreparedInputs& in, size_t part, size_t parts) {
  const size_t n = in.sessions.size();
  return {part * n / parts, (part + 1) * n / parts};
}

/// One client replaying its half of `share` for `rounds` rounds: socket
/// round trips and the byte check, nothing else.
Samples ReplaySessions(uint16_t port, const PreparedInputs& in,
                       std::pair<size_t, size_t> share, size_t client, size_t rounds) {
  Samples s;
  Result<net::TcpClient> conn = net::TcpClient::Connect("127.0.0.1", port);
  if (!conn.ok()) {
    s.Fail("connect: " + conn.status().ToString());
    return s;
  }
  net::TcpClient c = std::move(conn).value();
  for (size_t round = 0; round < rounds; ++round) {
    for (size_t j = share.first + client; j < share.second; j += kSessionsClients) {
      for (uint32_t step : in.sessions[j]) {
        double ms = 0;
        if (RoundTrip(&c, in.requests[step], &ms, &s)) s.discover_ms.push_back(ms);
      }
    }
  }
  return s;
}

/// Runs `rounds` rounds of `share` on kSessionsClients concurrent connections.
Samples RunClients(uint16_t port, const PreparedInputs& in, std::pair<size_t, size_t> share,
                   size_t rounds) {
  std::vector<Samples> per_client(kSessionsClients);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kSessionsClients; ++c) {
    threads.emplace_back(
        [&, c] { per_client[c] = ReplaySessions(port, in, share, c, rounds); });
  }
  for (std::thread& t : threads) t.join();
  Samples all;
  for (Samples& s : per_client) all.Merge(std::move(s));
  return all;
}

/// Sessions' answers, after the timed loop on one connection: the final
/// request of every session in `share`, which a user runs once the query is
/// what they meant. Each is a socket round trip (byte-checked), then
/// ExecuteQuery of the abduced αDB query, check 1 and its f-score. The wire carries the
/// query only as SQL text, and ToSql's αDB form does not parse back when it
/// names a derived relation's `count` column, so the executed query is
/// Squid::Discover's over the booted αDB, checked byte for byte against the
/// same reference as the wire answer.
Samples AnswerPass(uint16_t port, const PreparedInputs& in, const AbductionReadyDb& adb,
                   std::pair<size_t, size_t> share) {
  Samples s;
  const std::vector<TruthSet> truths = TruthSets(in);
  Squid squid(&adb);
  std::vector<std::pair<size_t, Query>> todo;
  for (size_t j = share.first; j < share.second; ++j) {
    const size_t i = in.sessions[j].back();
    const PreparedRequest& r = in.requests[i];
    Result<AbducedQuery> q = squid.Discover(r.examples);
    std::string why = q.ok() ? CheckSameAnswer(Encoded(q.value()), r.reference)
                             : "Discover: " + q.status().ToString();
    if (!why.empty()) {
      ++s.attempted;
      s.Fail("executed query: " + why);
      continue;
    }
    todo.emplace_back(i, std::move(q).value().adb_query);
  }
  Result<net::TcpClient> conn = net::TcpClient::Connect("127.0.0.1", port);
  if (!conn.ok()) {
    s.attempted += todo.size();
    for (size_t k = 0; k < todo.size(); ++k) s.Fail("connect: " + conn.status().ToString());
    return s;
  }
  net::TcpClient c = std::move(conn).value();
  for (const auto& [i, query] : todo) {
    const PreparedRequest& r = in.requests[i];
    double rtt_ms = 0;
    if (!RoundTrip(&c, r, &rtt_ms, &s)) continue;
    const uint64_t t0 = NowNs();
    Result<ResultSet> rs = ExecuteQuery(adb.database(), query);
    const double exec_ms = ElapsedMs(t0, NowNs());
    if (!rs.ok()) {
      s.Fail("ExecuteQuery: " + rs.status().ToString());
      continue;
    }
    std::string why = CheckAndScore(r.examples, rs.value(), truths[r.truth], &s);
    if (!why.empty()) {
      s.Fail(why);
      continue;
    }
    s.answer_ms.push_back(rtt_ms + exec_ms);
  }
  return s;
}

/// Restricts the calling process, and every thread it starts later, to `n`
/// of the CPUs it may run on: the `part`-th group of `n`, wrapping around, so
/// the processes of one run take turns on every CPU. On two or more CPUs the
/// p99 of the sub-millisecond socket round trips swings several-fold between
/// runs with how fast the VM wakes the other vCPU; on one CPU no hand-off
/// between the clients, the event loop and the workers leaves the CPU.
void PinToCpus(size_t n, size_t part) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) Die("sched_getaffinity failed");
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  cpu_set_t pinned;
  CPU_ZERO(&pinned);
  for (size_t i = 0; i < std::min(n, cpus.size()); ++i) {
    CPU_SET(cpus[(part * n + i) % cpus.size()], &pinned);
  }
  if (sched_setaffinity(0, sizeof(pinned), &pinned) != 0) Die("sched_setaffinity failed");
}

Part SessionsPart(const Args& a, const PreparedInputs& in, size_t part, size_t parts) {
  PinToCpus(kSessionsCpus, part);
  Part p;
  const std::string snap = SnapshotPath(a);
  p.snapshot_mib = FileMib(snap);
  SocketServing serving;
  for (size_t b = 0; b < kSessionsBootsPerProcess; ++b) {
    serving.server.reset();  // the server stops before its service goes
    serving.booted.reset();
    const uint64_t t0 = NowNs();
    serving = BootSocketServing(snap);
    p.setup_s.push_back(ElapsedMs(t0, NowNs()) / 1e3);
  }
  const uint16_t port = serving.server->port();
  const std::pair<size_t, size_t> share = SessionShare(in, part, parts);
  // A round is every session once, over all processes.
  size_t requests_per_round = 0;
  for (const auto& steps : in.sessions) requests_per_round += steps.size();
  Samples warmup = RunClients(port, in, share, 1);
  const size_t rounds = RoundsFor(a.seconds, kSessionsRequestsPerSecond, requests_per_round, 1);
  const uint64_t t0 = NowNs();
  p.s = RunClients(port, in, share, rounds);
  p.loop_s = ElapsedMs(t0, NowNs()) / 1e3;
  p.s.AddOutcomes(warmup);
  Samples answers = AnswerPass(port, in, *serving.booted->adb, share);
  p.s.answer_ms = std::move(answers.answer_ms);
  p.s.fscores = std::move(answers.fscores);
  p.s.AddOutcomes(answers);
  CountCache(*serving.booted->service, &p);
  serving.server->Stop();
  return p;
}

Part BootPart(const Args& a, const PreparedInputs& in, size_t part, size_t parts) {
  PinToCpus(1, part);
  Part p;
  const std::string snap = SnapshotPath(a);
  p.snapshot_mib = FileMib(snap);
  ServeOptions options;
  options.threads = 1;
  const size_t per_boot = in.truths.size();
  const std::vector<TruthSet> truths = TruthSets(in);
  // Cold boot b answers example set b mod kBootSetsPerTruth of every truth.
  auto cycle = [&](size_t b, Samples* s, std::vector<double>* boot_s) {
    const uint64_t t0 = NowNs();
    auto booted = BootServiceFromSnapshot(snap, options);
    const uint64_t t1 = NowNs();
    if (!booted.ok()) return s->Fail("boot: " + booted.status().ToString());
    if (boot_s != nullptr) boot_s->push_back(ElapsedMs(t0, t1) / 1e3);
    const size_t i = b % kBootSetsPerTruth;
    for (size_t k = i * per_boot; k < (i + 1) * per_boot; ++k) {
      const PreparedRequest& r = in.requests[k];
      AnswerInProcess(booted.value()->service.get(), *booted.value()->adb, r, truths[r.truth],
                      &r.reference, s);
    }
    if (boot_s != nullptr) {
      const ServeStats stats = booted.value()->service->stats();
      p.cache_hits += stats.hits;
      p.cache_misses += stats.misses;
    }
  };
  Samples warmup;
  cycle(part, &warmup, nullptr);
  const size_t boots =
      kBootSetsPerTruth * RoundsFor(a.seconds, kBootsPerSecond, kBootSetsPerTruth, 1);
  const uint64_t t0 = NowNs();
  for (size_t b = part; b < boots; b += parts) cycle(b, &p.s, &p.setup_s);
  p.loop_s = ElapsedMs(t0, NowNs()) / 1e3;
  p.s.AddOutcomes(warmup);
  return p;
}

int RunWorkload(const Args& a) {
  if (a.workload == "explore") {
    std::printf("explore: IMDb scale %.2f, %zu processes\n", kExploreScale,
                kExploreProcesses);
    return ReportEndToEnd(RunInProcesses(a, kExploreProcesses, [&](size_t part) {
      return ExplorePart(a, part, kExploreProcesses);
    }), 1);
  }
  const PreparedInputs in = LoadInputs(a);
  if (a.workload == "sessions") {
    std::printf("sessions: DBLP scale %.2f, %zu sessions, %zu distinct requests, "
                "%zu processes\n",
                kSessionsScale, in.sessions.size(), in.requests.size(), kSessionsProcesses);
    return ReportEndToEnd(RunInProcesses(a, kSessionsProcesses, [&](size_t part) {
      return SessionsPart(a, in, part, kSessionsProcesses);
    }), kSessionsClients);
  }
  std::printf("boot: IMDb scale %.2f, %zu requests per boot, %zu processes\n", kBootScale,
              in.truths.size(), kBootProcesses);
  return ReportEndToEnd(RunInProcesses(a, kBootProcesses, [&](size_t part) {
    return BootPart(a, in, part, kBootProcesses);
  }), 1);
}

// ---------------------------------------------------------------------------
// Traced per-layer replay (--trace 1). Never used for end-to-end numbers.
// ---------------------------------------------------------------------------

struct LayerTimes {
  std::vector<double> discover, lookup, disambiguation, context, abduction, query_build;
  std::vector<double> candidates, filters, filters_included;
  std::vector<double> execute, result_rows;
};

/// Squid::Discover re-run through the layers' public functions with a span
/// around each call; returns the same answer Squid::Discover gives.
Result<AbducedQuery> ReplayDiscover(const AbductionReadyDb& adb, const SquidConfig& config,
                                    const std::vector<std::string>& examples,
                                    uint64_t request, SpanLog* log, LayerTimes* t) {
  const uint32_t root = log->Begin("core.discover", request);
  uint32_t span = log->Begin("core.lookup", request, root);
  Result<std::vector<EntityMatch>> matches = LookupExamples(adb, examples);
  t->lookup.push_back(log->End(span));
  if (!matches.ok()) return matches.status();
  double dis = 0, ctx = 0, abd = 0, build = 0;
  std::vector<Result<AbducedQuery>> candidates;
  for (const EntityMatch& match : matches.value()) {
    span = log->Begin("core.disambiguation", request, root);
    Result<ResolvedEntities> resolved = ResolveEntities(adb, match, config);
    dis += log->End(span);
    if (!resolved.ok()) {
      candidates.push_back(resolved.status());
      continue;
    }
    AbducedQuery q;
    q.entity_relation = match.relation;
    q.projection_attr = match.attribute;
    q.entity_keys = resolved.value().keys;
    span = log->Begin("core.context", request, root);
    Result<std::vector<SemanticContext>> contexts =
        DiscoverContexts(adb, match.relation, q.entity_keys, config, &resolved.value().rows);
    ctx += log->End(span);
    if (!contexts.ok()) {
      candidates.push_back(contexts.status());
      continue;
    }
    span = log->Begin("core.abduction", request, root);
    AbductionModel model(&adb, config);
    Result<std::vector<Filter>> filters =
        model.AbduceFilters(contexts.value(), q.entity_keys.size());
    if (filters.ok()) {
      q.filters = std::move(filters).value();
      q.log_posterior = AbductionModel::LogPosterior(q.filters);
    }
    abd += log->End(span);
    if (!filters.ok()) {
      candidates.push_back(filters.status());
      continue;
    }
    span = log->Begin("core.query_build", request, root);
    QueryBuilder builder(&adb, config);
    Result<Query> adb_query = builder.BuildAdbQuery(match.relation, match.attribute, q.filters);
    Result<Query> original =
        builder.BuildOriginalQuery(match.relation, match.attribute, q.filters);
    build += log->End(span);
    if (!adb_query.ok()) {
      candidates.push_back(adb_query.status());
      continue;
    }
    if (!original.ok()) {
      candidates.push_back(original.status());
      continue;
    }
    q.adb_query = std::move(adb_query).value();
    q.original_query = std::move(original).value();
    candidates.push_back(std::move(q));
  }
  Result<AbducedQuery> best = Squid::ReduceCandidates(std::move(candidates));
  t->discover.push_back(log->End(root));
  t->disambiguation.push_back(dis);
  t->context.push_back(ctx);
  t->abduction.push_back(abd);
  t->query_build.push_back(build);
  t->candidates.push_back(static_cast<double>(matches.value().size()));
  if (best.ok()) {
    t->filters.push_back(static_cast<double>(best.value().filters.size()));
    t->filters_included.push_back(static_cast<double>(best.value().NumIncludedFilters()));
  }
  return best;
}

/// What the traced replay of one workload runs on.
struct LayerInputs {
  const Database* base = nullptr;        // tables the αDB is built from
  const AbductionReadyDb* adb = nullptr;  // the αDB the workload serves
  const PreparedInputs* in = nullptr;
  std::vector<const PreparedRequest*> warmup;
  std::vector<const PreparedRequest*> requests;  // in workload order
  bool references = false;  // requests carry reference answers
  size_t serve_threads = 1;
  std::string snapshot;     // scratch snapshot path for the storage layer
};

int TraceLayers(const Args& a, const LayerInputs& li) {
  SpanLog log;
  RunResult out;
  Samples fails;
  const SquidConfig config;
  const std::vector<TruthSet> truths = TruthSets(*li.in);

  // core + exec, in three passes over the requests: Squid::Discover
  // untraced; the traced replay, which must reproduce it; ExecuteQuery of
  // each replayed answer. Separate passes, so the replay's timings are not
  // taken on caches an execution just churned.
  LayerTimes t;
  std::vector<double> untraced_us;
  std::vector<std::string> direct;
  Squid squid(li.adb, config);
  for (const PreparedRequest* r : li.requests) {
    const uint64_t t0 = NowNs();
    Result<AbducedQuery> q = squid.Discover(r->examples);
    untraced_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    direct.push_back(q.ok() ? Encoded(q.value()) : "");
  }
  std::vector<std::optional<AbducedQuery>> replayed(li.requests.size());
  for (size_t i = 0; i < li.requests.size(); ++i) {
    const PreparedRequest* r = li.requests[i];
    ++fails.attempted;
    Result<AbducedQuery> replay = ReplayDiscover(*li.adb, config, r->examples, i + 1, &log, &t);
    if (!replay.ok() || direct[i].empty()) {
      fails.Fail("replay or Discover failed");
      continue;
    }
    std::string why = CheckSameAnswer(Encoded(replay.value()), direct[i]);
    if (why.empty() && li.references) why = CheckSameAnswer(direct[i], r->reference);
    if (why.empty()) {
      why = CheckFilterDecisions(replay.value().filters, config.rho,
                                 replay.value().entity_keys.size());
    }
    if (!why.empty()) {
      fails.Fail("replay: " + why);
      continue;
    }
    replayed[i] = std::move(replay).value();
  }
  for (size_t i = 0; i < li.requests.size(); ++i) {
    if (!replayed[i]) continue;
    const uint32_t span = log.Begin("exec.execute", i + 1);
    Result<ResultSet> rs = ExecuteQuery(li.adb->database(), replayed[i]->adb_query);
    t.execute.push_back(log.End(span));
    if (!rs.ok()) {
      fails.Fail("ExecuteQuery: " + rs.status().ToString());
      continue;
    }
    t.result_rows.push_back(static_cast<double>(rs.value().num_rows()));
    const PreparedRequest* r = li.requests[i];
    std::string why = CheckAndScore(r->examples, rs.value(), truths[r->truth], &fails);
    if (!why.empty()) fails.Fail("replay: " + why);
  }
  uint64_t request = li.requests.size() + 1;
  std::printf("tracing overhead: replay with spans p50 %.3f us, Squid::Discover p50 %.3f us\n",
              Median(t.discover), Median(untraced_us));
  out.Add("core.discover_us", Median(t.discover), "us");
  out.Add("core.lookup_us", Median(t.lookup), "us");
  out.Add("core.disambiguation_us", Median(t.disambiguation), "us");
  out.Add("core.context_us", Median(t.context), "us");
  out.Add("core.abduction_us", Median(t.abduction), "us");
  out.Add("core.query_build_us", Median(t.query_build), "us");
  out.Add("core.candidates", Mean(t.candidates), "count");
  out.Add("core.filters", Mean(t.filters), "count");
  out.Add("core.filters_included", Mean(t.filters_included), "count");
  out.Add("exec.execute_us", Median(t.execute), "us");
  out.Add("exec.result_rows", Mean(t.result_rows), "count");

  // serve: the workload's service shape with the default cache.
  {
    ServeOptions options;
    options.threads = li.serve_threads;
    SquidService service(li.adb, options);
    for (const PreparedRequest* r : li.warmup) (void)service.DiscoverSync(r->examples);
    const ServeStats before = service.stats();
    std::vector<double> sync_us;
    for (const PreparedRequest* r : li.requests) {
      ++fails.attempted;
      const uint32_t span = log.Begin("serve.discover_sync", request++);
      Result<AbducedQuery> q = service.DiscoverSync(r->examples);
      sync_us.push_back(log.End(span));
      if (!q.ok()) fails.Fail("serve: " + q.status().ToString());
    }
    const ServeStats after = service.stats();
    const double hits = static_cast<double>(after.hits - before.hits);
    const double misses = static_cast<double>(after.misses - before.misses);
    out.Add("serve.discover_sync_us", Median(sync_us), "us");
    out.Add("serve.cache_hits", hits, "count");
    out.Add("serve.cache_misses", misses, "count");
    out.Add("serve.cache_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0, "ratio");
    out.Add("serve.cache_mib",
            static_cast<double>(service.cache()->ApproxBytes()) / (1024.0 * 1024.0), "MiB");

    // net: socket round trip minus DiscoverSync of the same example set,
    // both on the now-warm service, each in its own pass so neither runs on
    // caches the other just warmed for that set.
    net::TcpServer server(&service);
    Check(server.Start(), "TcpServer::Start");
    net::TcpClient client =
        Check(net::TcpClient::Connect("127.0.0.1", server.port()), "connect");
    std::vector<double> sync_again_us;
    std::vector<std::string> sync_answers;
    for (const PreparedRequest* r : li.requests) {
      const uint32_t span = log.Begin("serve.discover_sync", request++);
      Result<AbducedQuery> q = service.DiscoverSync(r->examples);
      sync_again_us.push_back(log.End(span));
      sync_answers.push_back(q.ok() ? Encoded(q.value()) : "");
    }
    const net::TcpServerStats net_before = server.stats();
    std::vector<double> overhead_us;
    for (size_t i = 0; i < li.requests.size(); ++i) {
      ++fails.attempted;
      const uint32_t span = log.Begin("net.round_trip", request++);
      Result<net::Reply> reply = client.Discover(li.requests[i]->examples);
      const double rtt = log.End(span);
      if (sync_answers[i].empty() || !reply.ok() ||
          reply.value().kind != net::Reply::Kind::kOk ||
          reply.value().answer.Encode() != sync_answers[i]) {
        fails.Fail("net: socket answer differs from DiscoverSync");
        continue;
      }
      overhead_us.push_back(rtt - sync_again_us[i]);
    }
    const net::TcpServerStats net_after = server.stats();
    const double frames_in = static_cast<double>(net_after.frames_received - net_before.frames_received);
    const double frames_out = static_cast<double>(net_after.frames_sent - net_before.frames_sent);
    out.Add("net.overhead_us", Median(overhead_us), "us");
    out.Add("net.request_bytes",
            static_cast<double>(net_after.bytes_received - net_before.bytes_received) /
                std::max(1.0, frames_in), "B");
    out.Add("net.reply_bytes",
            static_cast<double>(net_after.bytes_sent - net_before.bytes_sent) /
                std::max(1.0, frames_out), "B");
    client.Close();
    server.Stop();
  }

  // adb: one timed Build, then the same steps replayed one by one.
  std::unique_ptr<AbductionReadyDb> built;
  {
    uint32_t span = log.Begin("adb.build", 0);
    built = BuildAdb(*li.base);
    out.Add("adb.build_s", log.End(span) / 1e6, "s");
    const uint32_t root = log.Begin("adb.replay", 0);
    span = log.Begin("adb.schema_graph", 0, root);
    SchemaGraph graph = Check(SchemaGraph::Analyze(*li.base, {}), "SchemaGraph::Analyze");
    out.Add("adb.schema_graph_s", log.End(span) / 1e6, "s");
    double derived_us = 0, stats_us = 0, derived_rows = 0;
    for (const PropertyDescriptor& desc : graph.descriptors()) {
      if (desc.hops.empty()) {
        span = log.Begin("adb.stats", 0, root);
        PropertyStats stats = Check(StatisticsBuilder::BuildBasic(*li.base, desc), "BuildBasic");
        stats_us += log.End(span);
        continue;
      }
      span = log.Begin("adb.derived", 0, root);
      std::shared_ptr<Table> derived =
          Check(MaterializeDerivedRelation(*li.base, desc), "MaterializeDerivedRelation");
      derived_us += log.End(span);
      derived_rows += static_cast<double>(derived->num_rows());
      const Table* entity = Check(li.base->GetTable(desc.entity_relation), "entity table");
      std::unordered_map<Value, double, ValueHash> totals;
      span = log.Begin("adb.stats", 0, root);
      PropertyStats stats = Check(
          StatisticsBuilder::BuildFromDerived(*derived, entity->num_rows(), &totals),
          "BuildFromDerived");
      stats_us += log.End(span);
    }
    out.Add("adb.derived_s", derived_us / 1e6, "s");
    out.Add("adb.stats_s", stats_us / 1e6, "s");
    span = log.Begin("adb.index", 0, root);
    InvertedColumnIndex index =
        Check(InvertedColumnIndex::Build(*li.base), "InvertedColumnIndex::Build");
    out.Add("adb.index_s", log.End(span) / 1e6, "s");
    log.End(root);
    out.Add("adb.descriptors", static_cast<double>(graph.descriptors().size()), "count");
    out.Add("adb.derived_rows", derived_rows, "count");
    ++fails.attempted;
    if (built->report().derived_rows != static_cast<size_t>(derived_rows)) {
      fails.Fail("adb: replayed derived rows differ from Build's report");
    }
  }

  // storage: save, open (checksums), load, and the first request after boot.
  {
    uint32_t span = log.Begin("storage.save", 0);
    Check(built->SaveSnapshot(li.snapshot), "SaveSnapshot");
    out.Add("storage.snapshot_save_s", log.End(span) / 1e6, "s");
    built.reset();
    std::vector<double> open_s, load_s, first_ms;
    for (int i = 0; i < 3; ++i) {
      span = log.Begin("storage.open", 0);
      SnapshotFile file = Check(SnapshotFile::Open(li.snapshot), "SnapshotFile::Open");
      open_s.push_back(log.End(span) / 1e6);
      span = log.Begin("storage.load", 0);
      std::unique_ptr<AbductionReadyDb> loaded =
          Check(AbductionReadyDb::LoadSnapshot(file), "LoadSnapshot");
      load_s.push_back(log.End(span) / 1e6);
    }
    ServeOptions options;
    options.threads = li.serve_threads;
    for (int i = 0; i < 3; ++i) {
      auto booted = Check(BootServiceFromSnapshot(li.snapshot, options), "boot");
      ++fails.attempted;
      span = log.Begin("storage.first_discover", request++);
      Result<AbducedQuery> q = booted->service->DiscoverSync(li.requests[0]->examples);
      first_ms.push_back(log.End(span) / 1e3);
      if (!q.ok()) fails.Fail("first Discover after boot failed");
    }
    out.Add("storage.snapshot_open_s", Median(open_s), "s");
    out.Add("storage.snapshot_load_s", Median(load_s), "s");
    out.Add("storage.first_discover_ms", Median(first_ms), "ms");
  }

  const std::string spans = a.dir + "/spans-" + a.workload + "-" + std::to_string(a.seed) + ".tsv";
  Check(log.WriteTsv(spans), "write spans");
  std::printf("traced %s: %zu requests replayed, %zu spans in %s\n", a.workload.c_str(),
              li.requests.size(), log.size(), spans.c_str());
  if (!fails.first_failure.empty()) std::printf("first failure: %s\n", fails.first_failure.c_str());
  out.attempted = fails.attempted;
  out.failed = fails.failed;
  return Report(out);
}

int Trace(const Args& a) {
  LayerInputs li;
  li.snapshot = a.dir + "/trace-" + a.workload + ".snap";
  if (a.workload == "explore") {
    ImdbData data = MakeImdb(kExploreScale);
    PreparedInputs in;
    AddTruths(*data.db, ImdbBenchmarkQueries(data.manifest), &in);
    std::unique_ptr<AbductionReadyDb> adb = BuildAdb(*data.db);
    std::vector<PreparedRequest> warmup = ExploreRound(in, a.seed, ~0ULL);
    std::vector<PreparedRequest> requests;
    for (uint64_t round = 0; round < 4; ++round) {
      for (PreparedRequest& r : ExploreRound(in, a.seed, round)) {
        requests.push_back(std::move(r));
      }
    }
    for (const auto& r : warmup) li.warmup.push_back(&r);
    for (const auto& r : requests) li.requests.push_back(&r);
    li.base = data.db.get();
    li.adb = adb.get();
    li.in = &in;
    return TraceLayers(a, li);
  }
  const PreparedInputs in = LoadInputs(a);
  ServeOptions options;
  options.threads = 1;
  auto booted = Check(BootServiceFromSnapshot(SnapshotPath(a), options), "boot");
  std::unique_ptr<Database> base;
  if (a.workload == "sessions") {
    base = MakeDblp().db;
    li.serve_threads = kSessionsWorkers;
    // The sessions one process of the timed run replays.
    const std::pair<size_t, size_t> share = SessionShare(in, 0, kSessionsProcesses);
    for (size_t j = share.first; j < share.second; ++j) {
      for (uint32_t r : in.sessions[j]) li.requests.push_back(&in.requests[r]);
    }
    li.warmup = li.requests;  // the timed loop runs after a warm-up round
  } else {
    base = MakeImdb(kBootScale).db;
    for (const auto& r : in.requests) li.requests.push_back(&r);
  }
  li.base = base.get();
  li.adb = booted->adb.get();
  li.in = &in;
  li.references = true;
  return TraceLayers(a, li);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  if (argc < 2) Die("usage: squid_perfbench prepare|run --workload W [--seed N] "
                    "[--seconds S] [--trace 0|1] [--dir D]");
  a.mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      a.trace = value == "1";
    } else if (flag == "--dir") {
      a.dir = value;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (a.workload != "explore" && a.workload != "sessions" && a.workload != "boot") {
    Die("unknown workload '" + a.workload + "'");
  }
  return a;
}

}  // namespace
}  // namespace perfbench
}  // namespace squid

int main(int argc, char** argv) {
  using namespace squid::perfbench;
  const Args a = ParseArgs(argc, argv);
  if (a.mode == "prepare") return Prepare(a);
  if (a.mode != "run") Die("unknown mode " + a.mode);
  if (a.trace) return Trace(a);
  return RunWorkload(a);
}
