#ifndef SQUID_PERFBENCH_BENCH_COMMON_H_
#define SQUID_PERFBENCH_BENCH_COMMON_H_

/// \file bench_common.h
/// \brief Pieces of the end-to-end benchmark shared by the benchmark binary
/// and its self-test: exact quantiles, the three correctness checks, the
/// prepared-inputs file, and an in-memory span log.
///
/// Every check is computed apart from the program under test or follows
/// from a property of the method, and returns an empty string when the
/// answer passes, else a one-line reason.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "common/wire.h"
#include "core/filter.h"

namespace squid {
namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---------------------------------------------------------------------------
// Exact quantiles over every sample.
// ---------------------------------------------------------------------------

/// Nearest-rank quantile of an ascending-sorted sample (q in (0, 1]).
inline double SortedQuantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(sorted.size())));
  rank = std::min(std::max<size_t>(rank, 1), sorted.size());
  return sorted[rank - 1];
}

/// Median and p99 of a sample, with its count and the number of samples
/// strictly above p99 (the tail the p99 rests on).
struct Summary {
  size_t n = 0;
  double p50 = 0;
  double p99 = 0;
  size_t beyond_p99 = 0;
};

inline Summary Summarize(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  Summary s;
  s.n = samples.size();
  s.p50 = SortedQuantile(samples, 0.50);
  s.p99 = SortedQuantile(samples, 0.99);
  s.beyond_p99 = static_cast<size_t>(
      samples.end() - std::upper_bound(samples.begin(), samples.end(), s.p99));
  return s;
}

inline double Median(std::vector<double> samples) {
  return Summarize(std::move(samples)).p50;
}

// ---------------------------------------------------------------------------
// Correctness checks.
// ---------------------------------------------------------------------------

/// Check 1: every example appears in the executed result of its abduced
/// query (an abduced query is valid for its examples, §3.2).
inline std::string CheckExamplesInResult(
    const std::vector<std::string>& examples,
    const std::unordered_set<std::string>& result) {
  for (const std::string& e : examples) {
    if (result.count(e) == 0) return "example '" + e + "' missing from the result";
  }
  return "";
}

/// Check 2: every filter's decision, recomputed from its exposed ψ, δ, α and
/// λ with ρ and |E| (Theorem 1): Pr* = ρ·δ·α·λ, and the filter is included
/// iff Pr* > (1 − Pr*)·ψ^|E|.
inline std::string CheckFilterDecisions(const std::vector<Filter>& filters,
                                        double rho, size_t num_examples) {
  for (size_t i = 0; i < filters.size(); ++i) {
    const Filter& f = filters[i];
    const double prior = rho * f.delta * f.alpha * f.lambda;
    if (prior != f.prior) {
      return "filter " + std::to_string(i) + ": Pr* differs from rho*delta*alpha*lambda";
    }
    const bool include =
        prior > (1.0 - prior) * std::pow(f.selectivity, static_cast<double>(num_examples));
    if (include != f.included) {
      return "filter " + std::to_string(i) + ": decision contradicts Theorem 1";
    }
  }
  return "";
}

/// Check 3: an answer served from a snapshot or over the socket is
/// byte-identical to the reference answer of Squid::Discover over the αDB
/// built from the same tables (both as canonical WireAnswer encodings).
inline std::string CheckSameAnswer(const std::string& got, const std::string& want) {
  if (got == want) return "";
  size_t at = 0;
  while (at < got.size() && at < want.size() && got[at] == want[at]) ++at;
  return "answer differs from the reference at byte " + std::to_string(at);
}

// ---------------------------------------------------------------------------
// Prepared inputs: what the untimed preparation step hands the serving run.
// ---------------------------------------------------------------------------

/// One Discover request of a prepared workload.
struct PreparedRequest {
  uint32_t truth = 0;  // index into PreparedInputs::truths
  std::vector<std::string> examples;
  /// WireAnswer encoding of Squid::Discover over the freshly built αDB.
  std::string reference;
};

struct PreparedInputs {
  /// Ground truth of each benchmark query the requests sample from.
  std::vector<std::string> truth_ids;
  std::vector<std::vector<std::string>> truths;
  std::vector<PreparedRequest> requests;
  /// Sessions: request indexes in the order a user sends them (one example
  /// added per step); the last request of a session is executed and scored.
  std::vector<std::vector<uint32_t>> sessions;
};

constexpr uint32_t kInputsVersion = 1;

inline void AppendStrings(std::string* out, const std::vector<std::string>& v) {
  wire::AppendU32(out, static_cast<uint32_t>(v.size()));
  for (const std::string& s : v) wire::AppendString(out, s);
}

inline Status ReadStrings(wire::WireReader* in, std::vector<std::string>* v) {
  uint32_t n = 0;
  SQUID_RETURN_NOT_OK(in->ReadU32(&n));
  if (n > in->remaining()) return Status::Corruption("string count beyond input");
  v->resize(n);
  for (std::string& s : *v) SQUID_RETURN_NOT_OK(in->ReadString(&s));
  return Status::OK();
}

inline std::string EncodeInputs(const PreparedInputs& in) {
  std::string out;
  wire::AppendU32(&out, kInputsVersion);
  AppendStrings(&out, in.truth_ids);
  for (const auto& t : in.truths) AppendStrings(&out, t);
  wire::AppendU32(&out, static_cast<uint32_t>(in.requests.size()));
  for (const PreparedRequest& r : in.requests) {
    wire::AppendU32(&out, r.truth);
    AppendStrings(&out, r.examples);
    wire::AppendString(&out, r.reference);
  }
  wire::AppendU32(&out, static_cast<uint32_t>(in.sessions.size()));
  for (const auto& s : in.sessions) {
    wire::AppendU32(&out, static_cast<uint32_t>(s.size()));
    for (uint32_t r : s) wire::AppendU32(&out, r);
  }
  return out;
}

inline Result<PreparedInputs> DecodeInputs(const std::string& bytes) {
  wire::WireReader in(bytes);
  PreparedInputs out;
  uint32_t version = 0;
  SQUID_RETURN_NOT_OK(in.ReadU32(&version));
  if (version != kInputsVersion) return Status::Corruption("inputs version mismatch");
  SQUID_RETURN_NOT_OK(ReadStrings(&in, &out.truth_ids));
  out.truths.resize(out.truth_ids.size());
  for (auto& t : out.truths) SQUID_RETURN_NOT_OK(ReadStrings(&in, &t));
  uint32_t n = 0;
  SQUID_RETURN_NOT_OK(in.ReadU32(&n));
  if (n > in.remaining()) return Status::Corruption("request count beyond input");
  out.requests.resize(n);
  for (PreparedRequest& r : out.requests) {
    SQUID_RETURN_NOT_OK(in.ReadU32(&r.truth));
    if (r.truth >= out.truths.size()) return Status::Corruption("bad truth index");
    SQUID_RETURN_NOT_OK(ReadStrings(&in, &r.examples));
    SQUID_RETURN_NOT_OK(in.ReadString(&r.reference));
  }
  SQUID_RETURN_NOT_OK(in.ReadU32(&n));
  if (n > in.remaining()) return Status::Corruption("session count beyond input");
  out.sessions.resize(n);
  for (auto& s : out.sessions) {
    uint32_t steps = 0;
    SQUID_RETURN_NOT_OK(in.ReadU32(&steps));
    if (steps > in.remaining()) return Status::Corruption("step count beyond input");
    s.resize(steps);
    for (uint32_t& r : s) {
      SQUID_RETURN_NOT_OK(in.ReadU32(&r));
      if (r >= out.requests.size()) return Status::Corruption("bad request index");
    }
  }
  if (!in.AtEnd()) return Status::Corruption("trailing bytes in inputs");
  return out;
}

// ---------------------------------------------------------------------------
// Span log: spans stay in memory and are written out once, at the end.
// ---------------------------------------------------------------------------

class SpanLog {
 public:
  static constexpr uint32_t kNoParent = 0xFFFFFFFFu;

  /// Opens a span; returns its id (the parent id of nested spans).
  uint32_t Begin(const char* name, uint64_t request, uint32_t parent = kNoParent) {
    spans_.push_back(Span{name, NowNs(), 0, parent, request});
    return static_cast<uint32_t>(spans_.size() - 1);
  }
  /// Closes span `id` and returns its duration in microseconds.
  double End(uint32_t id) {
    Span& s = spans_[id];
    s.end_ns = NowNs();
    return static_cast<double>(s.end_ns - s.start_ns) / 1e3;
  }

  /// Tab-separated: id, name, start_ns, end_ns, parent id (-1 for roots),
  /// request id.
  Status WriteTsv(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return Status::IoError("cannot write " + path);
    std::fprintf(f, "id\tname\tstart_ns\tend_ns\tparent\trequest\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%zu\t%s\t%llu\t%llu\t%lld\t%llu\n", i, s.name,
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns),
                   s.parent == kNoParent ? -1LL : static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.request));
    }
    return std::fclose(f) == 0 ? Status::OK() : Status::IoError("cannot close " + path);
  }

  size_t size() const { return spans_.size(); }

 private:
  struct Span {
    const char* name;
    uint64_t start_ns;
    uint64_t end_ns;
    uint32_t parent;
    uint64_t request;
  };
  std::vector<Span> spans_;
};

}  // namespace perfbench
}  // namespace squid

#endif  // SQUID_PERFBENCH_BENCH_COMMON_H_
