// In-memory span recorder for the benchmark's traced run.
//
// A span is one timed call into a pgsim layer: name, start, end, the span it
// ran inside, and the query it belongs to. Spans are appended to a vector
// that is only read when the run ends; nothing is written out while timing.
// A layer's self time is its span's duration minus the durations of its
// child spans (children of one span never overlap: the replay is
// single-threaded).

#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

namespace pgsim::perfbench {

enum class SpanName : uint8_t {
  kQuery,    ///< one whole replayed query (root)
  kRelax,    ///< GenerateRelaxedQueriesInto
  kPlan,     ///< CompileMatchPlan + BuildQuerySignature per relaxed query
  kFilter,   ///< StructuralFilter::Filter (stage 1)
  kPrepare,  ///< ProbabilisticPruner::PrepareQuery
  kEval,     ///< ProbabilisticPruner::Evaluate over SCq (stage 2)
  kFork,     ///< Rng::Fork per stage-3 candidate
  kVerify,   ///< one stage-3 candidate
  kGate,     ///< probe: BuildCandidateDomains per relaxed query
  kCollect,  ///< probe: CollectSimilarityEvents with the gate
  kSample,   ///< SampleSubgraphSimilarityProbabilityAnytime (collect + draws)
  kCount
};

constexpr const char* kSpanNames[] = {
    "query", "relax", "plan",    "filter",  "prepare", "eval",
    "fork",  "verify", "gate", "collect", "sample"};
static_assert(sizeof(kSpanNames) / sizeof(kSpanNames[0]) ==
              static_cast<size_t>(SpanName::kCount));

struct Span {
  SpanName name = SpanName::kQuery;
  uint32_t parent = UINT32_MAX;  ///< index into the span vector; root: max
  uint32_t query = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class Tracer {
 public:
  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  uint32_t Begin(SpanName name, uint32_t query) {
    Span s;
    s.name = name;
    s.parent = open_.empty() ? UINT32_MAX : open_.back();
    s.query = query;
    const uint32_t index = static_cast<uint32_t>(spans_.size());
    open_.push_back(index);
    s.start_ns = NowNs();
    spans_.push_back(s);
    return index;
  }

  void End(uint32_t index) {
    spans_[index].end_ns = NowNs();
    open_.pop_back();
  }

  size_t num_spans() const { return spans_.size(); }

  /// Per name: summed duration and summed self time, in nanoseconds.
  struct Totals {
    int64_t total_ns[static_cast<size_t>(SpanName::kCount)] = {};
    int64_t self_ns[static_cast<size_t>(SpanName::kCount)] = {};
  };
  Totals Aggregate() const {
    Totals t;
    std::vector<int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent != UINT32_MAX) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    for (size_t i = 0; i < spans_.size(); ++i) {
      const size_t n = static_cast<size_t>(spans_[i].name);
      const int64_t dur = spans_[i].end_ns - spans_[i].start_ns;
      t.total_ns[n] += dur;
      t.self_ns[n] += dur - child_ns[i];
    }
    return t;
  }

 private:
  std::vector<Span> spans_;
  std::vector<uint32_t> open_;
};

/// RAII span; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, SpanName name, uint32_t query) : tracer_(tracer) {
    if (tracer_ != nullptr) index_ = tracer_->Begin(name, query);
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  uint32_t index_ = 0;
};

}  // namespace pgsim::perfbench
