// Outside-in replay of QueryProcessor::Query() through the layers' public
// functions, with a span around each call.
//
// The replay performs the same calls in the same order as the processor's
// sequential path (relaxation, match plans and rq signatures, structural
// filter, pruner prepare/evaluate, sequential per-candidate RNG forks, the
// gated anytime sampler), so its answers and stage counters equal Query()'s;
// the driver checks this on every run. Stage 3 adds two measurement probes
// per candidate that the processor does not run: the signature gate alone
// and event collection alone. Both repeat work the sampler does again, so
// the processor-equivalent time of a query is its span minus the probes.

#pragma once

#include <cstdint>
#include <vector>

#include "pgsim/graph/graph.h"
#include "pgsim/index/domain_index.h"
#include "pgsim/index/pmi.h"
#include "pgsim/prob/probabilistic_graph.h"
#include "pgsim/query/processor.h"
#include "pgsim/query/structural_filter.h"
#include "pgsim/query/verifier.h"
#include "trace.h"

namespace pgsim::perfbench {

/// Exact work counts of replayed queries. Equal for equal (seed, workload).
struct ReplayCounters {
  uint64_t queries = 0;
  uint64_t rq = 0;                  ///< Σ|U|
  uint64_t filter_candidates = 0;   ///< Σ|SCq|
  uint64_t filter_vf2 = 0;          ///< stage-1 matcher calls executed
  uint64_t filter_sig_rejected = 0; ///< stage-1 matcher calls avoided
  uint64_t pruned = 0;              ///< Pruning 1 hits
  uint64_t accepted = 0;            ///< Pruning 2 hits
  uint64_t to_verify = 0;
  uint64_t pairs = 0;               ///< stage-3 (rq, candidate) pairs
  /// Stage-3 matcher calls avoided by the gate; a candidate stopped by the
  /// event cap counts only the pairs visited before the stop.
  uint64_t verifier_sig_rejected = 0;
  /// Stage-3 pairs passing the gate: each gets one matcher call, except the
  /// pairs after an event-cap stop.
  uint64_t verifier_vf2 = 0;
  uint64_t events = 0;              ///< collected events before absorption
  uint64_t draws = 0;
  uint64_t verifier_failed = 0;     ///< event-cap errors (answer "no")
  uint64_t verifier_accepted = 0;
  uint64_t answers = 0;
};

/// The serving structures a replay reads (not owned).
struct ReplayIndex {
  const std::vector<ProbabilisticGraph>* db = nullptr;
  const ProbabilisticMatrixIndex* pmi = nullptr;
  const StructuralFilter* filter = nullptr;
  const SignatureIndex* sigs = nullptr;
};

class Replayer {
 public:
  Replayer(const ReplayIndex& index, const QueryOptions& options);

  /// Replays one query; returns its sorted answer ids. `tracer` may be null.
  std::vector<uint32_t> Run(const Graph& q, uint32_t query_id, Tracer* tracer,
                            ReplayCounters* counters);

 private:
  ReplayIndex index_;
  QueryOptions options_;
  std::vector<uint32_t> label_freq_;
  std::vector<Graph> relaxed_;
  std::vector<MatchPlan> plans_;
  std::vector<QuerySignature> sigs_;
  std::vector<uint32_t> candidates_;
  std::vector<uint32_t> to_verify_;
  std::vector<Rng> rngs_;
  StructuralFilterScratch filter_scratch_;
  PrunerScratch pruner_scratch_;
  VerifierScratch verifier_scratch_;
  CandidateDomains domains_;
};

}  // namespace pgsim::perfbench
