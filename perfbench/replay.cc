#include "replay.h"

#include <algorithm>

#include "pgsim/graph/relaxation.h"
#include "pgsim/query/prob_pruner.h"

namespace pgsim::perfbench {

Replayer::Replayer(const ReplayIndex& index, const QueryOptions& options)
    : index_(index), options_(options) {
  // The processor compiles rq plans against the database's vertex-label
  // frequencies; a freshly built index has no tombstones.
  for (const ProbabilisticGraph& g : *index_.db) {
    AccumulateVertexLabelFrequencies(g.certain(), &label_freq_);
  }
}

std::vector<uint32_t> Replayer::Run(const Graph& q, uint32_t query_id,
                                    Tracer* tracer, ReplayCounters* c) {
  ScopedSpan query_span(tracer, SpanName::kQuery, query_id);
  const auto& db = *index_.db;
  std::vector<uint32_t> answers;
  ++c->queries;
  if (options_.delta >= q.NumEdges()) {
    for (uint32_t i = 0; i < db.size(); ++i) answers.push_back(i);
    c->answers += answers.size();
    return answers;
  }

  {
    ScopedSpan span(tracer, SpanName::kRelax, query_id);
    relaxed_.clear();
    if (!GenerateRelaxedQueriesInto(q, options_.delta, options_.relax,
                                    &relaxed_)
             .ok()) {
      relaxed_.clear();
    }
  }
  c->rq += relaxed_.size();

  {
    ScopedSpan span(tracer, SpanName::kPlan, query_id);
    MatchPlanOptions plan_options;
    plan_options.label_freq = &label_freq_;
    plans_.clear();
    sigs_.clear();
    for (const Graph& rq : relaxed_) {
      plans_.push_back(CompileMatchPlan(rq, plan_options));
      sigs_.push_back(BuildQuerySignature(rq));
    }
  }

  {
    ScopedSpan span(tracer, SpanName::kFilter, query_id);
    StructuralFilterStats stats;
    index_.filter->Filter(q, relaxed_, options_.delta, &candidates_,
                          &filter_scratch_, &stats, nullptr, nullptr, &plans_,
                          index_.sigs, &sigs_);
    c->filter_vf2 += stats.isomorphism_tests;
    c->filter_sig_rejected += stats.sig_pairs_rejected;
  }
  c->filter_candidates += candidates_.size();

  // QueryProcessor reseeds its context RNG from QueryOptions::seed per query.
  Rng rng(options_.seed);
  ProbabilisticPruner pruner(index_.pmi, options_.pruner);
  {
    ScopedSpan span(tracer, SpanName::kPrepare, query_id);
    pruner.PrepareQuery(relaxed_, &plans_);
  }
  to_verify_.clear();
  {
    ScopedSpan span(tracer, SpanName::kEval, query_id);
    for (const uint32_t gi : candidates_) {
      const PruneDecision d =
          pruner.Evaluate(gi, options_.epsilon, &rng, &pruner_scratch_);
      switch (d.outcome) {
        case PruneOutcome::kPruned:
          ++c->pruned;
          break;
        case PruneOutcome::kAccepted:
          ++c->accepted;
          answers.push_back(gi);
          break;
        case PruneOutcome::kCandidate:
          to_verify_.push_back(gi);
          break;
      }
    }
  }
  c->to_verify += to_verify_.size();

  {
    ScopedSpan span(tracer, SpanName::kFork, query_id);
    rngs_.clear();
    for (size_t k = 0; k < to_verify_.size(); ++k) rngs_.push_back(rng.Fork());
  }

  for (size_t k = 0; k < to_verify_.size(); ++k) {
    ScopedSpan verify_span(tracer, SpanName::kVerify, query_id);
    const uint32_t gi = to_verify_[k];
    const ProbabilisticGraph& g = db[gi];
    SignatureGate gate;
    gate.target = index_.sigs->ForGraph(gi);
    gate.rq = &sigs_;
    c->pairs += relaxed_.size();
    {
      ScopedSpan span(tracer, SpanName::kGate, query_id);
      for (size_t ri = 0; ri < relaxed_.size(); ++ri) {
        if (BuildCandidateDomains(relaxed_[ri], sigs_[ri].view(), g.certain(),
                                  gate.target, &domains_, nullptr)) {
          ++c->verifier_vf2;
        }
      }
    }
    {
      ScopedSpan span(tracer, SpanName::kCollect, query_id);
      if (CollectSimilarityEvents(g, relaxed_, options_.verifier,
                                  &verifier_scratch_, &plans_, &gate)
              .ok()) {
        c->events += verifier_scratch_.events.size();
      }
      // Counted as the pipeline counts it: up to an event-cap stop.
      c->verifier_sig_rejected += verifier_scratch_.sig_pairs_rejected;
    }
    ScopedSpan span(tracer, SpanName::kSample, query_id);
    const Result<SampleOutcome> out =
        SampleSubgraphSimilarityProbabilityAnytime(
            g, relaxed_, options_.verifier, &rngs_[k], &verifier_scratch_,
            &plans_, SampleControl{}, &gate);
    if (!out.ok()) {
      ++c->verifier_failed;
      continue;
    }
    c->draws += out->drawn;
    if (out->estimate >= options_.epsilon) {
      ++c->verifier_accepted;
      answers.push_back(gi);
    }
  }
  std::sort(answers.begin(), answers.end());
  c->answers += answers.size();
  return answers;
}

}  // namespace pgsim::perfbench
