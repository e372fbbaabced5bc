#ifndef EXPLAINTI_TESTS_GOLDEN_EVIDENCE_H_
#define EXPLAINTI_TESTS_GOLDEN_EVIDENCE_H_

#include <set>
#include <string>
#include <vector>

#include "core/evidence.h"
#include "core/explain_ti_model.h"
#include "core/inference_session.h"
#include "core/task_data.h"
#include "data/corpus.h"
#include "data/wiki_generator.h"
#include "eval/human_sim.h"
#include "qa/query.h"
#include "text/tokenizer.h"

namespace explainti::testing {

/// Shared golden explanation-evidence fixture.
///
/// One canonical (corpus, config, sample set, window count) consumed by
/// every suite that scores explanation evidence — the plan-verify tests
/// and the table-QA suites — so "the paths agree on the golden evidence"
/// means the same thing everywhere: same tables, same samples, same top-k
/// windows, same token-set comparison (core/evidence.h).

/// Deterministic generator: same options → same tables, every consumer.
inline data::TableCorpus GoldenCorpus() {
  data::WikiTableOptions options;
  options.num_tables = 28;
  return data::GenerateWikiTableCorpus(options);
}

inline core::ExplainTiConfig GoldenConfig() {
  core::ExplainTiConfig config;
  config.base_model = "bert";
  config.sample_size = 4;
  config.top_k = 3;
  return config;
}

/// Local windows counted as "the evidence" of an explanation.
inline constexpr size_t kGoldenTopWindows = 3;

/// The golden sample ids of one task: a fixed, corpus-order stride so the
/// set is stable run to run and covers distinct sequence lengths.
inline std::vector<int> GoldenSampleIds(const core::TaskData& task) {
  std::vector<int> ids;
  const int n = static_cast<int>(task.samples.size());
  for (int id = 0; id < n && static_cast<int>(ids.size()) < 6; id += 3) {
    ids.push_back(id);
  }
  return ids;
}

/// Evidence token sets for the golden samples of `kind`, one per id.
inline std::vector<std::set<std::string>> GoldenEvidence(
    const core::InferenceSession& session, core::TaskKind kind) {
  std::vector<std::set<std::string>> evidence;
  for (int id : GoldenSampleIds(session.task_data(kind))) {
    evidence.push_back(core::TopEvidenceTokens(session.Explain(kind, id),
                                               kGoldenTopWindows));
  }
  return evidence;
}

/// Fraction of `items` that mention at least one token of `evidence` —
/// the per-item rule src/eval/human_sim scores EvidenceCoverage with,
/// reimplemented over raw strings so tests can score arbitrary pools of
/// justification items. Empty pools score 0.
inline double ItemEvidenceFraction(const std::vector<std::string>& items,
                                   const std::set<std::string>& evidence) {
  if (items.empty()) return 0.0;
  int covering = 0;
  for (const std::string& item : items) {
    for (const std::string& token : text::BasicTokenize(item)) {
      if (evidence.count(token) > 0) {
        ++covering;
        break;
      }
    }
  }
  return static_cast<double>(covering) / static_cast<double>(items.size());
}

/// Evidence coverage of a composed QA justification, in two framings over
/// the SAME item pool:
///  - `constituent`: each item judged against the oracle evidence of the
///    single prediction (step) it was assembled from — the coverage its
///    source explanation would score on its own;
///  - `composed`: the pooled items judged against the union of every
///    step's oracle evidence — the coverage of the composed answer.
/// Composition widens the evidence an item may hit without rewriting the
/// items, so `composed >= constituent` whenever the composition machinery
/// preserves item text and step provenance; a regression below that is a
/// composition bug (truncated/rewritten items, wrong step indices).
struct QaCoverage {
  double constituent = 0.0;
  double composed = 0.0;
  int items = 0;
};

inline QaCoverage ComposedJustificationCoverage(
    const core::TaskData& task, const qa::QaJustification& justification) {
  std::set<std::string> union_evidence;
  std::vector<std::set<std::string>> step_evidence;
  step_evidence.reserve(justification.steps.size());
  for (const qa::QaStep& step : justification.steps) {
    std::set<std::string> tokens;
    if (step.sample_id >= 0 &&
        step.sample_id < static_cast<int>(task.samples.size())) {
      for (const std::string& token :
           task.samples[static_cast<size_t>(step.sample_id)].evidence) {
        tokens.insert(token);
        union_evidence.insert(token);
      }
    }
    step_evidence.push_back(std::move(tokens));
  }
  QaCoverage coverage;
  coverage.items = static_cast<int>(justification.items.size());
  if (justification.items.empty()) return coverage;
  int covering_own = 0;
  int covering_union = 0;
  for (const qa::QaEvidenceItem& item : justification.items) {
    const bool has_step =
        item.step >= 0 &&
        item.step < static_cast<int>(step_evidence.size());
    bool own = false;
    bool unioned = false;
    for (const std::string& token : text::BasicTokenize(item.text)) {
      if (has_step && step_evidence[static_cast<size_t>(item.step)].count(
                          token) > 0) {
        own = true;
      }
      if (union_evidence.count(token) > 0) unioned = true;
      if (own && unioned) break;
    }
    covering_own += own ? 1 : 0;
    covering_union += unioned ? 1 : 0;
  }
  coverage.constituent = static_cast<double>(covering_own) /
                         static_cast<double>(justification.items.size());
  coverage.composed = static_cast<double>(covering_union) /
                      static_cast<double>(justification.items.size());
  return coverage;
}

/// Renders a composed QA answer as simulated-judge inputs: one
/// JudgedExplanation per answer entry, whose items are the justification
/// items citing that entry's step and whose oracle evidence is the
/// entry's sample evidence — so SimulateJudges scores composed answers
/// exactly like single-prediction explanations.
inline std::vector<eval::JudgedExplanation> JudgedQaAnswer(
    const core::TaskData& task, const qa::QaAnswer& answer) {
  std::vector<eval::JudgedExplanation> judged;
  judged.reserve(answer.entries.size());
  for (const qa::QaAnswerEntry& entry : answer.entries) {
    eval::JudgedExplanation sample;
    for (const qa::QaEvidenceItem& item : answer.justification.items) {
      if (item.step == entry.step) sample.items.push_back(item.text);
    }
    if (entry.sample_id >= 0 &&
        entry.sample_id < static_cast<int>(task.samples.size())) {
      const core::TaskSample& source =
          task.samples[static_cast<size_t>(entry.sample_id)];
      sample.evidence = source.evidence;
      sample.sample_tokens = static_cast<int>(source.seq.tokens.size());
      sample.prediction_correct = entry.labels == source.labels;
    }
    judged.push_back(std::move(sample));
  }
  return judged;
}

/// Mean per-sample Jaccard agreement of two evidence runs.
inline double MeanEvidenceAgreement(
    const std::vector<std::set<std::string>>& a,
    const std::vector<std::set<std::string>>& b) {
  if (a.size() != b.size() || a.empty()) return 0.0;
  double total = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    total += core::EvidenceAgreement(a[i], b[i]);
  }
  return total / static_cast<double>(a.size());
}

}  // namespace explainti::testing

#endif  // EXPLAINTI_TESTS_GOLDEN_EVIDENCE_H_
