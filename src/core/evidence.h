#ifndef EXPLAINTI_CORE_EVIDENCE_H_
#define EXPLAINTI_CORE_EVIDENCE_H_

#include <algorithm>
#include <cstddef>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/explanation.h"

namespace explainti::core {

/// The "evidence" of an explanation: the distinct tokens inside the
/// top-`k` local windows by relevance. This is the unit the golden
/// explanation fixture (tests/golden_evidence.h) compares — local windows
/// are the view most sensitive to encoder numerics (relevance scores
/// reorder under tiny logit shifts), so token-set agreement here is a
/// stricter check than label equality.
///
/// Tokens are compared as a set: the top windows routinely overlap, and
/// two explanations that highlight the same table cells are the same
/// evidence even when their window ranking swaps neighbours.
///
/// Header-only and dependency-free beyond core/explanation.h, so eval,
/// tests and benches can all share the one definition (core cannot link
/// a helper living in eval — core already links eval for f1_metrics).
inline std::set<std::string> TopEvidenceTokens(const Explanation& explanation,
                                               size_t k) {
  std::set<std::string> tokens;
  const size_t take = std::min(k, explanation.local.size());
  for (size_t i = 0; i < take; ++i) {
    std::istringstream words(explanation.local[i].text);
    std::string token;
    while (words >> token) tokens.insert(token);
  }
  return tokens;
}

/// Jaccard similarity of two evidence sets in [0, 1]; 1.0 when both are
/// empty (no evidence agrees with no evidence).
inline double EvidenceAgreement(const std::set<std::string>& a,
                                const std::set<std::string>& b) {
  if (a.empty() && b.empty()) return 1.0;
  size_t intersection = 0;
  for (const std::string& token : a) {
    intersection += b.count(token);
  }
  const size_t unions = a.size() + b.size() - intersection;
  return static_cast<double>(intersection) / static_cast<double>(unions);
}

}  // namespace explainti::core

#endif  // EXPLAINTI_CORE_EVIDENCE_H_
