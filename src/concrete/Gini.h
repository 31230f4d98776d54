//===- concrete/Gini.h - Concrete cprob / ent / score -----------*- C++ -*-===//
//
// Part of the Antidote reproduction of "Proving Data-Poisoning Robustness
// in Decision Trees" (Drews, Albarghouthi, D'Antoni; PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The concrete auxiliary operators of paper Figure 5.
///
/// `cprob(T)` is the vector of class probabilities, `ent(T)` is Gini
/// impurity `Σ p_i (1 − p_i)` (as in CART), and `score(T, φ)` is the
/// impurity-weighted objective `|T↓φ|·ent(T↓φ) + |T↓¬φ|·ent(T↓¬φ)` that
/// `bestSplit` minimizes. All operators are count-based so the abstract
/// transformers in `abstract/AbstractGini.h` can mirror them exactly.
///
//===----------------------------------------------------------------------===//

#ifndef ANTIDOTE_CONCRETE_GINI_H
#define ANTIDOTE_CONCRETE_GINI_H

#include <cstdint>
#include <vector>

namespace antidote {

/// `cprob`: per-class probabilities c_i / Σc. Requires a non-empty count
/// vector with a positive total.
std::vector<double> classProbabilities(const std::vector<uint32_t> &Counts);

/// Gini impurity of a probability vector: Σ p (1 − p).
double giniImpurity(const std::vector<double> &Probs);

/// Gini impurity straight from class counts.
double giniImpurityFromCounts(const std::vector<uint32_t> &Counts,
                              uint32_t Total);

/// `score(T, φ)` from the class counts of the two sides of the split.
double splitScore(const std::vector<uint32_t> &PosCounts, uint32_t PosTotal,
                  const std::vector<uint32_t> &NegCounts, uint32_t NegTotal);

/// True iff the counts describe a zero-entropy (single-class) set.
bool isPure(const std::vector<uint32_t> &Counts);

/// `argmax_i p_i` with deterministic lowest-index tie-breaking (the paper
/// leaves ties nondeterministic; see docs/ARCHITECTURE.md, "Deviations
/// from the paper").
unsigned argmaxClass(const std::vector<uint32_t> &Counts);

} // namespace antidote

#endif // ANTIDOTE_CONCRETE_GINI_H
