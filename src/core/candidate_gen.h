#ifndef P3C_CORE_CANDIDATE_GEN_H_
#define P3C_CORE_CANDIDATE_GEN_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/common/threadpool.h"
#include "src/core/interval.h"
#include "src/core/signature.h"

namespace p3c::core {

/// p-signatures over interned intervals, row-major: row r is the sorted
/// IDs ids[r * p, (r + 1) * p).
struct IdRows {
  size_t p = 0;
  std::vector<IntervalId> ids;

  [[nodiscard]] size_t size() const { return p == 0 ? 0 : ids.size() / p; }
  [[nodiscard]] std::span<const IntervalId> row(size_t r) const {
    return {ids.data() + r * p, p};
  }
};

/// Statistics of one candidate-generation round, both counts arithmetic.
struct CandidateGenStats {
  /// Pairs of base rows that share a (p-1)-subset, sum over buckets of
  /// b(b-1)/2: counted, never built; `t_gen` compares it. The k(k-1)/2
  /// pairs of the all-pairs join are what P3CParams::max_join_pairs caps.
  uint64_t num_pairs = 0;
  /// Whether the parallel (MapReduce-mapper analog) path ran.
  bool parallel = false;
  /// Joining pairs beyond each candidate's first: the duplicates the
  /// main program ignores ("collects ... while ignoring duplicates"),
  /// counted but never built. With m_s copies of each p-subset s in the
  /// base, a candidate is the join of sum_{s<t} m_s * m_t pairs.
  uint64_t num_duplicates = 0;
};

/// A-priori candidate generation (§5.3) on interned p-signatures: every
/// (p+1)-signature that joins two rows sharing p-1 intervals whose odd
/// intervals lie on distinct attributes (`attr_of[id]`), once, in sorted
/// order. Rows and stats equal the all-pairs join's, also for a base
/// that is not downward closed (§5.3 multi-level collection).
///
/// Each row goes into the bucket of each of its p (p-1)-subsets. A row X
/// scans its buckets: the one of X \ {x} offers each b with
/// X \ {x} ∪ {b} in the base. X builds X ∪ {b} only when b is the
/// largest interval whose removal leaves a subset in the base, so every
/// candidate is built once, by one row; copies of a row scan once.
///
/// When the pair count exceeds `t_gen` and `pool` is non-null, ranges of
/// base rows are scanned in parallel — the paper's m = c/Tgen mappers,
/// whose results need no de-duplication.
IdRows GenerateCandidateRows(const IdRows& base,
                             std::span<const size_t> attr_of,
                             ThreadPool* pool, size_t t_gen,
                             CandidateGenStats* stats = nullptr);

/// GenerateCandidateRows on Signatures: takes the base as rows over an
/// IntervalTable of its intervals, joins, and returns the candidates in
/// canonical (sorted) order. Every signature of `base` has the same size.
std::vector<Signature> GenerateCandidates(
    const std::vector<Signature>& base, ThreadPool* pool, size_t t_gen,
    CandidateGenStats* stats = nullptr);

}  // namespace p3c::core

#endif  // P3C_CORE_CANDIDATE_GEN_H_
