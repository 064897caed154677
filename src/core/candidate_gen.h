#ifndef P3C_CORE_CANDIDATE_GEN_H_
#define P3C_CORE_CANDIDATE_GEN_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "src/common/threadpool.h"
#include "src/core/interval.h"
#include "src/core/signature.h"

namespace p3c::core {

/// The distinct intervals of one A-priori run, sorted, each with its ID
/// (an IntervalId). IDs follow the sorted Interval order, so a
/// signature's intervals sorted by ID are sorted as in Signature, and
/// rows of IDs compare as Signatures do.
class IntervalTable {
 public:
  /// Sorts and de-duplicates `intervals`.
  explicit IntervalTable(std::vector<Interval> intervals);

  [[nodiscard]] const Interval& interval(IntervalId id) const {
    return intervals_[id];
  }
  [[nodiscard]] std::span<const Interval> intervals() const {
    return intervals_;
  }
  /// Attribute of every ID, indexed by ID.
  [[nodiscard]] std::span<const size_t> attrs() const { return attrs_; }
  /// ID of an interval of the table.
  [[nodiscard]] IntervalId Id(const Interval& interval) const;
  /// The signature of a sorted ID row.
  [[nodiscard]] Signature ToSignature(std::span<const IntervalId> row) const;

 private:
  std::vector<Interval> intervals_;
  std::vector<size_t> attrs_;
};

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

/// Distinct p-signatures over interned intervals with a hash index: rows
/// keep insertion order and are found by their IDs in O(p).
class IdSignatureSet {
 public:
  static constexpr uint32_t kMissing = UINT32_MAX;

  explicit IdSignatureSet(size_t p) : p_(p) {}

  [[nodiscard]] size_t size() const { return num_rows_; }
  [[nodiscard]] std::span<const IntervalId> row(size_t r) const {
    return {ids_.data() + r * p_, p_};
  }
  /// Row index of `key`, or kMissing.
  [[nodiscard]] uint32_t Find(std::span<const IntervalId> key) const;
  /// Appends `key` unless present; returns its row and whether it is new.
  std::pair<uint32_t, bool> Insert(std::span<const IntervalId> key);
  /// Sizes the index for `rows` rows without rehashing.
  void Reserve(size_t rows);

 private:
  [[nodiscard]] size_t Slot(std::span<const IntervalId> key) const;
  void Rehash(size_t num_slots);

  size_t p_;
  size_t num_rows_ = 0;
  std::vector<IntervalId> ids_;
  /// Open addressing, linear probing: row + 1, 0 = empty; size 2^k.
  std::vector<uint32_t> slots_;
};

/// Statistics of one candidate-generation round.
struct CandidateGenStats {
  /// Pairs examined: base signatures that share a (p-1)-subset, i.e.
  /// sum over buckets of b(b-1)/2. The k(k-1)/2 pairs of the all-pairs
  /// join are what P3CParams::max_join_pairs caps; this counts the work
  /// the bucket join actually does.
  uint64_t num_pairs = 0;
  /// Whether the parallel (MapReduce-mapper analog) path ran.
  bool parallel = false;
  /// Duplicates discarded by the collector ("the main program collects
  /// ... while ignoring duplicates").
  uint64_t num_duplicates = 0;
};

/// A-priori candidate generation (§5.3) on interned p-signatures: joins
/// every pair of rows that share p-1 intervals and whose two odd
/// intervals lie on distinct attributes (`attr_of[id]`) into a
/// (p+1)-signature, ignoring duplicates. Output rows are sorted.
///
/// Bucket join: each row goes into the bucket of each of its p
/// (p-1)-subsets, and only rows of one bucket are paired. Two distinct
/// rows sharing p-1 intervals share exactly that one bucket, so the
/// result and the duplicate count equal those of the all-pairs join,
/// also for a base that is not downward closed (§5.3 multi-level
/// collection).
///
/// When the pair count exceeds `t_gen` and `pool` is non-null, bucket
/// ranges are joined in parallel — the paper's m = c/Tgen mappers with
/// the result-file collection replaced by an in-memory merge.
IdRows GenerateCandidateRows(const IdRows& base,
                             std::span<const size_t> attr_of,
                             ThreadPool* pool, size_t t_gen,
                             CandidateGenStats* stats = nullptr);

/// GenerateCandidateRows on Signatures: interns the base's intervals,
/// joins, and returns the candidates in canonical (sorted) order. Every
/// signature of `base` has the same size.
std::vector<Signature> GenerateCandidates(
    const std::vector<Signature>& base, ThreadPool* pool, size_t t_gen,
    CandidateGenStats* stats = nullptr);

}  // namespace p3c::core

#endif  // P3C_CORE_CANDIDATE_GEN_H_
