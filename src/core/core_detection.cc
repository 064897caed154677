#include "src/core/core_detection.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <set>
#include <span>
#include <utility>

#include "src/common/logging.h"
#include "src/common/string_util.h"
#include "src/common/trace.h"
#include "src/core/candidate_gen.h"
#include "src/stats/effect_size.h"
#include "src/stats/poisson.h"

namespace p3c::core {

namespace {

/// Distinct p-signatures over interned intervals with a hash index: rows
/// keep insertion order and are found by their IDs in O(p). A row's hash
/// is the sum of its IDs' mixes, so the hash of a row without one ID is
/// the row's hash minus that ID's mix.
class IdSignatureSet {
 public:
  static constexpr uint32_t kMissing = UINT32_MAX;

  explicit IdSignatureSet(size_t p) : p_(p) {}

  static uint64_t Mix(IntervalId id) {
    const uint64_t h = (id + 0x9e3779b97f4a7c15ull) * 0xbf58476d1ce4e5b9ull;
    return h ^ (h >> 31);
  }
  static uint64_t Hash(std::span<const IntervalId> key) {
    uint64_t h = 0;
    for (const IntervalId id : key) h += Mix(id);
    return h;
  }

  [[nodiscard]] size_t size() const { return num_rows_; }
  [[nodiscard]] std::span<const IntervalId> row(size_t r) const {
    return {ids_.data() + r * p_, p_};
  }
  /// Row index of `key`, or kMissing (an empty slot holds 0).
  [[nodiscard]] uint32_t Find(std::span<const IntervalId> key) const {
    return slots_.empty() ? kMissing : slots_[Probe(key, Hash(key))] - 1;
  }
  /// Appends `key`, whose Hash is `hash`, unless present; returns its row
  /// and whether it is new.
  std::pair<uint32_t, bool> Insert(std::span<const IntervalId> key,
                                   uint64_t hash) {
    if (2 * (num_rows_ + 1) > slots_.size()) {
      Rehash(std::max<size_t>(16, 2 * slots_.size()));
    }
    const size_t s = Probe(key, hash);
    if (slots_[s] != 0) return {slots_[s] - 1, false};
    ids_.insert(ids_.end(), key.begin(), key.end());
    slots_[s] = static_cast<uint32_t>(++num_rows_);
    return {slots_[s] - 1, true};
  }
  /// Sizes the index for `rows` rows without rehashing.
  void Reserve(size_t rows) {
    ids_.reserve(rows * p_);
    if (2 * rows > slots_.size()) Rehash(std::bit_ceil(2 * rows));
  }

 private:
  /// The slot holding `key`, or the empty slot it would take.
  [[nodiscard]] size_t Probe(std::span<const IntervalId> key,
                             uint64_t hash) const {
    const size_t mask = slots_.size() - 1;
    size_t s = static_cast<size_t>(hash ^ (hash >> 32)) & mask;
    while (slots_[s] != 0 && !std::ranges::equal(row(slots_[s] - 1), key)) {
      s = (s + 1) & mask;
    }
    return s;
  }
  void Rehash(size_t num_slots) {
    slots_.assign(num_slots, 0);
    for (size_t r = 0; r < num_rows_; ++r) {
      slots_[Probe(row(r), Hash(row(r)))] = static_cast<uint32_t>(r + 1);
    }
  }

  size_t p_;
  size_t num_rows_ = 0;
  std::vector<IntervalId> ids_;
  /// Open addressing, linear probing: row + 1, 0 = empty; size 2^k.
  std::vector<uint32_t> slots_;
};

/// Every signature counted in one detection run, interned and grouped by
/// size: level p holds the p-signatures with their supports and
/// provenness. A signature is added when it is queued for counting, and
/// counted in the same proving batch.
struct Lattice {
  struct Level {
    IdSignatureSet sigs;
    std::vector<uint64_t> support;
    std::vector<char> proven;
    /// subs[r * p + i]: the level p-1 row of row r without its interval
    /// at position i (p > 1). Filled by the closure that counts row r.
    std::vector<uint32_t> subs;
  };
  std::vector<Level> levels;  // levels[p]; levels[0] stays empty

  /// Adds levels up to size p. Invalidates references to levels.
  void Reserve(size_t p) {
    while (levels.size() <= p) {
      levels.push_back(Level{IdSignatureSet(levels.size()), {}, {}, {}});
    }
  }

  bool IsProven(std::span<const IntervalId> row) const {
    const Level& level = levels[row.size()];
    const uint32_t r = level.sigs.Find(row);
    return r != IdSignatureSet::kMissing && level.proven[r] != 0;
  }
};

/// Rows of one level a pool worker claims at a time when proving.
constexpr size_t kProveGrain = 512;

/// Whether row r of level p is proven (Definition 5), given its support
/// and the final provenness and supports of level p - 1.
bool Proves(const Lattice& lattice, size_t p, size_t r,
            const IntervalTable& table, uint64_t num_points,
            const P3CParams& params, double log_alpha) {
  const Lattice::Level& level = lattice.levels[p];
  const std::span<const IntervalId> row = level.sigs.row(r);
  const double observed = static_cast<double>(level.support[r]);
  for (size_t i = 0; i < p; ++i) {
    const Interval& interval = table.interval(row[i]);
    double expected;
    if (p == 1) {
      expected = static_cast<double>(num_points) * interval.width();
    } else {
      const Lattice::Level& lower = lattice.levels[p - 1];
      const uint32_t sub_row = level.subs[r * p + i];
      // Definition 5 recursion: all subsets proven.
      if (lower.proven[sub_row] == 0) return false;
      expected =
          static_cast<double>(lower.support[sub_row]) * interval.width();
    }
    if (!stats::PoissonSignificantlyLargerLog(observed, expected,
                                              log_alpha)) {
      return false;
    }
    if (params.proving == ProvingMode::kPoissonAndEffectSize &&
        !stats::EffectSizeLargeEnough(observed, expected, params.theta_cc)) {
      return false;
    }
  }
  return true;
}

/// Adds every signature reachable from `batch` by removing intervals
/// (downward closure) to the lattice, counts the new ones that can still
/// be proven, then decides provenness bottom up.
void ProveBatch(const std::vector<IdRows>& batch, const IntervalTable& table,
                uint64_t num_points, const P3CParams& params,
                const IdSupportCountFn& count_supports, ThreadPool* pool,
                Lattice& lattice, CoreDetectionStats& stats) {
  size_t max_p = 0;
  for (const IdRows& rows : batch) max_p = std::max(max_p, rows.p);
  lattice.Reserve(max_p);
  // Rows a level gains in this batch are exactly the ones to evaluate.
  std::vector<size_t> first_new(max_p + 1);
  for (size_t p = 1; p <= max_p; ++p) {
    first_new[p] = lattice.levels[p].sigs.size();
  }

  // ---- Downward closure of uncounted signatures -----------------------
  // The batch's rows, then level by level from the top the sub-rows of
  // every new row. The rows to count go to the support counter by level,
  // then row: that order is part of the reproducible job input.
  IntervalRows counted;
  // pruned[p][r - first_new[p]]: new row r of level p has a sub-row that
  // is not proven, so Definition 5 cannot prove it whatever its support.
  std::vector<std::vector<char>> pruned(max_p + 1);
  {
    TraceSpan span("core:closure");
    const auto insert = [&lattice](std::span<const IntervalId> row,
                                   uint64_t hash) {
      Lattice::Level& level = lattice.levels[row.size()];
      const auto [r, added] = level.sigs.Insert(row, hash);
      if (added) {
        level.support.push_back(0);
        level.proven.push_back(0);
        if (row.size() > 1) level.subs.resize(level.subs.size() + row.size());
      }
      return r;
    };
    for (const IdRows& rows : batch) {
      IdSignatureSet& level = lattice.levels[rows.p].sigs;
      level.Reserve(level.size() + rows.size());
      for (size_t r = 0; r < rows.size(); ++r) {
        insert(rows.row(r), IdSignatureSet::Hash(rows.row(r)));
      }
    }
    std::vector<IntervalId> sub(max_p);
    for (size_t p = max_p; p > 1; --p) {
      Lattice::Level& level = lattice.levels[p];
      // Most sub-rows are in the lattice already: reserving one more row
      // per new row spares the rehash chain without the worst case's p.
      IdSignatureSet& lower = lattice.levels[p - 1].sigs;
      lower.Reserve(lower.size() + level.sigs.size() - first_new[p]);
      for (size_t r = first_new[p]; r < level.sigs.size(); ++r) {
        // Sub-row i is `row` without position i: sub-rows i - 1 and i
        // differ only at position i - 1.
        const std::span<const IntervalId> row = level.sigs.row(r);
        const uint64_t hash = IdSignatureSet::Hash(row);
        std::copy(row.begin() + 1, row.end(), sub.begin());
        for (size_t i = 0; i < p; ++i) {
          if (i > 0) sub[i - 1] = row[i - 1];
          level.subs[r * p + i] = insert(std::span(sub).first(p - 1),
                                         hash - IdSignatureSet::Mix(row[i]));
        }
      }
    }

    // A-priori prune, bottom up: a sub-row is dead if an earlier batch
    // left it unproven or it was pruned at the level below. Its own
    // sub-rows stay in the closure and are counted unless pruned, since a
    // proper subset of a pruned row may still be a maximal core.
    size_t num_pruned = 0;
    for (size_t p = 1; p <= max_p; ++p) {
      const Lattice::Level& level = lattice.levels[p];
      const Lattice::Level& lower = lattice.levels[p - 1];
      const size_t lower_first = first_new[p - 1];
      pruned[p].assign(level.sigs.size() - first_new[p], 0);
      for (size_t r = first_new[p]; r < level.sigs.size(); ++r) {
        char& dead = pruned[p][r - first_new[p]];
        for (size_t i = 0; p > 1 && i < p && dead == 0; ++i) {
          const uint32_t sub_row = level.subs[r * p + i];
          dead = sub_row < lower_first
                     ? lower.proven[sub_row] == 0
                     : pruned[p - 1][sub_row - lower_first];
        }
        if (dead != 0) {
          ++num_pruned;
        } else {
          counted.Append(level.sigs.row(r));
        }
      }
    }
    if (span.active()) {
      span.SetEndArgs(StringPrintf("{\"counted\": %zu, \"pruned\": %zu}",
                                   counted.size(), num_pruned));
    }
  }

  if (counted.size() > 0) {
    const std::vector<uint64_t> counts = count_supports(table, counted);
    const uint64_t* count = counts.data();
    for (size_t p = 1; p <= max_p; ++p) {
      for (size_t r = first_new[p]; r < lattice.levels[p].sigs.size(); ++r) {
        if (pruned[p][r - first_new[p]] == 0) {
          lattice.levels[p].support[r] = *count++;
        }
      }
    }
    stats.num_signatures_counted += counted.size();
  }

  // ---- Provenness, bottom-up by signature size -------------------------
  // A p-signature's subsets are smaller, so they are decided before it:
  // at a lower level of this pass or in an earlier batch. Rows of one
  // level read only lower levels, so they are decided independently.
  // Pruned rows are not proven and were not counted.
  TraceSpan span("core:prove");
  const double log_alpha = std::log(params.alpha_poisson);
  size_t newly_proven = 0;
  for (size_t p = 1; p <= max_p; ++p) {
    Lattice::Level& level = lattice.levels[p];
    const size_t first = first_new[p];
    const size_t count = level.sigs.size() - first;
    const auto decide = [&](size_t i) {
      level.proven[first + i] =
          pruned[p][i] == 0 && Proves(lattice, p, first + i, table,
                                      num_points, params, log_alpha);
    };
    if (pool != nullptr && count > kProveGrain) {
      pool->ParallelFor(count, kProveGrain, decide);
    } else {
      for (size_t i = 0; i < count; ++i) decide(i);
    }
    for (size_t r = first; r < level.sigs.size(); ++r) {
      newly_proven += level.proven[r];
    }
  }
  stats.num_proven += newly_proven;
  ++stats.num_support_batches;
}

/// The maximal proven signatures (Definition 5(2)) in canonical order.
///
/// A proven p-signature is proven only if all its (p-1)-subsets are, so
/// the proven set is downward closed. A proven s with a proven strict
/// superset therefore has a proven superset of size |s| + 1, and s is
/// maximal iff no proven (|s|+1)-signature contains it. Marking the
/// immediate subsets of every proven signature finds them in O(P * p)
/// instead of comparing all P^2 pairs.
std::vector<ClusterCore> MaximalCores(const Lattice& lattice,
                                      const IntervalTable& table,
                                      uint64_t num_points) {
  TraceSpan span("core:maximal");
  std::vector<std::vector<char>> covered(lattice.levels.size());
  for (size_t p = 1; p < lattice.levels.size(); ++p) {
    covered[p].assign(lattice.levels[p].sigs.size(), 0);
  }
  for (size_t p = 2; p < lattice.levels.size(); ++p) {
    const Lattice::Level& level = lattice.levels[p];
    for (size_t r = 0; r < level.sigs.size(); ++r) {
      if (level.proven[r] == 0) continue;
      for (size_t i = 0; i < p; ++i) covered[p - 1][level.subs[r * p + i]] = 1;
    }
  }
  std::vector<ClusterCore> maximal;
  for (size_t p = 1; p < lattice.levels.size(); ++p) {
    const Lattice::Level& level = lattice.levels[p];
    for (size_t r = 0; r < level.sigs.size(); ++r) {
      if (level.proven[r] == 0 || covered[p][r] != 0) continue;
      ClusterCore core;
      core.signature = table.ToSignature(level.sigs.row(r));
      core.support = level.support[r];
      core.expected_support =
          static_cast<double>(num_points) * core.signature.VolumeFraction();
      maximal.push_back(std::move(core));
    }
  }
  std::sort(maximal.begin(), maximal.end(),
            [](const ClusterCore& a, const ClusterCore& b) {
              return a.signature < b.signature;
            });
  return maximal;
}

}  // namespace

std::vector<ClusterCore> FilterRedundant(
    const std::vector<ClusterCore>& cores) {
  // Sweep by descending interestingness ratio: the interval pool of Eq. 5
  // for a core is exactly the union over all strictly-better cores, i.e.
  // the accumulated set at the start of the core's ratio tie group.
  std::vector<size_t> order(cores.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&cores](size_t a, size_t b) {
    return cores[a].InterestRatio() > cores[b].InterestRatio();
  });

  std::set<Interval> pool;
  auto covered = [&pool](const Signature& s) {
    for (const Interval& interval : s.intervals()) {
      if (pool.count(interval) == 0) return false;
    }
    return true;
  };

  std::vector<char> keep(cores.size(), 0);
  size_t i = 0;
  while (i < order.size()) {
    // Tie group [i, j) of equal ratios: Eq. 6 is a strict comparison, so
    // members of the group do not cover each other.
    size_t j = i;
    const double ratio = cores[order[i]].InterestRatio();
    while (j < order.size() && cores[order[j]].InterestRatio() == ratio) ++j;
    for (size_t k = i; k < j; ++k) {
      keep[order[k]] = covered(cores[order[k]].signature) ? 0 : 1;
    }
    for (size_t k = i; k < j; ++k) {
      for (const Interval& interval : cores[order[k]].signature.intervals()) {
        pool.insert(interval);
      }
    }
    i = j;
  }

  std::vector<ClusterCore> kept;
  kept.reserve(cores.size());
  for (size_t k = 0; k < cores.size(); ++k) {
    if (keep[k]) kept.push_back(cores[k]);
  }
  return kept;
}

CoreDetectionResult GenerateClusterCores(
    const std::vector<Interval>& relevant_intervals, uint64_t num_points,
    const P3CParams& params, const SupportCountFn& count_supports,
    ThreadPool* pool) {
  const IdSupportCountFn count_rows = [&count_supports](
                                          const IntervalTable& table,
                                          const IntervalRows& rows) {
    std::vector<Signature> signatures;
    signatures.reserve(rows.size());
    for (size_t r = 0; r < rows.size(); ++r) {
      signatures.push_back(table.ToSignature(rows.row(r)));
    }
    return count_supports(signatures);
  };
  return GenerateClusterCores(relevant_intervals, num_points, params,
                              count_rows, pool);
}

CoreDetectionResult GenerateClusterCores(
    const std::vector<Interval>& relevant_intervals, uint64_t num_points,
    const P3CParams& params, const IdSupportCountFn& count_supports,
    ThreadPool* pool) {
  CoreDetectionResult result;
  CoreDetectionStats& stats = result.stats;
  if (relevant_intervals.empty()) return result;

  // The lattice runs on interned intervals; the support counter takes
  // them as rows, and Signatures are built only for the returned cores.
  const IntervalTable table(relevant_intervals);
  Lattice lattice;

  // Level 1: every relevant interval is a candidate 1-signature.
  IdRows current;
  current.p = 1;
  current.ids.reserve(relevant_intervals.size());
  for (const Interval& interval : relevant_intervals) {
    current.ids.push_back(table.Find(interval));
  }
  std::sort(current.ids.begin(), current.ids.end());
  stats.num_candidates_generated += current.size();
  stats.num_levels = 1;

  std::vector<IdRows> pending = {current};  // awaiting a proving round
  size_t csum = current.size();
  size_t prev_level_size = current.size();

  while (true) {
    bool prove_now = true;
    if (params.multilevel_candidates) {
      // §5.3 heuristic: keep collecting while the candidate sets shrink
      // or the collected total stays below Tc.
      prove_now = current.size() == 0 ||
                  (csum > params.t_c && current.size() > prev_level_size);
    }

    IdRows base;
    if (prove_now && !pending.empty()) {
      ProveBatch(pending, table, num_points, params, count_supports, pool,
                 lattice, stats);
      pending.clear();
      csum = 0;
      // Continue the A-priori expansion from the proven members of the
      // newest level.
      base.p = current.p;
      for (size_t r = 0; r < current.size(); ++r) {
        const std::span<const IntervalId> row = current.row(r);
        if (lattice.IsProven(row)) {
          base.ids.insert(base.ids.end(), row.begin(), row.end());
        }
      }
    } else {
      base = current;
    }
    if (base.size() == 0) break;

    prev_level_size = current.size();
    const uint64_t pairs =
        static_cast<uint64_t>(base.size()) * (base.size() - 1) / 2;
    if (pairs > params.max_join_pairs) {
      P3C_LOG(kWarning) << "cluster-core generation truncated: joining "
                        << base.size() << " signatures needs " << pairs
                        << " pair joins (cap " << params.max_join_pairs
                        << ")";
      stats.truncated = true;
      if (!pending.empty()) {
        ProveBatch(pending, table, num_points, params, count_supports, pool,
                   lattice, stats);
      }
      break;
    }
    {
      TraceSpan span("core:join");
      current = GenerateCandidateRows(base, table.attrs(), pool, params.t_gen);
    }
    stats.num_candidates_generated += current.size();
    if (current.size() > params.max_candidates_per_level) {
      // Combinatorial blow-up guard: stop expanding, prove what we have.
      P3C_LOG(kWarning) << "cluster-core generation truncated: level "
                        << (stats.num_levels + 1) << " produced "
                        << current.size() << " candidates (cap "
                        << params.max_candidates_per_level << ")";
      stats.truncated = true;
      current.ids.clear();
    }
    if (current.size() == 0) {
      if (!pending.empty()) {
        ProveBatch(pending, table, num_points, params, count_supports, pool,
                   lattice, stats);
        pending.clear();
      }
      break;
    }
    ++stats.num_levels;
    pending.push_back(current);
    csum += current.size();
  }

  // ---- Maximality (Definition 5(2)) ------------------------------------
  std::vector<ClusterCore> maximal = MaximalCores(lattice, table, num_points);
  stats.num_maximal = maximal.size();

  // ---- Redundancy filter (§4.2.1) ---------------------------------------
  std::vector<ClusterCore> filtered = FilterRedundant(maximal);
  stats.num_after_redundancy = filtered.size();
  result.cores =
      params.redundancy_filter ? std::move(filtered) : std::move(maximal);
  return result;
}

}  // namespace p3c::core
