#include "src/core/core_detection.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "src/common/logging.h"
#include "src/core/candidate_gen.h"
#include "src/stats/effect_size.h"
#include "src/stats/poisson.h"

namespace p3c::core {

namespace {

using SupportTable = std::unordered_map<Signature, uint64_t, SignatureHash>;
using SignatureSet = std::unordered_set<Signature, SignatureHash>;

/// Shared proving state across batches of one detection run.
struct ProvingState {
  SupportTable supports;
  SignatureSet proven;
  std::vector<Signature> all_proven;  // insertion-ordered
};

/// Counts every not-yet-counted signature reachable from `batch` by
/// removing intervals (downward closure), then decides provenness bottom
/// up. Returns the number of newly proven signatures.
size_t ProveBatch(const std::vector<Signature>& batch, uint64_t num_points,
                  const P3CParams& params,
                  const SupportCountFn& count_supports, ProvingState& state,
                  CoreDetectionStats& stats) {
  // ---- Downward closure of uncounted signatures -----------------------
  std::vector<Signature> to_count;
  SignatureSet queued;
  std::vector<Signature> frontier;
  for (const Signature& s : batch) {
    if (state.supports.count(s) == 0 && queued.insert(s).second) {
      frontier.push_back(s);
    }
  }
  while (!frontier.empty()) {
    Signature s = std::move(frontier.back());
    frontier.pop_back();
    if (s.size() > 1) {
      for (size_t i = 0; i < s.size(); ++i) {
        Signature sub = s.Without(i);
        if (state.supports.count(sub) == 0 && queued.insert(sub).second) {
          frontier.push_back(sub);
        }
      }
    }
    to_count.push_back(std::move(s));
  }

  if (!to_count.empty()) {
    const std::vector<uint64_t> counts = count_supports(to_count);
    for (size_t i = 0; i < to_count.size(); ++i) {
      state.supports.emplace(std::move(to_count[i]), counts[i]);
    }
    stats.num_signatures_counted += to_count.size();
  }

  // ---- Provenness, bottom-up by signature size -------------------------
  // Evaluate everything we just counted plus the batch itself (some batch
  // members may have been counted earlier but never evaluated: not
  // possible, evaluation happens in the same call as counting — so only
  // the closure set needs evaluation).
  std::vector<const Signature*> order;
  order.reserve(queued.size());
  for (const Signature& s : queued) order.push_back(&s);
  std::sort(order.begin(), order.end(),
            [](const Signature* a, const Signature* b) {
              if (a->size() != b->size()) return a->size() < b->size();
              return *a < *b;
            });

  const double log_alpha = std::log(params.alpha_poisson);
  size_t newly_proven = 0;
  for (const Signature* sp : order) {
    const Signature& s = *sp;
    if (state.proven.count(s) != 0) continue;
    const double observed = static_cast<double>(state.supports.at(s));
    bool ok = true;
    for (size_t i = 0; ok && i < s.size(); ++i) {
      const Interval& interval = s.intervals()[i];
      double expected;
      if (s.size() == 1) {
        expected = static_cast<double>(num_points) * interval.width();
      } else {
        const Signature sub = s.Without(i);
        auto it = state.proven.find(sub);
        if (it == state.proven.end()) {
          ok = false;  // Definition 5 recursion: all subsets proven.
          break;
        }
        expected =
            static_cast<double>(state.supports.at(sub)) * interval.width();
      }
      if (!stats::PoissonSignificantlyLargerLog(observed, expected,
                                                log_alpha)) {
        ok = false;
        break;
      }
      if (params.proving == ProvingMode::kPoissonAndEffectSize &&
          !stats::EffectSizeLargeEnough(observed, expected, params.theta_cc)) {
        ok = false;
        break;
      }
    }
    if (ok) {
      state.proven.insert(s);
      state.all_proven.push_back(s);
      ++newly_proven;
    }
  }
  stats.num_proven += newly_proven;
  ++stats.num_support_batches;
  return newly_proven;
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

  struct IntervalHash {
    size_t operator()(const Interval& i) const {
      SignatureHash h;
      return h(Signature::Single(i));
    }
  };
  std::unordered_set<Interval, IntervalHash> pool;
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
  CoreDetectionResult result;
  CoreDetectionStats& stats = result.stats;
  if (relevant_intervals.empty()) return result;

  ProvingState state;

  // Level 1: every relevant interval is a candidate 1-signature.
  std::vector<Signature> current;
  current.reserve(relevant_intervals.size());
  for (const Interval& interval : relevant_intervals) {
    current.push_back(Signature::Single(interval));
  }
  std::sort(current.begin(), current.end());
  stats.num_candidates_generated += current.size();
  stats.num_levels = 1;

  std::vector<Signature> pending = current;  // awaiting a proving round
  size_t csum = pending.size();
  size_t prev_level_size = current.size();

  while (true) {
    bool prove_now = true;
    if (params.multilevel_candidates) {
      // §5.3 heuristic: keep collecting while the candidate sets shrink
      // or the collected total stays below Tc.
      prove_now = current.empty() ||
                  (csum > params.t_c && current.size() > prev_level_size);
    }

    std::vector<Signature> base;
    if (prove_now && !pending.empty()) {
      ProveBatch(pending, num_points, params, count_supports, state, stats);
      pending.clear();
      csum = 0;
      // Continue the A-priori expansion from the proven members of the
      // newest level.
      base.reserve(current.size());
      for (const Signature& s : current) {
        if (state.proven.count(s) != 0) base.push_back(s);
      }
    } else {
      base = current;
    }
    if (base.empty()) break;

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
        ProveBatch(pending, num_points, params, count_supports, state, stats);
      }
      break;
    }
    current = GenerateCandidates(base, pool, params.t_gen);
    stats.num_candidates_generated += current.size();
    if (current.size() > params.max_candidates_per_level) {
      // Combinatorial blow-up guard: stop expanding, prove what we have.
      P3C_LOG(kWarning) << "cluster-core generation truncated: level "
                        << (stats.num_levels + 1) << " produced "
                        << current.size() << " candidates (cap "
                        << params.max_candidates_per_level << ")";
      stats.truncated = true;
      current.clear();
    }
    if (current.empty()) {
      if (!pending.empty()) {
        ProveBatch(pending, num_points, params, count_supports, state, stats);
        pending.clear();
      }
      break;
    }
    ++stats.num_levels;
    pending.insert(pending.end(), current.begin(), current.end());
    csum += current.size();
  }

  // ---- Maximality (Definition 5(2)) ------------------------------------
  std::vector<ClusterCore> maximal;
  for (const Signature& s : state.all_proven) {
    bool is_maximal = true;
    for (const Signature& t : state.all_proven) {
      if (t.size() > s.size() && s.IsSubsetOf(t)) {
        is_maximal = false;
        break;
      }
    }
    if (!is_maximal) continue;
    ClusterCore core;
    core.support = state.supports.at(s);
    core.expected_support =
        static_cast<double>(num_points) * s.VolumeFraction();
    core.signature = s;
    maximal.push_back(std::move(core));
  }
  // Canonical order for reproducible downstream numbering.
  std::sort(maximal.begin(), maximal.end(),
            [](const ClusterCore& a, const ClusterCore& b) {
              return a.signature < b.signature;
            });
  stats.num_maximal = maximal.size();

  // ---- Redundancy filter (§4.2.1) ---------------------------------------
  std::vector<ClusterCore> filtered = FilterRedundant(maximal);
  stats.num_after_redundancy = filtered.size();
  result.cores =
      params.redundancy_filter ? std::move(filtered) : std::move(maximal);
  return result;
}

}  // namespace p3c::core
