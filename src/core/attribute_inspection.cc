#include "src/core/attribute_inspection.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "src/core/relevant_intervals.h"
#include "src/stats/effect_size.h"
#include "src/stats/poisson.h"

namespace p3c::core {

std::vector<stats::Histogram> BuildMemberHistograms(
    const data::Dataset& dataset, const std::vector<data::PointId>& members,
    stats::BinningRule rule) {
  const size_t d = dataset.num_dims();
  const uint64_t bins =
      stats::NumBins(rule, std::max<uint64_t>(1, members.size()));
  std::vector<stats::Histogram> histograms(
      d, stats::Histogram(static_cast<size_t>(bins)));
  // The pipeline's histogram scan has already checked every value's
  // range; the count is dropped.
  for (data::PointId p : members) {
    (void)stats::AddRows(histograms, dataset.Row(p).data(), 1);
  }
  return histograms;
}

std::vector<Interval> SuggestNewIntervals(
    const Signature& core_signature,
    const std::vector<stats::Histogram>& member_histograms,
    double alpha_chi2) {
  std::vector<Interval> out;
  for (size_t attr = 0; attr < member_histograms.size(); ++attr) {
    if (core_signature.HasAttr(attr)) continue;
    RelevantIntervalsResult r =
        FindRelevantIntervals(attr, member_histograms[attr], alpha_chi2);
    out.insert(out.end(), r.intervals.begin(), r.intervals.end());
  }
  return out;
}

std::vector<std::vector<Interval>> ProveSuggestedIntervals(
    const std::vector<ClusterCore>& cores,
    const std::vector<std::vector<Interval>>& suggestions,
    const P3CParams& params, const SupportCountFn& count_supports) {
  std::vector<std::vector<Interval>> accepted(cores.size());

  if (!params.ai_proving) {
    // Original P3C: accept all suggested attributes (keep the widest
    // interval per attribute -- the histogram marking already merged
    // adjacent bins, so several intervals per attribute are rare).
    for (size_t c = 0; c < cores.size(); ++c) {
      std::map<size_t, Interval> best;
      for (const Interval& interval : suggestions[c]) {
        auto it = best.find(interval.attr);
        if (it == best.end() || interval.width() > it->second.width()) {
          best[interval.attr] = interval;
        }
      }
      for (const auto& [attr, interval] : best) {
        (void)attr;
        accepted[c].push_back(interval);
      }
    }
    return accepted;
  }

  // ---- Batched proving over the full dataset ----------------------------
  struct Pending {
    size_t cluster;
    Interval interval;
    size_t batch_index;  // into `augmented`
  };
  std::vector<Signature> augmented;
  std::vector<Pending> pending;
  for (size_t c = 0; c < cores.size(); ++c) {
    for (const Interval& interval : suggestions[c]) {
      Result<Signature> with = cores[c].signature.With(interval);
      if (!with.ok()) continue;  // attribute already present; not suggested
      pending.push_back(Pending{c, interval, augmented.size()});
      augmented.push_back(std::move(with).value());
    }
  }
  if (augmented.empty()) return accepted;
  const std::vector<uint64_t> counts = count_supports(augmented);

  const double log_alpha = std::log(params.alpha_poisson);
  // Per (cluster, attr) keep the accepted interval with the largest
  // effect size.
  std::map<std::pair<size_t, size_t>, std::pair<double, Interval>> best;
  for (const Pending& p : pending) {
    const double observed = static_cast<double>(counts[p.batch_index]);
    const double expected =
        static_cast<double>(cores[p.cluster].support) * p.interval.width();
    if (!stats::PoissonSignificantlyLargerLog(observed, expected, log_alpha)) {
      continue;
    }
    const double effect = stats::CohensDcc(observed, expected);
    if (params.proving == ProvingMode::kPoissonAndEffectSize &&
        effect < params.theta_cc) {
      continue;
    }
    const auto key = std::make_pair(p.cluster, p.interval.attr);
    auto it = best.find(key);
    if (it == best.end() || effect > it->second.first) {
      best[key] = {effect, p.interval};
    }
  }
  for (const auto& [key, value] : best) {
    accepted[key.first].push_back(value.second);
  }
  return accepted;
}

std::vector<size_t> FinalAttributes(const Signature& core_signature,
                                    const std::vector<Interval>& accepted) {
  std::vector<size_t> attrs = core_signature.attrs();
  for (const Interval& interval : accepted) attrs.push_back(interval.attr);
  std::sort(attrs.begin(), attrs.end());
  attrs.erase(std::unique(attrs.begin(), attrs.end()), attrs.end());
  return attrs;
}

}  // namespace p3c::core
