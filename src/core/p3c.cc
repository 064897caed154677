#include "src/core/p3c.h"

#include <algorithm>

#include "src/common/stopwatch.h"
#include "src/core/attribute_inspection.h"
#include "src/core/gmm.h"
#include "src/core/interval_tightening.h"
#include "src/core/outlier.h"
#include "src/core/relevant_intervals.h"
#include "src/core/support_counter.h"

namespace p3c::core {

namespace {

/// Per-attribute histograms of the whole dataset (the §5.1 histogram
/// job): range-parallel partial histograms merged by a single "reducer".
/// The same scan counts the values outside [0, 1]; any such value
/// rejects the dataset.
Result<std::vector<stats::Histogram>> BuildDatasetHistograms(
    const data::Dataset& dataset, stats::BinningRule rule, ThreadPool* pool) {
  const size_t n = dataset.num_points();
  const size_t d = dataset.num_dims();
  const uint64_t bins = stats::NumBins(rule, std::max<uint64_t>(1, n));
  const size_t num_tasks =
      pool == nullptr ? 1 : std::min(n, pool->num_threads() * 4);

  std::vector<std::vector<stats::Histogram>> partials(
      std::max<size_t>(1, num_tasks),
      std::vector<stats::Histogram>(d,
                                    stats::Histogram(static_cast<size_t>(bins))));
  std::vector<uint64_t> out_of_range(partials.size(), 0);
  auto scan = [&](size_t task, size_t begin, size_t end) {
    out_of_range[task] =
        stats::AddRows(partials[task], dataset.values().data() + begin * d,
                       end - begin);
  };
  if (pool == nullptr || num_tasks <= 1) {
    scan(0, 0, n);
  } else {
    pool->ParallelFor(num_tasks, [&](size_t task) {
      scan(task, n * task / num_tasks, n * (task + 1) / num_tasks);
    });
  }
  for (uint64_t count : out_of_range) {
    if (count > 0) {
      return Status::InvalidArgument(
          "dataset must be normalized to [0, 1]; call NormalizeMinMax first");
    }
  }
  std::vector<stats::Histogram> merged = std::move(partials.front());
  for (size_t t = 1; t < partials.size(); ++t) {
    for (size_t j = 0; j < d; ++j) merged[j].Merge(partials[t][j]);
  }
  return merged;
}

}  // namespace

P3CPipeline::P3CPipeline(P3CParams params, size_t num_threads)
    : params_(params), pool_(std::make_unique<ThreadPool>(num_threads)) {}

Result<ClusteringResult> P3CPipeline::Cluster(const data::Dataset& dataset) {
  Stopwatch watch;
  if (dataset.num_points() == 0 || dataset.num_dims() == 0) {
    return Status::InvalidArgument("dataset is empty");
  }
  ThreadPool* pool = pool_.get();
  ClusteringResult result;

  // ---- 1. Histogram building (§5.1), which checks the [0, 1] range -------
  Result<std::vector<stats::Histogram>> histograms =
      BuildDatasetHistograms(dataset, params_.binning, pool);
  if (!histograms.ok()) return histograms.status();

  // ---- 2. Relevant intervals (§5.2) --------------------------------------
  const std::vector<Interval> relevant =
      FindAllRelevantIntervals(*histograms, params_.alpha_chi2);

  // ---- 3. Cluster-core generation (§5.3) ---------------------------------
  SupportCountFn counter = [&](const std::vector<Signature>& sigs) {
    return CountSupports(dataset, sigs, pool);
  };
  CoreDetectionResult detection = GenerateClusterCores(
      relevant, dataset.num_points(), params_, counter, pool);
  result.core_stats = detection.stats;
  result.cores = detection.cores;
  if (detection.cores.empty()) {
    result.seconds = watch.ElapsedSeconds();
    return result;
  }
  result.arel = RelevantAttributeUnion(detection.cores);

  const size_t k = detection.cores.size();
  std::vector<std::vector<data::PointId>> members(k);
  std::vector<std::vector<data::PointId>> reported_points(k);

  if (params_.light) {
    // ---- Light path (§6): clusters are the cores themselves -------------
    std::vector<Signature> signatures;
    signatures.reserve(k);
    for (const ClusterCore& core : detection.cores) {
      signatures.push_back(core.signature);
    }
    reported_points = ComputeSupportSets(dataset, signatures, pool);
    // m' mapping: histograms (and tightening) use only points matching
    // exactly one core, which avoids the redundancy-induced blur.
    const std::vector<int32_t> unique =
        UniqueAssignments(dataset, signatures, pool);
    for (size_t i = 0; i < unique.size(); ++i) {
      if (unique[i] >= 0) {
        members[static_cast<size_t>(unique[i])].push_back(
            static_cast<data::PointId>(i));
      }
    }
  } else {
    // ---- Full path: EM refinement + outlier detection (§5.4, §5.5) ------
    Result<GmmModel> init =
        InitializeFromCores(dataset, detection.cores, params_, pool);
    if (!init.ok()) return init.status();
    Result<EmResult> em =
        RunEm(dataset, std::move(init).value(), params_, pool);
    if (!em.ok()) return em.status();
    Result<OutlierDetectionResult> od =
        DetectOutliers(dataset, em->model, params_, pool);
    if (!od.ok()) return od.status();
    for (size_t i = 0; i < od->assignment.size(); ++i) {
      const int32_t c = od->assignment[i];
      if (c >= 0) {
        members[static_cast<size_t>(c)].push_back(
            static_cast<data::PointId>(i));
      }
    }
    reported_points = members;
  }

  // ---- 4. Attribute inspection (§4.2.3 / §5.6) ---------------------------
  std::vector<std::vector<Interval>> suggestions(k);
  if (pool != nullptr && k > 1) {
    pool->ParallelFor(k, [&](size_t c) {
      const auto member_hists =
          BuildMemberHistograms(dataset, members[c], params_.binning);
      suggestions[c] = SuggestNewIntervals(detection.cores[c].signature,
                                           member_hists, params_.alpha_chi2);
    });
  } else {
    for (size_t c = 0; c < k; ++c) {
      const auto member_hists =
          BuildMemberHistograms(dataset, members[c], params_.binning);
      suggestions[c] = SuggestNewIntervals(detection.cores[c].signature,
                                           member_hists, params_.alpha_chi2);
    }
  }
  const std::vector<std::vector<Interval>> accepted =
      ProveSuggestedIntervals(detection.cores, suggestions, params_, counter);

  // ---- 5. Interval tightening (§5.7) --------------------------------------
  for (size_t c = 0; c < k; ++c) {
    if (reported_points[c].empty()) continue;  // nothing to report
    ProjectedCluster cluster;
    cluster.points = reported_points[c];
    if (members[c].empty()) {
      // Light corner case: every support-set point is shared with another
      // core, so no m'-unique members exist to inspect or tighten with;
      // report the core's own signature.
      cluster.attrs = detection.cores[c].signature.attrs();
      cluster.intervals = detection.cores[c].signature.intervals();
    } else {
      cluster.attrs =
          FinalAttributes(detection.cores[c].signature, accepted[c]);
      cluster.intervals = TightenIntervals(dataset, members[c], cluster.attrs);
    }
    result.clusters.push_back(std::move(cluster));
  }

  result.seconds = watch.ElapsedSeconds();
  return result;
}

}  // namespace p3c::core
