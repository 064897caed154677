#include "src/mr/p3c_mr.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "src/common/logging.h"
#include "src/common/resource.h"
#include "src/common/stopwatch.h"
#include "src/common/string_util.h"
#include "src/common/trace.h"
#include "src/core/attribute_inspection.h"
#include "src/core/gmm.h"
#include "src/core/relevant_intervals.h"
#include "src/linalg/cholesky.h"
#include "src/mr/checkpoint.h"
#include "src/mr/jobs.h"
#include "src/stats/chi_squared.h"

namespace p3c::mr {

bool IsRetryableJobFailure(const Status& status) {
  // kDeadlineExceeded: a task was killed for running past its wall-clock
  // deadline and exhausted its attempts — slowness is transient (a loaded
  // machine, a stuck disk), so the job is worth one more run. The phase
  // budget, not the retry policy, bounds how long the pipeline keeps
  // trying.
  return status.code() == StatusCode::kInternal ||
         status.code() == StatusCode::kIOError ||
         status.code() == StatusCode::kDeadlineExceeded;
}

namespace {

/// What every phase run needs from the driver: the job-retry policy,
/// the job log its jobs land in, and the driver bag its wall time goes
/// to.
struct PhaseContext {
  const JobRetryPolicy& retry;
  MetricsRegistry& log;
  MetricBag& driver;
};

/// One run of a pipeline phase, scoped. It opens the `phase:*` trace
/// span (the middle level of the trace hierarchy: pipeline → phase → job
/// → task attempt) and the `mem.phase.*` memory window; repeated windows
/// with the same name (job retries, the EM loop) max-merge into one
/// peak gauge, and with the tracker off the window costs two relaxed
/// loads. On exit it stamps the phase on every job the run recorded and
/// adds the run's wall time to the phase's row in the driver bag.
class PhaseScope {
 public:
  PhaseScope(const PhaseContext& ctx, const char* phase)
      : ctx_(ctx),
        phase_(phase),
        first_job_(ctx.log.num_jobs()),
        span_(std::string("phase:") + phase) {
    if (resource::MemoryTracker::Global().enabled()) {
      mem_window_ = true;
      resource::MemoryTracker::Global().BeginPhase(phase);
    }
  }
  ~PhaseScope() {
    if (mem_window_) resource::MemoryTracker::Global().EndPhase();
    ctx_.log.StampPhase(first_job_, phase_);
    MetricsRegistry::AddPhaseWall(ctx_.driver, phase_, ElapsedSeconds());
  }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

  double ElapsedSeconds() const { return watch_.ElapsedSeconds(); }

 private:
  const PhaseContext& ctx_;
  const char* phase_;
  size_t first_job_;
  Stopwatch watch_;
  TraceSpan span_;
  bool mem_window_ = false;
};

/// Runs one MR job under the pipeline's job-retry policy, inside one
/// PhaseScope: retryable failures re-run the whole job (failed jobs
/// leave no side effects, so this is safe), fatal ones and exhausted
/// policies surface a Status naming the pipeline phase and the attempt
/// count on top of the engine's job/task detail. A phase that has
/// already consumed JobRetryPolicy::phase_budget_seconds of wall-clock
/// time stops retrying and fails with a phase-tagged kDeadlineExceeded —
/// a pathological phase (every attempt deadline-killed, every job
/// re-run) degrades into a bounded, explained failure instead of
/// wedging the caller.
template <typename Fn>
auto RunPipelineJob(const PhaseContext& ctx, const char* phase, Fn&& fn)
    -> decltype(fn()) {
  PhaseScope scope(ctx, phase);
  const JobRetryPolicy& policy = ctx.retry;
  const size_t max_attempts = std::max<size_t>(1, policy.max_job_attempts);
  Status last;
  size_t attempts = 0;
  for (; attempts < max_attempts; ++attempts) {
    auto result = fn();
    if (result.ok()) return result;
    last = result.status();
    if (Tracer::Global().enabled()) {
      Tracer::Global().RecordInstant(
          StringPrintf("job-failed (phase %s)", phase),
          StringPrintf("{\"error\": \"%s\"}",
                       JsonEscape(last.message()).c_str()));
    }
    if (!IsRetryableJobFailure(last)) {
      ++attempts;
      break;
    }
    if (policy.phase_budget_seconds > 0.0 &&
        scope.ElapsedSeconds() >= policy.phase_budget_seconds) {
      ++attempts;
      return Status::DeadlineExceeded(StringPrintf(
          "P3C+-MR phase '%s' exceeded its %.3fs wall-clock budget after "
          "%zu job attempt(s); last failure: %s",
          phase, policy.phase_budget_seconds, attempts,
          last.message().c_str()));
    }
  }
  return Status(last.code(),
                StringPrintf("P3C+-MR phase '%s' failed after %zu job "
                             "attempt(s): %s",
                             phase, attempts, last.message().c_str()));
}

/// Turns moment/covariance job sums into component weights and
/// covariances using the paper's unbiased weighted covariance
/// Sigma_C = wC / (wC^2 - wC2) * sum w (x - mu)(x - mu)^T (§5.4); keeps
/// the previous values when a component received (almost) no mass. The
/// caller installs the means the covariance sums were centred on.
void UpdateModel(const MomentSums& moments,
                 const std::vector<linalg::Matrix>& cov_sums,
                 core::GmmModel& model) {
  const size_t k = model.num_components();
  double total_w = 0.0;
  for (double w : moments.w) total_w += w;
  for (size_t c = 0; c < k; ++c) {
    core::GaussianComponent& comp = model.components[c];
    const double denom = moments.w[c] * moments.w[c] - moments.w2[c];
    if (moments.w[c] < 1e-9 || denom <= 1e-12) continue;  // keep previous
    comp.weight = total_w > 0.0 ? moments.w[c] / total_w
                                : 1.0 / static_cast<double>(k);
    comp.cov = cov_sums[c].Scale(moments.w[c] / denom);
  }
}

std::vector<linalg::Vector> Means(const core::GmmModel& model) {
  std::vector<linalg::Vector> means;
  means.reserve(model.num_components());
  for (const auto& comp : model.components) means.push_back(comp.mean);
  return means;
}

/// One moment/covariance job pair (§5.4): the moment sums, the centres
/// the covariance sums were taken around, and those sums.
struct MomentPair {
  MomentSums moments;
  std::vector<linalg::Vector> centres;
  std::vector<linalg::Matrix> cov_sums;
};

/// Runs a moment/covariance job pair under `membership`, both jobs in
/// `phase`: the moment job, then centres lsum / w for every component
/// with mass (the others keep `centres`), then the covariance job around
/// them. Both jobs read one MembershipRecord, so the pair evaluates each
/// map range's memberships once; the record dies as soon as the
/// covariance job returns.
Result<MomentPair> RunMomentPair(const PhaseContext& ctx, LocalRunner& runner,
                                 const data::Dataset& dataset,
                                 const core::GmmModel& model,
                                 const MembershipFn& membership,
                                 std::vector<linalg::Vector> centres,
                                 const char* phase, const char* means_job,
                                 const char* covs_job) {
  MembershipRecord record(membership, dataset.num_points());
  auto moments = RunPipelineJob(ctx, phase, [&] {
    return RunMomentJob(runner, dataset, model, record, means_job);
  });
  if (!moments.ok()) return moments.status();
  for (size_t c = 0; c < centres.size(); ++c) {
    if (moments->w[c] < 1e-9) continue;
    for (size_t j = 0; j < centres[c].size(); ++j) {
      centres[c][j] = moments->lsum[c][j] / moments->w[c];
    }
  }
  auto cov_sums = RunPipelineJob(ctx, phase, [&] {
    return RunCovarianceJob(runner, dataset, model, record, centres,
                            covs_job);
  });
  if (!cov_sums.ok()) return cov_sums.status();
  return MomentPair{std::move(moments).value(), std::move(centres),
                    std::move(cov_sums).value()};
}

Result<std::vector<linalg::Cholesky>> FactorizeAll(
    const std::vector<linalg::Matrix>& covs, double ridge) {
  std::vector<linalg::Cholesky> factors;
  factors.reserve(covs.size());
  for (const linalg::Matrix& cov : covs) {
    linalg::Matrix work = cov;
    Result<linalg::Cholesky> chol = linalg::Cholesky::Factorize(work);
    double eps = ridge;
    while (!chol.ok() && eps < 1.0) {
      work.AddToDiagonal(eps);
      chol = linalg::Cholesky::Factorize(work);
      eps *= 10.0;
    }
    if (!chol.ok()) {
      return Status::Internal("covariance not factorizable");
    }
    factors.push_back(std::move(chol).value());
  }
  return factors;
}

}  // namespace

P3CMR::P3CMR(P3CMROptions options) : options_(std::move(options)) {
  options_.runner.metrics = &metrics_;
  runner_ = std::make_unique<LocalRunner>(options_.runner);
}

Result<core::ClusteringResult> P3CMR::Cluster(const data::RowInput& input) {
  Stopwatch watch;
  TraceSpan pipeline_span(
      options_.params.light ? "pipeline:p3c+-mr-light" : "pipeline:p3c+-mr",
      Tracer::Global().enabled()
          ? StringPrintf("{\"points\": %zu, \"dims\": %zu}",
                         input.num_points(), input.num_dims())
          : std::string());
  metrics_.Clear();
  driver_metrics_.Clear();
  // Memory run boundary: clear peaks/phase windows from any previous
  // run, and export the run's gauges and its wall time into
  // driver_metrics_ on every exit path (success and failure alike — a
  // failed run's peaks still matter).
  if (resource::MemoryTracker::Global().enabled()) {
    resource::MemoryTracker::Global().ResetRun();
  }
  struct GaugeExportOnExit {
    MetricBag* bag;
    const MetricsRegistry* log;
    LocalRunner* runner;
    const Stopwatch* watch;
    ~GaugeExportOnExit() {
      MetricsRegistry::SetCallWall(*bag, watch->ElapsedSeconds());
      if (resource::MemoryTracker::Global().enabled()) {
        resource::MemoryTracker::Global().ExportGauges(bag);
        // The largest map task footprint of the call's jobs.
        uint64_t task_peak = 0;
        for (const JobMetrics& job : log->jobs()) {
          task_peak = std::max(task_peak, job.task_peak_bytes);
        }
        bag->SetGauge("mem.task.peak_bytes", static_cast<double>(task_peak));
      }
      // Worker-backend observability (DESIGN.md §16): spawn/respawn/
      // kill counters and the peak worker RSS gauge land next to the
      // checkpoint and memory bookkeeping — driver-side only, never in
      // the deterministic job counters. Empty on the in-process
      // backend.
      bag->MergeFrom(runner->SnapshotWorkerMetrics());
    }
  } gauge_export{&driver_metrics_, &metrics_, runner_.get(), &watch};
  if (input.num_points() == 0 || input.num_dims() == 0) {
    return Status::InvalidArgument("dataset is empty");
  }
  // Values outside [0, 1] are rejected by the histogram job's own scan
  // (InvalidArgument, not retried, nothing committed). A resumed run that
  // skips that phase holds a checkpoint whose dataset fingerprint binds
  // it to data the job already accepted.
  const core::P3CParams& params = options_.params;
  if (!params.light && params.outlier == core::OutlierMode::kMCD) {
    return Status::NotImplemented(
        "OutlierMode::kMCD is serial-only (its concentration steps are not "
        "record-parallel); use core::P3CPipeline, or kMVB here");
  }
  if (!params.light && input.dataset() == nullptr) {
    return Status::NotImplemented(
        "the full P3C+-MR pipeline reads an in-memory dataset; load the "
        "file, or run the Light pipeline over it");
  }
  LocalRunner& runner = *runner_;
  const PhaseContext phases{options_.retry, metrics_, driver_metrics_};
  core::ClusteringResult result;

  // ---- 0. Checkpoint scan (DESIGN.md §13) ---------------------------------
  // The checkpoint record is the driver's state: each phase below reads
  // it when a resumed run skips the phase, and extends it when the phase
  // runs live.
  CheckpointManager ckpt({options_.checkpoint_dir, &driver_metrics_});
  ckpt.Initialize(input, params, &runner.pool());
  PipelineCheckpoint& state = ckpt.state();
  const size_t completed = ckpt.num_completed();
  if (completed > 0) {
    // Replay the framework-counter snapshot persisted with the last
    // completed phase, so the skipped phases' counters are present and
    // the final counter JSON matches an uninterrupted run's byte for
    // byte. The resume bookkeeping itself goes to driver_metrics_ only.
    const std::string& last = state.completed.back();
    metrics_.ReplayCounters(state.counters);
    driver_metrics_.SetGauge("checkpoint.resumed_from_phase",
                             static_cast<double>(completed));
    if (Tracer::Global().enabled()) {
      Tracer::Global().RecordInstant(
          "checkpoint-resume",
          StringPrintf("{\"completed_phases\": %zu, \"last_phase\": \"%s\"}",
                       completed, last.c_str()));
    }
    P3C_LOG(kInfo) << "resuming from checkpoint: skipping " << completed
                   << " completed phase(s), continuing after '" << last
                   << "'";
  }

  // Cooperative shutdown: between phases the driver's own token is the
  // cancellation authority (task-level tokens stop individual attempts;
  // this stops the pipeline). Checked right after each commit, so a
  // SIGTERM'd run exits with every finished phase already durable.
  auto check_cancel = [&](const char* after_phase) -> Status {
    if (!options_.cancel.cancelled()) return Status::OK();
    return Status::Cancelled(StringPrintf(
        "pipeline cancelled after phase '%s'%s", after_phase,
        ckpt.enabled() ? "; completed phases are checkpointed and the run "
                         "can resume from the checkpoint directory"
                       : ""));
  };
  // Commits the record as extended by one finished phase, then gives the
  // fault injector its crash point: the checkpoint is durable when the
  // hook fires, so an injected failure here models a driver killed at
  // the phase boundary.
  auto finish_phase = [&](const char* name) -> Status {
    if (ckpt.enabled()) {
      state.counters = metrics_.MergedCounters();
      P3C_RETURN_NOT_OK(ckpt.CommitPhase(name));
      if (options_.runner.fault_injector != nullptr) {
        const std::string phase_name(name);
        P3C_RETURN_NOT_OK(options_.runner.fault_injector->OnPhaseCommit(
            PhaseCommit{phase_name, ckpt.num_completed() - 1}));
      }
    }
    return check_cancel(name);
  };
  P3C_RETURN_NOT_OK(check_cancel("<none>"));

  // ---- 1. Histogram job (§5.1) -------------------------------------------
  if (completed < 1) {
    auto histograms_result = RunPipelineJob(phases, "histogram", [&] {
      return RunHistogramJob(runner, input, params.binning);
    });
    if (!histograms_result.ok()) return histograms_result.status();
    state.histograms = std::move(histograms_result).value();
    P3C_RETURN_NOT_OK(finish_phase("histogram"));
  }

  // ---- 2. Relevant intervals — driver-side, "computationally cheap" (§5.2)
  const std::vector<core::Interval> relevant =
      core::FindAllRelevantIntervals(state.histograms, params.alpha_chi2);

  // ---- 3. Cluster-core generation with support jobs (§5.3) ----------------
  // A support counter cannot return a Status, so the counter parks the
  // first unrecoverable job failure here and returns zero supports; the
  // driver checks after each counter-driven stage. Zero supports prove
  // nothing, so no wrong cores are derived from a failed job. The
  // cancellation poll makes mid-generation SIGTERM stop at the next
  // batch instead of grinding through the remaining proving rounds.
  //
  // The run's interval index (§5.3's distributed cache, DESIGN.md
  // §14.1): the first core-generation support job also returns the row
  // words of every entry of the run's IntervalTable (the relevant
  // intervals). Every later core batch, which is over that table, and
  // the support-set and AI-proving batches whose intervals it holds
  // read those words instead of the rows. AI-proving batches carrying
  // newer intervals and a run resumed past core generation scan the
  // rows. So does a run whose index would exceed 1/8 of the dataset's
  // bytes: T bits a row against 64·d, so T > 8·d.
  std::optional<core::IntervalIndex> index;
  bool fill_index = completed < 2 && relevant.size() <= 8 * input.num_dims();
  Status support_job_error;
  core::IdSupportCountFn count_rows =
      [&](const core::IntervalTable& table, const core::IntervalRows& rows) {
        if (options_.cancel.cancelled()) {
          if (support_job_error.ok()) {
            support_job_error =
                Status::Cancelled("pipeline cancelled during support counting");
          }
          return std::vector<uint64_t>(rows.size(), 0);
        }
        auto supports = RunPipelineJob(
            phases, "support-count", [&]() -> Result<std::vector<uint64_t>> {
              if (!fill_index || rows.size() == 0) {
                return RunSupportJob(runner, input, table, rows,
                                     index ? &*index : nullptr);
              }
              auto indexed = RunIndexingSupportJob(runner, input, table, rows);
              if (!indexed.ok()) return indexed.status();
              index.emplace(std::move(indexed->index));
              fill_index = false;
              return std::move(indexed->supports);
            });
        if (!supports.ok()) {
          if (support_job_error.ok()) support_job_error = supports.status();
          return std::vector<uint64_t>(rows.size(), 0);
        }
        return std::move(supports).value();
      };
  // The whole candidate-generation / support-counting / core-detection
  // block checkpoints as one "cluster-cores" phase: its driver state
  // (the proven cores and their stats) is small, while mid-generation
  // state (the A-priori lattice frontier) is not worth persisting.
  if (completed < 2) {
    core::CoreDetectionResult detection = core::GenerateClusterCores(
        relevant, input.num_points(), params, count_rows, &runner.pool());
    if (!support_job_error.ok()) return support_job_error;
    fill_index = false;  // later batches carry newer intervals
    state.core_stats = detection.stats;
    state.cores = std::move(detection.cores);
    P3C_RETURN_NOT_OK(finish_phase("cluster-cores"));
  }
  const std::vector<core::ClusterCore>& cores = state.cores;
  result.core_stats = state.core_stats;
  result.cores = cores;
  if (cores.empty()) {
    result.seconds = watch.ElapsedSeconds();
    return result;
  }
  result.arel = core::RelevantAttributeUnion(cores);

  const size_t k = cores.size();
  std::vector<core::Signature> signatures;
  signatures.reserve(k);
  for (const auto& core : cores) signatures.push_back(core.signature);

  // Per point: cluster or negative.
  std::vector<int32_t>& membership = state.membership;
  std::vector<std::vector<data::PointId>>& reported_points =
      state.support_sets;

  if (params.light) {
    // ---- Light path (§6) --------------------------------------------------
    if (completed < 3) {
      auto sets = RunPipelineJob(phases, "support-sets", [&] {
        return RunSupportSetJob(runner, input, signatures,
                                index ? &*index : nullptr);
      });
      if (!sets.ok()) return sets.status();
      reported_points = std::move(sets->support_sets);
      membership = std::move(sets->unique_assignment);
      P3C_RETURN_NOT_OK(finish_phase("support-sets"));
    }
    // m': multi-core points carry -2 and are excluded from histograms and
    // tightening by the jobs' `c < 0` guard.
  } else if (completed < 4) {
    // ---- Full path: EM, then outlier detection ----------------------------
    // A run resumed after 'em-refinement' restored the converged model
    // and runs outlier detection live.
    const data::Dataset& dataset = *input.dataset();
    core::GmmModel& model = state.model;
    const size_t dim = result.arel.size();
    if (completed < 3) {
      // One EM round (§5.4): a moment/covariance pair under the
      // `weights` membership, then the model update. A component with
      // mass takes the pair's centres as its means even when UpdateModel
      // keeps its previous covariance. The EM loop reads the returned
      // log-likelihood.
      auto em_round = [&](const MembershipFn& weights, const char* phase,
                          const char* means_job,
                          const char* covs_job) -> Result<MomentSums> {
        auto pair = RunMomentPair(phases, runner, dataset, model, weights,
                                  Means(model), phase, means_job, covs_job);
        if (!pair.ok()) return pair.status();
        UpdateModel(pair->moments, pair->cov_sums, model);
        for (size_t c = 0; c < k; ++c) {
          model.components[c].mean = std::move(pair->centres[c]);
        }
        return std::move(pair->moments);
      };

      // ---- EM initialization: two rounds of two jobs (§5.4) --------------
      model.arel = result.arel;
      model.components.assign(k,
                              core::GaussianComponent{
                                  linalg::Vector(dim, 0.5),
                                  linalg::Matrix::Identity(dim).Scale(1e-2),
                                  1.0 / static_cast<double>(k)});

      CoreMembership core_membership(dataset, signatures);
      P3C_RETURN_NOT_OK(em_round(core_membership, "em-init", "em-init-1a",
                                 "em-init-1b")
                            .status());
      Result<core::GmmEvaluator> eval1 =
          core::GmmEvaluator::Make(model, params.covariance_ridge);
      if (!eval1.ok()) return eval1.status();
      OrphanAssigningMembership full_membership(core_membership, *eval1);
      P3C_RETURN_NOT_OK(em_round(full_membership, "em-init", "em-init-2a",
                                 "em-init-2b")
                            .status());

      // ---- EM iterations: two jobs per step (§5.4) ------------------------
      double prev_ll = -std::numeric_limits<double>::infinity();
      for (size_t iter = 0; iter < params.max_em_iterations; ++iter) {
        Result<core::GmmEvaluator> evaluator =
            core::GmmEvaluator::Make(model, params.covariance_ridge);
        if (!evaluator.ok()) return evaluator.status();
        SoftMembership soft(*evaluator);
        Result<MomentSums> moments =
            em_round(soft, "em-step", "em-step-means", "em-step-covs");
        if (!moments.ok()) return moments.status();
        const double denom = std::fabs(prev_ll) + 1e-12;
        if (iter > 0 &&
            std::fabs(moments->log_likelihood - prev_ll) / denom <
                params.em_tolerance) {
          break;
        }
        prev_ll = moments->log_likelihood;
      }

      P3C_RETURN_NOT_OK(finish_phase("em-refinement"));
    }

    // ---- Outlier detection (§5.5) ------------------------------------------
    Result<core::GmmEvaluator> evaluator =
        core::GmmEvaluator::Make(model, params.covariance_ridge);
    if (!evaluator.ok()) return evaluator.status();
    const double critical = stats::ChiSquaredQuantile(
        1.0 - params.outlier_alpha, static_cast<double>(dim));

    std::vector<linalg::Vector> centers;
    std::vector<linalg::Matrix> covs;
    if (params.outlier == core::OutlierMode::kNaive) {
      centers = Means(model);
      covs.reserve(k);
      for (const auto& comp : model.components) covs.push_back(comp.cov);
    } else {
      // MVB: ball job + two statistics jobs (§5.5: "three MR jobs").
      auto balls_result = RunPipelineJob(phases, "mvb", [&] {
        return RunMvbBallJob(runner, dataset, model, *evaluator);
      });
      if (!balls_result.ok()) return balls_result.status();
      const std::vector<MvbBall>& balls = *balls_result;
      BallMembership ball_membership(*evaluator, balls);
      // A cluster without in-ball mass keeps its ball's centre, or its
      // mean when its ball is empty.
      std::vector<linalg::Vector> ball_centres;
      for (size_t c = 0; c < k; ++c) {
        ball_centres.push_back(balls[c].center.empty()
                                   ? model.components[c].mean
                                   : balls[c].center);
      }
      auto pair = RunMomentPair(phases, runner, dataset, model,
                                ball_membership, std::move(ball_centres),
                                "mvb", "mvb-means", "mvb-covs");
      if (!pair.ok()) return pair.status();
      const MomentSums& mb = pair->moments;
      centers = std::move(pair->centres);
      covs.assign(k, linalg::Matrix::Identity(dim).Scale(1e-2));
      for (size_t c = 0; c < k; ++c) {
        const double denom = mb.w[c] * mb.w[c] - mb.w2[c];
        if (mb.w[c] >= 1e-9 && denom > 1e-12) {
          covs[c] = pair->cov_sums[c].Scale(mb.w[c] / denom);
        }
        core::ApplyMvbConsistencyCorrection(covs[c], dim);
      }
    }
    Result<std::vector<linalg::Cholesky>> factors =
        FactorizeAll(covs, params.covariance_ridge);
    if (!factors.ok()) return factors.status();
    auto od = RunPipelineJob(phases, "outlier-detection", [&] {
      return RunOdJob(runner, dataset, model, *evaluator, centers, *factors,
                      critical);
    });
    if (!od.ok()) return od.status();
    membership = std::move(od).value();
    P3C_RETURN_NOT_OK(finish_phase("outlier-detection"));
  }
  if (!params.light) {
    // The full pipeline reports each cluster's OD members. Derived after
    // the last commit, so its record never carries support sets.
    reported_points.assign(k, {});
    for (size_t i = 0; i < membership.size(); ++i) {
      if (membership[i] >= 0) {
        reported_points[static_cast<size_t>(membership[i])].push_back(
            static_cast<data::PointId>(i));
      }
    }
  }

  // ---- Attribute inspection (§5.6) ----------------------------------------
  std::vector<uint64_t> member_counts(k, 0);
  for (int32_t c : membership) {
    if (c >= 0) ++member_counts[static_cast<size_t>(c)];
  }
  std::vector<size_t> bins_per_cluster(k, 1);
  for (size_t c = 0; c < k; ++c) {
    bins_per_cluster[c] = static_cast<size_t>(stats::NumBins(
        params.binning, std::max<uint64_t>(1, member_counts[c])));
  }
  auto member_histograms_result =
      RunPipelineJob(phases, "cluster-histograms", [&] {
        return RunClusterHistogramJob(runner, input, membership, k,
                                      bins_per_cluster);
      });
  if (!member_histograms_result.ok()) {
    return member_histograms_result.status();
  }
  const std::vector<std::vector<stats::Histogram>>& member_histograms =
      *member_histograms_result;
  std::vector<std::vector<core::Interval>> suggestions(k);
  for (size_t c = 0; c < k; ++c) {
    if (member_counts[c] == 0) continue;
    suggestions[c] = core::SuggestNewIntervals(
        cores[c].signature, member_histograms[c], params.alpha_chi2);
  }
  const std::vector<std::vector<core::Interval>> accepted =
      core::ProveSuggestedIntervals(
          cores, suggestions, params,
          [&](const std::vector<core::Signature>& sigs) {
            return WithSignatureRows(sigs, index ? &*index : nullptr,
                                     count_rows);
          });
  if (!support_job_error.ok()) return support_job_error;

  // ---- Interval tightening job (§5.7) --------------------------------------
  std::vector<std::vector<size_t>> final_attrs(k);
  for (size_t c = 0; c < k; ++c) {
    final_attrs[c] =
        core::FinalAttributes(cores[c].signature, accepted[c]);
  }
  auto tightened_result = RunPipelineJob(phases, "interval-tightening", [&] {
    return RunTighteningJob(runner, input, membership, final_attrs);
  });
  if (!tightened_result.ok()) return tightened_result.status();
  const std::vector<std::vector<core::Interval>>& tightened =
      *tightened_result;

  // No commit follows, so the record's point lists move into the result.
  for (size_t c = 0; c < k; ++c) {
    if (reported_points[c].empty()) continue;
    core::ProjectedCluster cluster;
    cluster.points = std::move(reported_points[c]);
    if (member_counts[c] == 0) {
      cluster.attrs = cores[c].signature.attrs();
      cluster.intervals = cores[c].signature.intervals();
    } else {
      cluster.attrs = final_attrs[c];
      cluster.intervals = tightened[c];
    }
    result.clusters.push_back(std::move(cluster));
  }

  result.seconds = watch.ElapsedSeconds();
  return result;
}

}  // namespace p3c::mr
