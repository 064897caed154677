#include "src/mr/p3c_mr.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <optional>
#include <thread>

#include "src/common/logging.h"
#include "src/common/resource.h"
#include "src/common/stopwatch.h"
#include "src/common/string_util.h"
#include "src/common/trace.h"
#include "src/core/attribute_inspection.h"
#include "src/core/gmm.h"
#include "src/core/relevant_intervals.h"
#include "src/core/rssc.h"
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

/// Runs one MR job under the pipeline's job-retry policy: retryable
/// failures re-run the whole job (failed jobs leave no side effects, so
/// this is safe), fatal ones and exhausted policies surface a Status
/// naming the pipeline phase and the attempt count on top of the
/// engine's job/task detail. A phase that has already consumed
/// JobRetryPolicy::phase_budget_seconds of wall-clock time stops
/// retrying and fails with a phase-tagged kDeadlineExceeded — a
/// pathological phase (every attempt deadline-killed, every job re-run)
/// degrades into a bounded, explained failure instead of wedging the
/// caller.
/// RAII memory-phase window on the global MemoryTracker. Repeated
/// windows with the same name (job retries, the EM loop) max-merge into
/// one mem.phase.<name>.peak_bytes gauge; inactive (tracker off) it is
/// two relaxed loads.
class PhaseMemWindow {
 public:
  explicit PhaseMemWindow(const char* phase) {
    if (resource::MemoryTracker::Global().enabled()) {
      active_ = true;
      resource::MemoryTracker::Global().BeginPhase(phase);
    }
  }
  ~PhaseMemWindow() {
    if (active_) resource::MemoryTracker::Global().EndPhase();
  }
  PhaseMemWindow(const PhaseMemWindow&) = delete;
  PhaseMemWindow& operator=(const PhaseMemWindow&) = delete;

 private:
  bool active_ = false;
};

template <typename Fn>
auto RunPipelineJob(const JobRetryPolicy& policy, const char* phase,
                    Fn&& fn) -> decltype(fn()) {
  // Phase span: the middle level of the trace hierarchy (pipeline →
  // phase → job → task attempt). One span per job run, so a job-level
  // retry shows as a second phase slice with the failure instant
  // between them.
  TraceSpan phase_span(std::string("phase:") + phase);
  PhaseMemWindow mem_window(phase);
  Stopwatch budget_watch;
  const size_t max_attempts = std::max<size_t>(1, policy.max_job_attempts);
  Status last;
  size_t attempts = 0;
  for (; attempts < max_attempts; ++attempts) {
    if (attempts > 0 && policy.backoff_seconds > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(policy.backoff_seconds));
    }
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
        budget_watch.ElapsedSeconds() >= policy.phase_budget_seconds) {
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

/// Hard membership by cluster-core containment: a point contributes
/// weight 1 to every core whose support set contains it (EM init round 1,
/// §5.4).
class CoreMembership : public MembershipFn {
 public:
  CoreMembership(const data::Dataset& dataset,
                 const std::vector<core::Signature>& signatures)
      : dataset_(dataset), rssc_(signatures), k_(signatures.size()) {}

  double Contributions(
      data::PointId point, const linalg::Vector& x,
      std::vector<std::pair<uint32_t, double>>& out) const override {
    (void)x;
    thread_local std::vector<uint64_t> bits;
    thread_local std::vector<uint32_t> ids;
    rssc_.Match(dataset_.Row(point), bits);
    ids.clear();
    core::Rssc::BitsToIds(bits, k_, ids);
    for (uint32_t id : ids) out.emplace_back(id, 1.0);
    return 0.0;
  }

  const core::Rssc& rssc() const { return rssc_; }

 private:
  const data::Dataset& dataset_;
  core::Rssc rssc_;
  size_t k_;
};

/// EM init round 2 (§5.4): support-set members as before, and points
/// outside every support set attach to the Mahalanobis-nearest core.
class OrphanAssigningMembership : public MembershipFn {
 public:
  OrphanAssigningMembership(const CoreMembership& cores,
                            const core::GmmEvaluator& evaluator)
      : cores_(cores), evaluator_(evaluator) {}

  double Contributions(
      data::PointId point, const linalg::Vector& x,
      std::vector<std::pair<uint32_t, double>>& out) const override {
    const size_t before = out.size();
    cores_.Contributions(point, x, out);
    if (out.size() != before) return 0.0;
    size_t best = 0;
    double best_dist = std::numeric_limits<double>::infinity();
    for (size_t c = 0; c < evaluator_.num_components(); ++c) {
      const double dist = evaluator_.MahalanobisSquared(c, x);
      if (dist < best_dist) {
        best_dist = dist;
        best = c;
      }
    }
    out.emplace_back(static_cast<uint32_t>(best), 1.0);
    return 0.0;
  }

 private:
  const CoreMembership& cores_;
  const core::GmmEvaluator& evaluator_;
};

/// Soft EM membership: posterior responsibilities (E step). The k
/// densities are evaluated once per point; the log-likelihood comes from
/// the same values.
class SoftMembership : public MembershipFn {
 public:
  explicit SoftMembership(const core::GmmEvaluator& evaluator)
      : evaluator_(evaluator) {}

  double Contributions(
      data::PointId point, const linalg::Vector& x,
      std::vector<std::pair<uint32_t, double>>& out) const override {
    (void)point;
    thread_local std::vector<double> r;
    double log_likelihood = 0.0;
    evaluator_.Responsibilities(x, r, &log_likelihood);
    for (size_t c = 0; c < r.size(); ++c) {
      if (r[c] > 1e-12) out.emplace_back(static_cast<uint32_t>(c), r[c]);
    }
    return log_likelihood;
  }

 private:
  const core::GmmEvaluator& evaluator_;
};

/// MVB in-ball membership: the point's argmax-posterior cluster, kept
/// only when the point lies inside that cluster's ball.
class BallMembership : public MembershipFn {
 public:
  BallMembership(const core::GmmEvaluator& evaluator,
                 const std::vector<MvbBall>& balls)
      : evaluator_(evaluator), balls_(balls) {}

  double Contributions(
      data::PointId point, const linalg::Vector& x,
      std::vector<std::pair<uint32_t, double>>& out) const override {
    (void)point;
    const size_t c = evaluator_.HardAssign(x);
    const MvbBall& ball = balls_[c];
    if (ball.center.empty()) return 0.0;
    if (std::sqrt(linalg::SquaredDistance(x, ball.center)) <= ball.radius) {
      out.emplace_back(static_cast<uint32_t>(c), 1.0);
    }
    return 0.0;
  }

 private:
  const core::GmmEvaluator& evaluator_;
  const std::vector<MvbBall>& balls_;
};

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

/// Decoded driver state of every phase a valid checkpoint completed.
/// All payloads are decoded up front: a single undecodable phase
/// discards the whole checkpoint (DiscardAll), so resume never mixes
/// restored and stale state.
struct ResumeState {
  std::optional<HistogramPhaseState> histogram;
  std::optional<CoresPhaseState> cores;
  std::optional<SupportSetsPhaseState> support_sets;  // light pipeline
  std::optional<GmmPhaseState> gmm;                   // full pipeline
  std::optional<MembershipPhaseState> od;             // full pipeline
};

/// Phase names in pipeline order. The parameter hash pins `light`, so a
/// validated manifest always belongs to the matching variant; the name
/// check below is defense in depth.
std::vector<std::string> ExpectedPhaseNames(bool light) {
  if (light) return {"histogram", "cluster-cores", "support-sets"};
  return {"histogram", "cluster-cores", "em-refinement",
          "outlier-detection"};
}

ResumeState DecodeResumeState(CheckpointManager& ckpt, bool light,
                              size_t num_points, size_t num_dims) {
  ResumeState state;
  const std::vector<std::string> expected = ExpectedPhaseNames(light);
  if (ckpt.num_completed() > expected.size()) {
    ckpt.DiscardAll(StringPrintf(
        "manifest lists %zu phases but the pipeline has %zu",
        ckpt.num_completed(), expected.size()));
    return {};
  }
  for (size_t i = 0; i < ckpt.num_completed(); ++i) {
    const std::string& name = ckpt.PhaseName(i);
    if (name != expected[i]) {
      ckpt.DiscardAll(StringPrintf(
          "phase %zu is '%s' where '%s' was expected", i, name.c_str(),
          expected[i].c_str()));
      return {};
    }
    const std::string& payload = ckpt.PhasePayload(i);
    Status decode_status;
    if (name == "histogram") {
      auto decoded = DecodeHistogramState(payload);
      if (decoded.ok()) {
        state.histogram = std::move(decoded).value();
      } else {
        decode_status = decoded.status();
      }
    } else if (name == "cluster-cores") {
      auto decoded = DecodeCoresState(payload);
      if (decoded.ok()) {
        state.cores = std::move(decoded).value();
      } else {
        decode_status = decoded.status();
      }
    } else if (name == "support-sets") {
      auto decoded = DecodeSupportSetsState(payload);
      if (decoded.ok()) {
        state.support_sets = std::move(decoded).value();
      } else {
        decode_status = decoded.status();
      }
    } else if (name == "em-refinement") {
      auto decoded = DecodeGmmState(payload);
      if (decoded.ok()) {
        state.gmm = std::move(decoded).value();
      } else {
        decode_status = decoded.status();
      }
    } else {  // "outlier-detection"
      auto decoded = DecodeMembershipState(payload);
      if (decoded.ok()) {
        state.od = std::move(decoded).value();
      } else {
        decode_status = decoded.status();
      }
    }
    if (!decode_status.ok()) {
      ckpt.DiscardAll(StringPrintf("phase '%s' payload undecodable: %s",
                                   name.c_str(),
                                   decode_status.ToString().c_str()));
      return {};
    }
  }
  // Cross-phase consistency: every restored structure must agree with
  // the dataset shape and with the other phases. The checksums already
  // reject accidental corruption; these checks reject a checkpoint that
  // is internally coherent but wrong for this run.
  std::string inconsistency;
  if (state.histogram && state.histogram->histograms.size() != num_dims) {
    inconsistency = "histogram count disagrees with the dataset dims";
  }
  const size_t k = state.cores ? state.cores->cores.size() : 0;
  if (inconsistency.empty() && state.support_sets &&
      (state.support_sets->unique_assignment.size() != num_points ||
       state.support_sets->support_sets.size() != k)) {
    inconsistency = "support-sets state disagrees with dataset/cores";
  }
  if (inconsistency.empty() && state.gmm && state.cores &&
      (state.gmm->model.components.size() != k ||
       state.gmm->model.arel !=
           core::RelevantAttributeUnion(state.cores->cores))) {
    inconsistency = "EM model disagrees with the restored cores";
  }
  if (inconsistency.empty() && state.od &&
      state.od->membership.size() != num_points) {
    inconsistency = "membership size disagrees with the dataset";
  }
  if (!inconsistency.empty()) {
    ckpt.DiscardAll(inconsistency);
    return {};
  }
  return state;
}

}  // namespace

P3CMR::P3CMR(P3CMROptions options) : options_(std::move(options)) {
  options_.runner.metrics = &metrics_;
  options_.runner.counters = &counters_;
  runner_ = std::make_unique<LocalRunner>(options_.runner);
}

Result<core::ClusteringResult> P3CMR::Cluster(const data::Dataset& dataset) {
  Stopwatch watch;
  TraceSpan pipeline_span(
      options_.params.light ? "pipeline:p3c+-mr-light" : "pipeline:p3c+-mr",
      Tracer::Global().enabled()
          ? StringPrintf("{\"points\": %zu, \"dims\": %zu}",
                         dataset.num_points(), dataset.num_dims())
          : std::string());
  metrics_.Clear();
  counters_.Clear();
  driver_metrics_.Clear();
  // Memory run boundary: clear peaks/phase windows from any previous
  // run, and export the run's gauges into driver_metrics_ on every exit
  // path (success and failure alike — a failed run's peaks still matter).
  if (resource::MemoryTracker::Global().enabled()) {
    resource::MemoryTracker::Global().ResetRun();
  }
  struct GaugeExportOnExit {
    MetricBag* bag;
    LocalRunner* runner;
    ~GaugeExportOnExit() {
      if (resource::MemoryTracker::Global().enabled()) {
        resource::MemoryTracker::Global().ExportGauges(bag);
      }
      // Worker-backend observability (DESIGN.md §16): spawn/respawn/
      // kill counters and the peak worker RSS gauge land next to the
      // checkpoint and memory bookkeeping — driver-side only, never in
      // the deterministic job counters. Empty on the in-process
      // backend.
      bag->MergeFrom(runner->SnapshotWorkerMetrics());
    }
  } gauge_export{&driver_metrics_, runner_.get()};
  if (dataset.num_points() == 0 || dataset.num_dims() == 0) {
    return Status::InvalidArgument("dataset is empty");
  }
  if (!dataset.IsNormalized()) {
    return Status::InvalidArgument(
        "dataset must be normalized to [0, 1]; call NormalizeMinMax first");
  }
  const core::P3CParams& params = options_.params;
  if (!params.light && params.outlier == core::OutlierMode::kMCD) {
    return Status::NotImplemented(
        "OutlierMode::kMCD is serial-only (its concentration steps are not "
        "record-parallel); use core::P3CPipeline, or kMVB here");
  }
  LocalRunner& runner = *runner_;
  const JobRetryPolicy& retry = options_.retry;
  core::ClusteringResult result;

  // ---- 0. Checkpoint scan (DESIGN.md §13) ---------------------------------
  CheckpointManager::Options ckpt_options;
  ckpt_options.dir = options_.checkpoint_dir;
  if (!options_.checkpoint_dir.empty()) {
    ckpt_options.dataset_fingerprint = DatasetFingerprint(dataset);
    ckpt_options.params_hash = ParamsHash(params);
  }
  ckpt_options.driver_metrics = &driver_metrics_;
  CheckpointManager ckpt(ckpt_options);
  ckpt.Initialize();
  ResumeState resume = DecodeResumeState(ckpt, params.light,
                                         dataset.num_points(),
                                         dataset.num_dims());
  const size_t completed = ckpt.num_completed();
  if (completed > 0) {
    // Replay the framework-counter snapshot persisted with the last
    // completed phase, so the skipped phases' counters are present and
    // the final counter JSON matches an uninterrupted run's byte for
    // byte. The resume bookkeeping itself goes to driver_metrics_ only.
    const std::string& last = ckpt.PhaseName(completed - 1);
    const MetricBag* snapshot = nullptr;
    if (last == "histogram") snapshot = &resume.histogram->counters;
    if (last == "cluster-cores") snapshot = &resume.cores->counters;
    if (last == "support-sets") snapshot = &resume.support_sets->counters;
    if (last == "em-refinement") snapshot = &resume.gmm->counters;
    if (last == "outlier-detection") snapshot = &resume.od->counters;
    if (snapshot != nullptr) counters_.MergeBag(*snapshot);
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

  // Commits one finished phase and then gives the fault injector its
  // crash point: the checkpoint is durable when the hook fires, so an
  // injected failure here models a driver killed at the phase boundary.
  auto commit_phase = [&](const char* name,
                          const std::string& payload) -> Status {
    P3C_RETURN_NOT_OK(ckpt.CommitPhase(name, payload));
    if (options_.runner.fault_injector != nullptr) {
      const std::string phase_name(name);
      P3C_RETURN_NOT_OK(options_.runner.fault_injector->OnPhaseCommit(
          PhaseCommit{phase_name, ckpt.num_completed() - 1}));
    }
    return Status::OK();
  };
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
  P3C_RETURN_NOT_OK(check_cancel("<none>"));

  // ---- 1. Histogram job (§5.1) -------------------------------------------
  std::vector<stats::Histogram> histograms;
  if (completed >= 1) {
    histograms = std::move(resume.histogram->histograms);
  } else {
    auto histograms_result = RunPipelineJob(retry, "histogram", [&] {
      return RunHistogramJob(runner, dataset, params.binning);
    });
    if (!histograms_result.ok()) return histograms_result.status();
    histograms = std::move(histograms_result).value();
    if (ckpt.enabled()) {
      HistogramPhaseState state;
      state.histograms = histograms;
      state.counters = counters_.Snapshot();
      P3C_RETURN_NOT_OK(
          commit_phase("histogram", EncodeHistogramState(state)));
    }
    P3C_RETURN_NOT_OK(check_cancel("histogram"));
  }

  // ---- 2. Relevant intervals — driver-side, "computationally cheap" (§5.2)
  const std::vector<core::Interval> relevant =
      core::FindAllRelevantIntervals(histograms, params.alpha_chi2);

  // ---- 3. Cluster-core generation with support jobs (§5.3) ----------------
  // core::SupportCountFn cannot carry a Status, so the counter parks the
  // first unrecoverable job failure here and returns zero supports; the
  // driver checks after each counter-driven stage. Zero supports prove
  // nothing, so no wrong cores are derived from a failed job. The
  // cancellation poll makes mid-generation SIGTERM stop at the next
  // batch instead of grinding through the remaining proving rounds.
  Status support_job_error;
  core::SupportCountFn counter =
      [&](const std::vector<core::Signature>& sigs) {
        if (options_.cancel.cancelled()) {
          if (support_job_error.ok()) {
            support_job_error =
                Status::Cancelled("pipeline cancelled during support counting");
          }
          return std::vector<uint64_t>(sigs.size(), 0);
        }
        auto supports = RunPipelineJob(retry, "support-count", [&] {
          return RunSupportJob(runner, dataset, sigs);
        });
        if (!supports.ok()) {
          if (support_job_error.ok()) support_job_error = supports.status();
          return std::vector<uint64_t>(sigs.size(), 0);
        }
        return std::move(supports).value();
      };
  // The whole candidate-generation / support-counting / core-detection
  // block checkpoints as one "cluster-cores" phase: its driver state
  // (the proven cores and their stats) is small, while mid-generation
  // state (the A-priori lattice frontier) is not worth persisting.
  core::CoreDetectionResult detection;
  if (completed >= 2) {
    detection.stats = resume.cores->stats;
    detection.cores = std::move(resume.cores->cores);
  } else {
    detection = core::GenerateClusterCores(
        relevant, dataset.num_points(), params, counter, &runner.pool());
    if (!support_job_error.ok()) return support_job_error;
    if (ckpt.enabled()) {
      CoresPhaseState state;
      state.stats = detection.stats;
      state.cores = detection.cores;
      state.counters = counters_.Snapshot();
      P3C_RETURN_NOT_OK(
          commit_phase("cluster-cores", EncodeCoresState(state)));
    }
    P3C_RETURN_NOT_OK(check_cancel("cluster-cores"));
  }
  result.core_stats = detection.stats;
  result.cores = detection.cores;
  if (detection.cores.empty()) {
    result.seconds = watch.ElapsedSeconds();
    return result;
  }
  result.arel = core::RelevantAttributeUnion(detection.cores);

  const size_t k = detection.cores.size();
  std::vector<core::Signature> signatures;
  signatures.reserve(k);
  for (const auto& core : detection.cores) signatures.push_back(core.signature);

  std::vector<int32_t> membership;  // per point: cluster or negative
  std::vector<std::vector<data::PointId>> reported_points(k);

  if (params.light) {
    // ---- Light path (§6) --------------------------------------------------
    if (completed >= 3) {
      reported_points = std::move(resume.support_sets->support_sets);
      membership = std::move(resume.support_sets->unique_assignment);
    } else {
      auto sets = RunPipelineJob(retry, "support-sets", [&] {
        return RunSupportSetJob(runner, dataset, signatures);
      });
      if (!sets.ok()) return sets.status();
      reported_points = std::move(sets->support_sets);
      membership = std::move(sets->unique_assignment);
      if (ckpt.enabled()) {
        SupportSetsPhaseState state;
        state.support_sets = reported_points;
        state.unique_assignment = membership;
        state.counters = counters_.Snapshot();
        P3C_RETURN_NOT_OK(
            commit_phase("support-sets", EncodeSupportSetsState(state)));
      }
      P3C_RETURN_NOT_OK(check_cancel("support-sets"));
    }
    // m': multi-core points carry -2 and are excluded from histograms and
    // tightening by the jobs' `c < 0` guard.
  } else if (completed >= 4) {
    // ---- Full path, both refinement phases checkpointed -------------------
    // The model itself is no longer needed: attribute inspection and
    // tightening run on the membership alone.
    membership = std::move(resume.od->membership);
    for (size_t i = 0; i < membership.size(); ++i) {
      if (membership[i] >= 0) {
        reported_points[static_cast<size_t>(membership[i])].push_back(
            static_cast<data::PointId>(i));
      }
    }
  } else {
    core::GmmModel model;
    const size_t dim = result.arel.size();
    if (completed >= 3) {
      // Resume: 'em-refinement' persisted the converged model; outlier
      // detection below runs live.
      model = std::move(resume.gmm->model);
    } else {
      // One EM round of two jobs (§5.4): the moment job under the
      // `weights` membership, its interim means for the covariance job,
      // then the model update. A component with mass takes the interim
      // means even when UpdateModel keeps its previous covariance. The
      // EM loop reads the returned log-likelihood.
      auto em_round = [&](const MembershipFn& weights, const char* phase,
                          const char* means_job,
                          const char* covs_job) -> Result<MomentSums> {
        auto moments = RunPipelineJob(retry, phase, [&] {
          return RunMomentJob(runner, dataset, model, weights, means_job);
        });
        if (!moments.ok()) return moments.status();
        std::vector<linalg::Vector> means = Means(model);
        for (size_t c = 0; c < k; ++c) {
          if (moments->w[c] < 1e-9) continue;
          for (size_t j = 0; j < dim; ++j) {
            means[c][j] = moments->lsum[c][j] / moments->w[c];
          }
        }
        auto covs = RunPipelineJob(retry, phase, [&] {
          return RunCovarianceJob(runner, dataset, model, weights, means,
                                  covs_job);
        });
        if (!covs.ok()) return covs.status();
        UpdateModel(*moments, *covs, model);
        for (size_t c = 0; c < k; ++c) {
          if (moments->w[c] >= 1e-9) {
            model.components[c].mean = std::move(means[c]);
          }
        }
        return moments;
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

      if (ckpt.enabled()) {
        GmmPhaseState state;
        state.model = model;
        state.counters = counters_.Snapshot();
        P3C_RETURN_NOT_OK(
            commit_phase("em-refinement", EncodeGmmState(state)));
      }
      P3C_RETURN_NOT_OK(check_cancel("em-refinement"));
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
      auto balls_result = RunPipelineJob(retry, "mvb", [&] {
        return RunMvbBallJob(runner, dataset, model, *evaluator);
      });
      if (!balls_result.ok()) return balls_result.status();
      const std::vector<MvbBall>& balls = *balls_result;
      BallMembership ball_membership(*evaluator, balls);
      auto mb_result = RunPipelineJob(retry, "mvb", [&] {
        return RunMomentJob(runner, dataset, model, ball_membership,
                            "mvb-means");
      });
      if (!mb_result.ok()) return mb_result.status();
      MomentSums mb = std::move(mb_result).value();
      centers.assign(k, linalg::Vector(dim, 0.5));
      for (size_t c = 0; c < k; ++c) {
        if (mb.w[c] < 1e-9) {
          centers[c] = balls[c].center.empty() ? model.components[c].mean
                                               : balls[c].center;
          continue;
        }
        for (size_t j = 0; j < dim; ++j) {
          centers[c][j] = mb.lsum[c][j] / mb.w[c];
        }
      }
      auto cov_sums = RunPipelineJob(retry, "mvb", [&] {
        return RunCovarianceJob(runner, dataset, model, ball_membership,
                                centers, "mvb-covs");
      });
      if (!cov_sums.ok()) return cov_sums.status();
      covs.assign(k, linalg::Matrix::Identity(dim).Scale(1e-2));
      for (size_t c = 0; c < k; ++c) {
        const double denom = mb.w[c] * mb.w[c] - mb.w2[c];
        if (mb.w[c] >= 1e-9 && denom > 1e-12) {
          covs[c] = (*cov_sums)[c].Scale(mb.w[c] / denom);
        }
        core::ApplyMvbConsistencyCorrection(covs[c], dim);
      }
    }
    Result<std::vector<linalg::Cholesky>> factors =
        FactorizeAll(covs, params.covariance_ridge);
    if (!factors.ok()) return factors.status();
    auto od = RunPipelineJob(retry, "outlier-detection", [&] {
      return RunOdJob(runner, dataset, model, *evaluator, centers, *factors,
                      critical);
    });
    if (!od.ok()) return od.status();
    membership = std::move(od).value();
    if (ckpt.enabled()) {
      MembershipPhaseState state;
      state.membership = membership;
      state.counters = counters_.Snapshot();
      P3C_RETURN_NOT_OK(
          commit_phase("outlier-detection", EncodeMembershipState(state)));
    }
    P3C_RETURN_NOT_OK(check_cancel("outlier-detection"));
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
      RunPipelineJob(retry, "cluster-histograms", [&] {
        return RunClusterHistogramJob(runner, dataset, membership, k,
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
        detection.cores[c].signature, member_histograms[c], params.alpha_chi2);
  }
  const std::vector<std::vector<core::Interval>> accepted =
      core::ProveSuggestedIntervals(detection.cores, suggestions, params,
                                    counter);
  if (!support_job_error.ok()) return support_job_error;

  // ---- Interval tightening job (§5.7) --------------------------------------
  std::vector<std::vector<size_t>> final_attrs(k);
  for (size_t c = 0; c < k; ++c) {
    final_attrs[c] =
        core::FinalAttributes(detection.cores[c].signature, accepted[c]);
  }
  auto tightened_result = RunPipelineJob(retry, "interval-tightening", [&] {
    return RunTighteningJob(runner, dataset, membership, final_attrs);
  });
  if (!tightened_result.ok()) return tightened_result.status();
  const std::vector<std::vector<core::Interval>>& tightened =
      *tightened_result;

  for (size_t c = 0; c < k; ++c) {
    if (reported_points[c].empty()) continue;
    core::ProjectedCluster cluster;
    cluster.points = reported_points[c];
    if (member_counts[c] == 0) {
      cluster.attrs = detection.cores[c].signature.attrs();
      cluster.intervals = detection.cores[c].signature.intervals();
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
