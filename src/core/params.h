#ifndef P3C_CORE_PARAMS_H_
#define P3C_CORE_PARAMS_H_

#include <cstddef>

#include "src/stats/histogram.h"

namespace p3c::core {

/// How candidate p-signatures are accepted in the cluster-core
/// generation step (§4.1.2).
enum class ProvingMode {
  /// Original P3C: Poisson significance test only (Eq. 1).
  kPoisson,
  /// P3C+: Poisson significance AND Cohen's d_cc effect size >= theta_cc.
  kPoissonAndEffectSize,
};

/// Outlier detection flavor (§4.2.2).
enum class OutlierMode {
  /// Mean/covariance estimated from all cluster members (suffers from
  /// the masking effect).
  kNaive,
  /// Minimum-volume-ball approximation of the MVE robust estimator.
  kMVB,
  /// FAST-MCD robust estimator — the exact-MVE-class option the paper
  /// leaves unevaluated for cost reasons (§7.4.1). Serial pipeline only;
  /// the MapReduce driver rejects it (random-subset concentration steps
  /// do not decompose into record-parallel jobs).
  kMCD,
};

/// All tunables of the P3C family. The defaults are the P3C+ settings
/// used throughout the paper's evaluation (§7.3).
struct P3CParams {
  // ---- Histogram / relevant intervals ----------------------------------
  stats::BinningRule binning = stats::BinningRule::kFreedmanDiaconis;
  /// Significance level of the chi-squared uniformity test (alpha_chi2).
  double alpha_chi2 = 0.001;

  // ---- Cluster-core generation -----------------------------------------
  /// Significance level of the Poisson support test (alpha_poi).
  double alpha_poisson = 0.01;
  ProvingMode proving = ProvingMode::kPoissonAndEffectSize;
  /// Effect-size threshold theta_cc; the paper's calibration yields 0.35.
  double theta_cc = 0.35;
  /// Remove redundant signatures per Eq. 5/6 (§4.2.1).
  bool redundancy_filter = true;
  /// Multi-level candidate collection (§5.3): defer proving until the
  /// collected candidate count exceeds t_c, trading extra candidates for
  /// fewer proving rounds (MR jobs).
  bool multilevel_candidates = false;
  /// The paper's Tc (3e4 on their cluster).
  size_t t_c = 30000;
  /// The paper's Tgen: pair count above which candidate generation is
  /// parallelized (4e7 on their cluster; scaled default here).
  size_t t_gen = 1u << 20;
  /// Safety valve: when one level generates more candidates than this,
  /// the A-priori expansion stops (keeping everything proven so far) and
  /// CoreDetectionStats::truncated is set. Protects against adversarial
  /// inputs where thousands of 1-signatures pass the tests and the
  /// candidate lattice grows combinatorially.
  size_t max_candidates_per_level = 2000000;
  /// Companion valve: maximum k(k-1)/2 over the k base signatures of one
  /// candidate-generation round (the all-pairs join is quadratic in the
  /// level width, so the level cap alone does not bound it). The bucket
  /// join examines far fewer pairs, but the cap still counts all k(k-1)/2,
  /// so a round truncates exactly when it did under the all-pairs join.
  uint64_t max_join_pairs = 500000000ULL;

  // ---- EM ----------------------------------------------------------------
  size_t max_em_iterations = 20;
  /// Relative log-likelihood improvement below which EM stops.
  double em_tolerance = 1e-5;
  /// Ridge added to covariance diagonals when factorization fails.
  double covariance_ridge = 1e-6;

  // ---- Outlier detection -------------------------------------------------
  OutlierMode outlier = OutlierMode::kMVB;
  /// Confidence level of the chi-squared critical Mahalanobis distance
  /// (alpha = 0.001 in §4.2.2).
  double outlier_alpha = 0.001;

  // ---- Attribute inspection ----------------------------------------------
  /// Re-test AI-suggested intervals with the Eq. 1 test (§4.2.3).
  bool ai_proving = true;

  // ---- Pipeline toggles ----------------------------------------------------
  /// Skip EM and outlier detection entirely: the P3C+-Light model (§6).
  bool light = false;
};

/// Parameter preset reproducing the original P3C algorithm of Moise et
/// al.: Sturges binning, Poisson-only proving, no redundancy filter,
/// naive outlier detection, no AI proving.
inline P3CParams OriginalP3CParams() {
  P3CParams p;
  p.binning = stats::BinningRule::kSturges;
  p.proving = ProvingMode::kPoisson;
  p.redundancy_filter = false;
  p.outlier = OutlierMode::kNaive;
  p.ai_proving = false;
  return p;
}

/// Parameter preset for P3C+-Light (§6): P3C+ without EM/outlier steps.
inline P3CParams LightParams() {
  P3CParams p;
  p.light = true;
  return p;
}

}  // namespace p3c::core

#endif  // P3C_CORE_PARAMS_H_
