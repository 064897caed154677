#!/usr/bin/env bash
# Builds and runs the test suite under ASan+UBSan and TSan.
#
#   tools/run_sanitizers.sh            # both sanitizers, full suite
#   tools/run_sanitizers.sh asan       # ASan+UBSan only
#   tools/run_sanitizers.sh tsan       # TSan only (fault/engine tests at
#                                      # minimum; pass a ctest -R regex as
#                                      # the second argument to narrow)
#   tools/run_sanitizers.sh shuffle-smoke
#                                      # shuffle determinism suite (ctest
#                                      # -L shuffle-smoke) under both
#                                      # sanitizers
#   tools/run_sanitizers.sh trace-smoke
#                                      # tracing/metrics suite (ctest -L
#                                      # trace-smoke) under both sanitizers
#                                      # (TSan exercises the tracer's
#                                      # per-thread buffered spans)
#   tools/run_sanitizers.sh straggler-smoke
#                                      # straggler suite (ctest -L
#                                      # straggler-smoke): deadline kills,
#                                      # cancellation and the heartbeat
#                                      # sampler under both sanitizers
#   tools/run_sanitizers.sh kernel-smoke
#                                      # kernel-backend equivalence suite
#                                      # (ctest -L kernel-smoke): every
#                                      # vectorized backend bit-exact vs
#                                      # the scalar reference under both
#                                      # sanitizers
#   tools/run_sanitizers.sh checkpoint-smoke
#                                      # checkpoint/resume suite (ctest -L
#                                      # checkpoint-smoke): kill-and-resume
#                                      # determinism plus every hostile-
#                                      # checkpoint scenario under both
#                                      # sanitizers
#   tools/run_sanitizers.sh resource-smoke
#                                      # resource observability suite (ctest
#                                      # -L resource-smoke): memory-ledger
#                                      # balance, adapter charge/release
#                                      # symmetry, and tracking-on output
#                                      # identity under both sanitizers
#   tools/run_sanitizers.sh worker-smoke
#                                      # multi-process worker backend suite
#                                      # (ctest -L worker-smoke): wire
#                                      # protocol, backend determinism, and
#                                      # real SIGKILL/SIGSTOP crash recovery
#                                      # under ASan only (TSan forbids
#                                      # forking a multithreaded process)
#   tools/run_sanitizers.sh sync-smoke
#                                      # annotated sync layer suite (ctest
#                                      # -L sync-smoke): the lock-order
#                                      # checker's inversion/recursion death
#                                      # tests fire here because Sanitize/
#                                      # Tsan build without NDEBUG (under
#                                      # the tier-1 RelWithDebInfo build
#                                      # they GTEST_SKIP)
#   tools/run_sanitizers.sh file-input-smoke
#                                      # file-input suite (ctest -L
#                                      # file-input-smoke): the container
#                                      # reader and the file-backed Light
#                                      # pipeline on hostile files, under
#                                      # ASan only (the suite forks worker
#                                      # processes, which TSan forbids)
#   tools/run_sanitizers.sh index-smoke
#                                      # interval-index tests (ctest -R
#                                      # IntervalIndex and the id-row
#                                      # tests): the index words on
#                                      # hostile values, its hostile unpack
#                                      # records, the file-backed run
#                                      # that reads no row after the first
#                                      # core batch, the Rssc from id rows,
#                                      # malformed rows, the id counter,
#                                      # the Definition 5 oracle, the
#                                      # interval table, candidate
#                                      # generation and the lattice
#                                      # stress runs, under ASan+UBSan
#   tools/run_sanitizers.sh codecs-smoke
#                                      # the word-wise checksum and every
#                                      # parser it seals (ctest -R
#                                      # 'HashTest|BinaryIo|Wire'):
#                                      # container and frame headers,
#                                      # hostile metric and RESULT bytes,
#                                      # under ASan+UBSan (CI step
#                                      # hash-and-codecs)
#   tools/run_sanitizers.sh em-smoke
#                                      # the EM and covariance paths
#                                      # (the CI step em-and-covariance's
#                                      # -R filter) under ASan+UBSan
#   tools/run_sanitizers.sh degenerate-smoke
#                                      # degenerate-input suite (ctest -L
#                                      # degenerate-smoke): a constant
#                                      # column, fewer rows than bins, far
#                                      # more attributes than rows and
#                                      # NaN/±inf through both pipelines,
#                                      # under ASan+UBSan
#
# The fault-tolerance machinery (task retry, first-error-wins failure
# slots, exception capture in ParallelFor) is concurrency-heavy; TSan on
# fault_injection/threadpool/mapreduce tests is the gate for it.

set -euo pipefail
cd "$(dirname "$0")/.."

MODE="${1:-all}"
FILTER="${2:-}"
LABEL="${LABEL:-}"

run_suite() {
  local name="$1" build_type="$2" build_dir="$3" env_opts="$4"
  echo "==== ${name}: configure + build (${build_dir}) ===="
  cmake -B "${build_dir}" -S . -DCMAKE_BUILD_TYPE="${build_type}" >/dev/null
  cmake --build "${build_dir}" -j "$(nproc)"
  echo "==== ${name}: ctest ===="
  local args=(--output-on-failure --test-dir "${build_dir}")
  if [[ -n "${FILTER}" ]]; then
    args+=(-R "${FILTER}")
  fi
  if [[ -n "${LABEL}" ]]; then
    args+=(-L "${LABEL}")
  fi
  env ${env_opts} ctest "${args[@]}"
}

case "${MODE}" in
  asan)
    run_suite "ASan+UBSan" Sanitize build-asan \
      "ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1"
    ;;
  tsan)
    # Default TSan scope: the concurrent engine paths. Full suite works
    # too but is slow under TSan.
    FILTER="${FILTER:-FaultInjection|ThreadPool|MapReduce|RunnerProperties|StragglerRunnerProperties|P3CMR}"
    run_suite "TSan" Tsan build-tsan "TSAN_OPTIONS=halt_on_error=1"
    ;;
  shuffle-smoke)
    # The partitioned-shuffle determinism suite (byte-identical output
    # across threads/reducers/skewed keys/faults) under both sanitizers:
    # ASan/UBSan catches span-lifetime bugs in the zero-copy reduce path,
    # TSan catches races in the per-partition merge ParallelFor.
    LABEL="shuffle-smoke"
    run_suite "ASan+UBSan shuffle-smoke" Sanitize build-asan \
      "ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1"
    run_suite "TSan shuffle-smoke" Tsan build-tsan "TSAN_OPTIONS=halt_on_error=1"
    ;;
  trace-smoke)
    # The tracing + counters suite: balanced-span/monotone-timestamp
    # validation over real traced runs. TSan is the interesting gate —
    # many worker threads record into the tracer's per-thread buffers
    # while the driver names partition lanes and exports.
    LABEL="trace-smoke"
    run_suite "ASan+UBSan trace-smoke" Sanitize build-asan \
      "ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1"
    run_suite "TSan trace-smoke" Tsan build-tsan "TSAN_OPTIONS=halt_on_error=1"
    ;;
  straggler-smoke)
    # The straggler-control suite: watchdog deadline kills, cooperative
    # cancellation, and the heartbeat sampler. TSan matters most here —
    # the watchdog thread kills attempts and samples heartbeats
    # from under its own mutex while pool workers run, deregister and
    # commit through the CAS slot, and a kill must never tear a
    # committed result.
    LABEL="straggler-smoke"
    run_suite "ASan+UBSan straggler-smoke" Sanitize build-asan \
      "ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1"
    run_suite "TSan straggler-smoke" Tsan build-tsan "TSAN_OPTIONS=halt_on_error=1"
    ;;
  kernel-smoke)
    # The kernel-backend equivalence suite: scalar vs vectorized bit-for-
    # bit on hostile inputs (NaN/±inf coordinates, every tail width,
    # signed-zero softmax ties). ASan polices the vector tails — a lane
    # read past num_words/num_signatures is exactly the class of bug a
    # hand-written SIMD loop invites; UBSan polices the binning casts.
    LABEL="kernel-smoke"
    run_suite "ASan+UBSan kernel-smoke" Sanitize build-asan \
      "ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1"
    run_suite "TSan kernel-smoke" Tsan build-tsan "TSAN_OPTIONS=halt_on_error=1"
    ;;
  checkpoint-smoke)
    # The checkpoint/resume suite: resume-at-every-phase-boundary
    # determinism and the hostile-checkpoint scenarios. ASan/UBSan guards
    # the blob decoders against hostile payloads (truncation, bit flips,
    # version skew must degrade to a clean fresh run, never an OOB read);
    # TSan re-runs the full pipeline phases around each commit point.
    LABEL="checkpoint-smoke"
    run_suite "ASan+UBSan checkpoint-smoke" Sanitize build-asan \
      "ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1"
    run_suite "TSan checkpoint-smoke" Tsan build-tsan "TSAN_OPTIONS=halt_on_error=1"
    ;;
  resource-smoke)
    # The resource observability suite (DESIGN.md §15): every adapter
    # must release exactly the bytes it charged. ASan is the natural
    # reviewer — a ledger/allocation mismatch in an adapter
    # surfaces as a leak or over-free, and detect_leaks=1 polices the
    # tracker's own structures; TSan exercises the relaxed-atomic
    # charge path and ArenaCharge's concurrent Add/Sub clamping.
    LABEL="resource-smoke"
    run_suite "ASan+UBSan resource-smoke" Sanitize build-asan \
      "ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1"
    run_suite "TSan resource-smoke" Tsan build-tsan "TSAN_OPTIONS=halt_on_error=1"
    ;;
  worker-smoke)
    # The multi-process worker backend suite (DESIGN.md §16): checksummed
    # wire framing, cross-backend byte-identity, and crash recovery that
    # SIGKILLs/SIGSTOPs REAL worker processes mid-task. ASan only: the
    # backend forks from the driver's multithreaded pool, which TSan
    # rejects by design ("ThreadSanitizer: fork with running threads is
    # not supported"); ASan + detect_leaks still polices the driver-side
    # slot bookkeeping, and the forked children exit via _exit so the
    # leak checker never runs in a child.
    LABEL="worker-smoke"
    run_suite "ASan+UBSan worker-smoke" Sanitize build-asan \
      "ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1"
    ;;
  sync-smoke)
    # The annotated sync layer suite (DESIGN.md §17). These builds omit
    # NDEBUG, so the debug lock-order checker is compiled in and the
    # seeded inversion/recursion death tests actually fire — this mode
    # is the regression gate proving the checker aborts with a report
    # naming both locks. TSan additionally reviews the CondVar
    # adopt/release interop and the checker's own bookkeeping.
    LABEL="sync-smoke"
    run_suite "ASan+UBSan sync-smoke" Sanitize build-asan \
      "ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1"
    run_suite "TSan sync-smoke" Tsan build-tsan "TSAN_OPTIONS=halt_on_error=1"
    ;;
  file-input-smoke)
    # The file input: BinaryDatasetReader parses a header and payload
    # read from disk, and the Light jobs read rows through it one map
    # range at a time. ASan/UBSan police the positioned reads into the
    # range buffer and the truncated, flipped and out-of-range files.
    LABEL="file-input-smoke"
    run_suite "ASan+UBSan file-input-smoke" Sanitize build-asan \
      "ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1"
    ;;
  index-smoke)
    # The run's interval index: its words are compared bit by bit with
    # Signature::Contains, its unpack step reads hostile records, and
    # mappers read its words at computed offsets instead of rows. The
    # batches reach the job as interval-id rows: an Rssc built from
    # rows must equal one built from Signatures, malformed rows must be
    # rejected before any table lookup, and core generation through the
    # id counter must equal the Signature adapter's, and its pruned
    # batches a brute-force Definition 5. The run's IntervalTable must
    # give NaN and signed-zero bounds stable distinct ids, and candidate
    # generation joins rows of its ids; the stress lattice and the
    # multi-level runs drive the bucket scan and the level-wise closure.
    # ASan/UBSan police those offsets, table lookups and the record
    # checks.
    FILTER="IntervalIndex|RsscRows|SupportJobRows|IdCounterMatchesSignatureAdapter|ProvenSetMatchesDefinition5|IntervalTable|CandidateGen|LatticeStress|MultilevelMatchesPerLevelResults"
    run_suite "ASan+UBSan index-smoke" Sanitize build-asan \
      "ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1"
    ;;
  codecs-smoke)
    # Mirrors CI's hash-and-codecs step: unaligned word loads and
    # partial-word tails of data::Hasher, and hostile container, frame,
    # metric and RESULT bytes.
    FILTER="HashTest|BinaryIo|Wire"
    run_suite "ASan+UBSan codecs-smoke" Sanitize build-asan \
      "ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1"
    ;;
  em-smoke)
    # Mirrors CI's em-and-covariance step: outer products, the packed
    # covariance payload and its unpack checks, the E step, MVB and
    # MCD, and the membership record a moment/covariance pair shares.
    FILTER="CovarianceJob|MomentJob|MembershipRecord|JobUnpack|Gmm|Mvb|Outlier|Robust|Matrix"
    run_suite "ASan+UBSan em-smoke" Sanitize build-asan \
      "ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1"
    ;;
  degenerate-smoke)
    # Degenerate data through core::P3CPipeline and mr::P3CMR: empty
    # histograms, zero-width ranges and singular covariances are where
    # an unchecked index or division would show.
    LABEL="degenerate-smoke"
    run_suite "ASan+UBSan degenerate-smoke" Sanitize build-asan \
      "ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1"
    ;;
  all)
    "$0" asan
    "$0" tsan
    "$0" codecs-smoke
    "$0" em-smoke
    ;;
  *)
    echo "usage: $0 [asan|tsan|all|shuffle-smoke|trace-smoke|straggler-smoke|kernel-smoke|checkpoint-smoke|resource-smoke|worker-smoke|sync-smoke|file-input-smoke|index-smoke|codecs-smoke|em-smoke|degenerate-smoke]" \
         "[ctest -R filter]" >&2
    exit 2
    ;;
esac
