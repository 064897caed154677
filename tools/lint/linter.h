#ifndef P3C_TOOLS_LINT_LINTER_H_
#define P3C_TOOLS_LINT_LINTER_H_

// p3c_lint: project-native static analysis for the P3C+-MR codebase.
//
// The engine's correctness claims rest on repo-wide conventions that
// neither the compiler nor the sanitizers enforce (DESIGN.md §12):
// every Status/Result is checked, loops that drive user task code poll
// their CancellationToken, unordered containers never iterate straight
// into emitted output, logging goes through logging.h, and entropy
// sources live only in src/common/random.cc. Each convention is a rule
// here, written as token-stream pattern matching (no libclang): fast,
// dependency-free, and precise enough that every firing is either a
// real violation or carries an explanatory `// NOLINT(p3c-...)`.
//
// Rules (IDs are stable; suppressions reference them):
//   p3c-unchecked-status       A call to a function declared to return
//                              Status/Result<T> used as a bare
//                              expression statement — the error is
//                              silently dropped.
//   p3c-unordered-emit         A range-for over a container declared
//                              std::unordered_map/set whose body calls
//                              Emit(...) — iteration order is
//                              implementation-defined, so emitted
//                              output would not be byte-stable.
//   p3c-cancellation-poll      A for/while loop whose body dispatches
//                              into user task code (`->Map(`,
//                              `->Reduce(`) without ever
//                              consulting a CancellationToken — the
//                              watchdog's deadline kill cannot stop it.
//   p3c-no-iostream            std::cout/cerr/clog in src/ — library
//                              code must log through logging.h so
//                              sinks, levels, and captures work.
//   p3c-banned-nondeterminism  rand()/srand()/std::random_device/
//                              the C clock time(nullptr|NULL|0|&t)
//                              outside src/common/random.cc —
//                              all entropy flows through the seeded
//                              project RNG for reproducibility.
//   p3c-raw-file-write         std::ofstream, or fopen with a
//                              write/append mode, outside src/data/io.*
//                              and src/common/atomic_file.* — every
//                              artifact must go through the atomic
//                              temp+fsync+rename writer so a crash
//                              never leaves a truncated file. Tests
//                              are exempt.
//   p3c-naked-mutex            std::mutex/lock_guard/unique_lock/
//                              scoped_lock/condition_variable (and
//                              their timed/recursive/shared variants)
//                              in src/ — locking must go through the
//                              capability-annotated wrappers in
//                              src/common/sync.h so Clang's
//                              -Wthread-safety and the debug
//                              lock-order checker see every
//                              acquisition (DESIGN.md §17). sync.h
//                              itself suppresses per wrapped line.
//   p3c-implicit-seq-cst       An atomic .load()/.store()/.fetch_*()/
//                              .exchange()/compare_exchange_*() in
//                              src/ without an explicit
//                              std::memory_order argument — the
//                              default seq_cst is the most expensive
//                              order, so every order must be a
//                              visible, reviewed decision (the cost
//                              doctrine's hot gates are documented
//                              relaxed loads).

#include <set>
#include <string>
#include <vector>

#include "tools/lint/lexer.h"

namespace p3c::lint {

struct Diagnostic {
  std::string file;
  int line;
  std::string rule;
  std::string message;
};

/// "file:line: error: message [rule]" — clang-style, clickable.
std::string FormatDiagnostic(const Diagnostic& d);

/// Functions declared (anywhere in the scanned set) to return `Status`
/// or `Result<T>`. Built in a first pass over every input file so call
/// sites in one file see declarations from another.
///
/// The registry is keyed three ways so that an unqualified name shared
/// between a Status-returning function and an unrelated void/bool one
/// (`AtomicFileWriter::Commit` vs `TaskContext::Commit`,
/// `AtomicFileWriter::Append` vs `Tracer::Append`) cannot produce
/// false positives: a bare or member call is flagged only when its
/// final name is unambiguous across the whole scanned set, while an
/// explicitly `Qualified::Call(...)` is matched against the qualified
/// declaration names and flagged regardless of bare-name ambiguity.
/// The deliberate trade-off: a *member* call that drops a Status on an
/// ambiguous name is not flagged — attribution would need real type
/// information, and a silent false positive costs more than this
/// false negative.
struct StatusFnRegistry {
  /// Final (unqualified) declaration names: `Commit`, `WriteFrame`.
  std::set<std::string> names;
  /// Qualified declaration names as written: `AtomicFileWriter::Commit`.
  std::set<std::string> qualified;
  /// Final names that also appear as a non-Status/Result declaration
  /// somewhere in the scanned set — ambiguous as bare-call targets.
  std::set<std::string> non_status;
};

/// Scans one file's tokens for `Status Name(` / `Result<...> Name(`
/// declarations, recording `Name` (and `Qualified::Name` when written
/// qualified), plus every other `Type Name(` declaration whose final
/// name could collide with one of them.
void CollectStatusReturning(const LexedFile& file, StatusFnRegistry* registry);

/// All rule IDs, in diagnostic order.
const std::vector<std::string>& AllRules();

/// Runs `enabled` rules over `source`. `path` determines path-scoped
/// behavior (p3c-no-iostream fires only under src/;
/// p3c-banned-nondeterminism exempts src/common/random.cc) and is used
/// verbatim in diagnostics. NOLINT suppressions are already applied.
std::vector<Diagnostic> LintSource(const std::string& path,
                                   const std::string& source,
                                   const StatusFnRegistry& registry,
                                   const std::vector<std::string>& enabled);

}  // namespace p3c::lint

#endif  // P3C_TOOLS_LINT_LINTER_H_
