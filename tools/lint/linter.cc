#include "tools/lint/linter.h"

#include <cstddef>
#include <set>
#include <string>

namespace p3c::lint {
namespace {

using Tokens = std::vector<Token>;

constexpr size_t kNpos = static_cast<size_t>(-1);

bool IsIdent(const Tokens& t, size_t i, const char* text = nullptr) {
  return i < t.size() && t[i].kind == TokKind::kIdentifier &&
         (text == nullptr || t[i].text == text);
}

bool IsPunct(const Tokens& t, size_t i, const char* text) {
  return i < t.size() && t[i].kind == TokKind::kPunct && t[i].text == text;
}

/// Index just past the matching ')' for the '(' at `open`, or kNpos.
size_t MatchParen(const Tokens& t, size_t open) {
  int depth = 0;
  for (size_t i = open; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kPunct) continue;
    if (t[i].text == "(") ++depth;
    if (t[i].text == ")" && --depth == 0) return i + 1;
  }
  return kNpos;
}

/// Index just past the template closer for the '<' at `open`, or kNpos.
/// `>>` closes two levels (nested template args); gives up at `;`/`{`
/// so a stray comparison never swallows the file.
size_t MatchAngle(const Tokens& t, size_t open) {
  int depth = 0;
  for (size_t i = open; i < t.size(); ++i) {
    if (t[i].kind != TokKind::kPunct) continue;
    const std::string& p = t[i].text;
    if (p == "<") ++depth;
    if (p == "<<") depth += 2;
    if (p == ">") --depth;
    if (p == ">>") depth -= 2;
    if (p == ";" || p == "{") return kNpos;
    if (depth <= 0 && (p == ">" || p == ">>")) return i + 1;
  }
  return kNpos;
}

/// Token range [begin, end) of the statement starting at `i`: a `{...}`
/// block, or a single statement through its terminating `;` at depth 0.
/// Used to delimit loop bodies.
size_t StatementEnd(const Tokens& t, size_t i) {
  if (i >= t.size()) return t.size();
  int depth = 0;
  for (size_t j = i; j < t.size(); ++j) {
    if (t[j].kind != TokKind::kPunct) continue;
    const std::string& p = t[j].text;
    if (p == "(" || p == "[" || p == "{") ++depth;
    if (p == ")" || p == "]") --depth;
    if (p == "}") {
      --depth;
      if (depth == 0 && IsPunct(t, i, "{")) return j + 1;
    }
    if (p == ";" && depth == 0 && !IsPunct(t, i, "{")) return j + 1;
  }
  return t.size();
}

bool PathStartsWith(const std::string& path, const std::string& prefix) {
  return path.rfind(prefix, 0) == 0 ||
         path.find("/" + prefix) != std::string::npos;
}

bool PathEndsWith(const std::string& path, const std::string& suffix) {
  return path.size() >= suffix.size() &&
         path.compare(path.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// C++ keywords (and contextually reserved names) that can open a
// statement but never name a declared variable or function.
bool IsStatementKeyword(const std::string& s) {
  static const std::set<std::string> kKeywords = {
      "if",       "else",     "for",     "while",    "do",       "switch",
      "case",     "default",  "break",   "continue", "return",   "goto",
      "using",    "typedef",  "namespace", "class",  "struct",   "union",
      "enum",     "template", "public",  "private",  "protected", "new",
      "delete",   "throw",    "try",     "catch",    "static",   "const",
      "constexpr", "inline",  "extern",  "virtual",  "explicit", "friend",
      "operator", "sizeof",   "co_return", "co_await", "co_yield",
  };
  return kKeywords.count(s) > 0;
}

// ---------------------------------------------------------------------------
// p3c-unordered-emit
// ---------------------------------------------------------------------------

bool IsUnorderedName(const std::string& s) {
  return s == "unordered_map" || s == "unordered_set" ||
         s == "unordered_multimap" || s == "unordered_multiset";
}

void RuleUnorderedEmit(const std::string& path, const LexedFile& file,
                       std::vector<Diagnostic>* out) {
  const Tokens& t = file.tokens;

  // Pass 1a: type aliases of unordered containers
  // (`using SupportTable = std::unordered_map<...>;`).
  std::set<std::string> aliases;
  for (size_t i = 0; i + 2 < t.size(); ++i) {
    if (!IsIdent(t, i, "using") || !IsIdent(t, i + 1) ||
        !IsPunct(t, i + 2, "=")) {
      continue;
    }
    for (size_t j = i + 3; j < t.size() && !IsPunct(t, j, ";"); ++j) {
      if (IsIdent(t, j) && IsUnorderedName(t[j].text)) {
        aliases.insert(t[i + 1].text);
        break;
      }
    }
  }

  // Pass 1b: names declared with an unordered container type, directly
  // or through an alias. Includes members, locals, parameters, and
  // functions returning one (a range-for over `MakeTable()` is just as
  // order-unstable).
  std::set<std::string> names;
  auto record_declared_name = [&](size_t type_end) {
    size_t j = type_end;
    while (IsPunct(t, j, "&") || IsPunct(t, j, "*") || IsIdent(t, j, "const")) {
      ++j;
    }
    if (IsIdent(t, j) && !IsStatementKeyword(t[j].text)) {
      names.insert(t[j].text);
    }
  };
  for (size_t i = 0; i < t.size(); ++i) {
    if (!IsIdent(t, i)) continue;
    if (IsUnorderedName(t[i].text) && IsPunct(t, i + 1, "<")) {
      const size_t after = MatchAngle(t, i + 1);
      if (after != kNpos) record_declared_name(after);
    } else if (aliases.count(t[i].text) > 0) {
      record_declared_name(i + 1);
    }
  }

  // Pass 2: range-for loops whose sequence expression names one of the
  // collected identifiers and whose body emits.
  for (size_t i = 0; i < t.size(); ++i) {
    if (!IsIdent(t, i, "for") || !IsPunct(t, i + 1, "(")) continue;
    const size_t after = MatchParen(t, i + 1);
    if (after == kNpos) continue;
    const size_t close = after - 1;
    // Find the range-for ':' at paren depth 1; a ';' first means a
    // classic three-clause for, which this rule does not model.
    size_t colon = kNpos;
    int depth = 0;
    for (size_t j = i + 1; j < close; ++j) {
      if (t[j].kind != TokKind::kPunct) continue;
      const std::string& p = t[j].text;
      if (p == "(" || p == "[" || p == "{") ++depth;
      if (p == ")" || p == "]" || p == "}") --depth;
      if (depth == 1 && p == ";") break;
      if (depth == 1 && p == ":") {
        colon = j;
        break;
      }
    }
    if (colon == kNpos) continue;
    // The iterated name: last identifier before any call parens in the
    // sequence expression (`counts`, `obj.table_`, `MakeTable()`).
    std::string seq_name;
    for (size_t j = colon + 1; j < close; ++j) {
      if (IsPunct(t, j, "(")) break;
      if (IsIdent(t, j)) seq_name = t[j].text;
    }
    if (seq_name.empty() || names.count(seq_name) == 0) continue;
    const size_t body_end = StatementEnd(t, after);
    for (size_t j = after; j < body_end; ++j) {
      if (IsIdent(t, j, "Emit") && IsPunct(t, j + 1, "(")) {
        out->push_back(
            {path, t[i].line, "p3c-unordered-emit",
             "range-for over unordered container '" + seq_name +
                 "' feeds Emit(); iteration order is not deterministic — "
                 "copy into a sorted container first"});
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// p3c-cancellation-poll
// ---------------------------------------------------------------------------

void RuleCancellationPoll(const std::string& path, const LexedFile& file,
                          std::vector<Diagnostic>* out) {
  const Tokens& t = file.tokens;
  for (size_t i = 0; i < t.size(); ++i) {
    const bool is_for = IsIdent(t, i, "for");
    const bool is_while = IsIdent(t, i, "while");
    if ((!is_for && !is_while) || !IsPunct(t, i + 1, "(")) continue;
    // Skip the `while` of a do-while: its body already ran.
    if (is_while && i > 0 && IsPunct(t, i - 1, "}")) continue;
    const size_t after = MatchParen(t, i + 1);
    if (after == kNpos) continue;
    const size_t body_end = StatementEnd(t, after);
    bool dispatches = false;
    bool polls = false;
    for (size_t j = after; j + 2 < body_end; ++j) {
      if ((IsPunct(t, j, ".") || IsPunct(t, j, "->")) && IsIdent(t, j + 1) &&
          IsPunct(t, j + 2, "(")) {
        const std::string& m = t[j + 1].text;
        if (m == "Map" || m == "Reduce") dispatches = true;
      }
    }
    for (size_t j = after; j < body_end; ++j) {
      if (IsIdent(t, j, "ThrowIfCancelled") || IsIdent(t, j, "cancelled")) {
        polls = true;
        break;
      }
    }
    if (dispatches && !polls) {
      out->push_back(
          {path, t[i].line, "p3c-cancellation-poll",
           "loop drives user task code (Map/Reduce) but never "
           "consults a CancellationToken; the watchdog's deadline kill "
           "cannot stop it — poll ThrowIfCancelled() every few "
           "iterations"});
    }
  }
}

// ---------------------------------------------------------------------------
// p3c-no-iostream
// ---------------------------------------------------------------------------

void RuleNoIostream(const std::string& path, const LexedFile& file,
                    std::vector<Diagnostic>* out) {
  if (!PathStartsWith(path, "src/")) return;
  const Tokens& t = file.tokens;
  for (size_t i = 0; i < t.size(); ++i) {
    if (IsIdent(t, i, "cout") || IsIdent(t, i, "cerr") ||
        IsIdent(t, i, "clog")) {
      out->push_back({path, t[i].line, "p3c-no-iostream",
                      "raw std::" + t[i].text +
                          " in library code; use P3C_LOG (logging.h) so "
                          "sinks, levels, and test captures apply"});
    }
  }
}

// ---------------------------------------------------------------------------
// p3c-banned-nondeterminism
// ---------------------------------------------------------------------------

void RuleBannedNondeterminism(const std::string& path, const LexedFile& file,
                              std::vector<Diagnostic>* out) {
  if (PathEndsWith(path, "common/random.cc") ||
      PathEndsWith(path, "common/random.h")) {
    return;
  }
  const Tokens& t = file.tokens;
  for (size_t i = 0; i < t.size(); ++i) {
    if (!IsIdent(t, i)) continue;
    const std::string& s = t[i].text;
    const bool call_like = IsPunct(t, i + 1, "(");
    // The C clock's one argument is a time_t*: nullptr, NULL, 0 or &t.
    // A local callable that happens to be named `time` takes other
    // arguments and is not a clock read.
    const bool clock_call =
        s == "time" && call_like &&
        (IsIdent(t, i + 2, "nullptr") || IsIdent(t, i + 2, "NULL") ||
         IsPunct(t, i + 2, "&") ||
         (i + 2 < t.size() && t[i + 2].text == "0"));
    if (((s == "rand" || s == "srand") && call_like) || clock_call ||
        s == "random_device") {
      out->push_back(
          {path, t[i].line, "p3c-banned-nondeterminism",
           "'" + s +
               "' is a banned entropy/time source; route all randomness "
               "through src/common/random.h so runs are reproducible"});
    }
  }
}

// ---------------------------------------------------------------------------
// p3c-raw-file-write
// ---------------------------------------------------------------------------

void RuleRawFileWrite(const std::string& path, const LexedFile& file,
                      std::vector<Diagnostic>* out) {
  // The blessed writers: the dataset/blob writers in src/data/io.* and
  // the durable-replace machinery itself. Tests write scratch files
  // however they like.
  if (PathStartsWith(path, "tests/") ||
      path.find("_test.") != std::string::npos ||
      PathEndsWith(path, "data/io.cc") || PathEndsWith(path, "data/io.h") ||
      PathEndsWith(path, "common/atomic_file.cc") ||
      PathEndsWith(path, "common/atomic_file.h")) {
    return;
  }
  const Tokens& t = file.tokens;
  for (size_t i = 0; i < t.size(); ++i) {
    if (!IsIdent(t, i)) continue;
    const std::string& s = t[i].text;
    if (s == "ofstream" || s == "fstream") {
      out->push_back(
          {path, t[i].line, "p3c-raw-file-write",
           "'std::" + s +
               "' creates files without the durable temp+fsync+rename "
               "protocol; write through AtomicFileWriter "
               "(src/common/atomic_file.h) or the writers in src/data/io.h"});
      continue;
    }
    if (s == "fopen" && IsPunct(t, i + 1, "(")) {
      const size_t after = MatchParen(t, i + 1);
      if (after == kNpos) continue;
      const size_t close = after - 1;
      // The mode is the argument after the last top-level comma; a
      // literal containing 'w' or 'a' there creates/truncates a file.
      // Read-mode opens stay legal, and a path literal like "data.csv"
      // in the first argument cannot trip the check.
      size_t last_comma = kNpos;
      int depth = 0;
      for (size_t j = i + 1; j < close; ++j) {
        if (t[j].kind != TokKind::kPunct) continue;
        const std::string& p = t[j].text;
        if (p == "(" || p == "[" || p == "{") ++depth;
        if (p == ")" || p == "]" || p == "}") --depth;
        if (depth == 1 && p == ",") last_comma = j;
      }
      if (last_comma == kNpos) continue;
      for (size_t j = last_comma + 1; j < close; ++j) {
        if (t[j].kind == TokKind::kString &&
            (t[j].text.find('w') != std::string::npos ||
             t[j].text.find('a') != std::string::npos)) {
          out->push_back(
              {path, t[i].line, "p3c-raw-file-write",
               "fopen in write mode bypasses the durable "
               "temp+fsync+rename protocol; a crash here leaves a "
               "truncated file — write through AtomicFileWriter "
               "(src/common/atomic_file.h) or the writers in "
               "src/data/io.h"});
          break;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// p3c-naked-mutex
// ---------------------------------------------------------------------------

// The std:: synchronization primitives that must instead go through the
// capability-annotated wrappers in src/common/sync.h (DESIGN.md §17).
// Raw primitives carry no thread-safety attributes, so Clang's
// -Wthread-safety cannot see locks taken through them, and they skip
// the debug lock-order checker.
bool IsNakedSyncName(const std::string& s) {
  return s == "mutex" || s == "timed_mutex" || s == "recursive_mutex" ||
         s == "recursive_timed_mutex" || s == "shared_mutex" ||
         s == "shared_timed_mutex" || s == "lock_guard" ||
         s == "unique_lock" || s == "scoped_lock" || s == "shared_lock" ||
         s == "condition_variable" || s == "condition_variable_any";
}

void RuleNakedMutex(const std::string& path, const LexedFile& file,
                    std::vector<Diagnostic>* out) {
  if (!PathStartsWith(path, "src/")) return;
  const Tokens& t = file.tokens;
  for (size_t i = 0; i + 2 < t.size(); ++i) {
    if (!IsIdent(t, i, "std") || !IsPunct(t, i + 1, "::") ||
        !IsIdent(t, i + 2)) {
      continue;
    }
    const std::string& s = t[i + 2].text;
    if (!IsNakedSyncName(s)) continue;
    out->push_back(
        {path, t[i + 2].line, "p3c-naked-mutex",
         "raw 'std::" + s +
             "' in library code; use Mutex/MutexLock/CondVar from "
             "src/common/sync.h so -Wthread-safety and the debug "
             "lock-order checker see it"});
  }
}

// ---------------------------------------------------------------------------
// p3c-implicit-seq-cst
// ---------------------------------------------------------------------------

bool IsAtomicOpName(const std::string& s) {
  return s == "load" || s == "store" || s == "exchange" ||
         s == "fetch_add" || s == "fetch_sub" || s == "fetch_and" ||
         s == "fetch_or" || s == "fetch_xor" ||
         s == "compare_exchange_weak" || s == "compare_exchange_strong";
}

void RuleImplicitSeqCst(const std::string& path, const LexedFile& file,
                        std::vector<Diagnostic>* out) {
  if (!PathStartsWith(path, "src/")) return;
  const Tokens& t = file.tokens;
  for (size_t i = 0; i + 2 < t.size(); ++i) {
    if (!(IsPunct(t, i, ".") || IsPunct(t, i, "->")) || !IsIdent(t, i + 1) ||
        !IsPunct(t, i + 2, "(")) {
      continue;
    }
    const std::string& m = t[i + 1].text;
    if (!IsAtomicOpName(m)) continue;
    const size_t after = MatchParen(t, i + 2);
    if (after == kNpos) continue;
    // An explicit order is any std::memory_order_* constant (or
    // scoped std::memory_order::* spelling) in the argument list; the
    // compare_exchange two-order form passes the same test.
    bool has_order = false;
    for (size_t j = i + 3; j + 1 < after; ++j) {
      if (IsIdent(t, j) && t[j].text.rfind("memory_order", 0) == 0) {
        has_order = true;
        break;
      }
    }
    if (has_order) continue;
    out->push_back(
        {path, t[i + 1].line, "p3c-implicit-seq-cst",
         "atomic '." + m +
             "(...)' defaults to seq_cst; the cost doctrine requires every "
             "memory order to be an explicit, reviewed decision — spell it "
             "out (std::memory_order_relaxed on documented hot gates, "
             "acquire/release where ordering is load-bearing)"});
  }
}

}  // namespace

std::string FormatDiagnostic(const Diagnostic& d) {
  return d.file + ":" + std::to_string(d.line) + ": error: " + d.message +
         " [" + d.rule + "]";
}

const std::vector<std::string>& AllRules() {
  static const std::vector<std::string> kRules = {
      "p3c-unordered-emit",     "p3c-cancellation-poll",
      "p3c-no-iostream",
      "p3c-banned-nondeterminism", "p3c-raw-file-write",
      "p3c-naked-mutex",        "p3c-implicit-seq-cst",
  };
  return kRules;
}

std::vector<Diagnostic> LintSource(const std::string& path,
                                   const std::string& source,
                                   const std::vector<std::string>& enabled) {
  const LexedFile file = Lex(source);
  std::vector<Diagnostic> raw;
  for (const std::string& rule : enabled) {
    if (rule == "p3c-unordered-emit") {
      RuleUnorderedEmit(path, file, &raw);
    } else if (rule == "p3c-cancellation-poll") {
      RuleCancellationPoll(path, file, &raw);
    } else if (rule == "p3c-no-iostream") {
      RuleNoIostream(path, file, &raw);
    } else if (rule == "p3c-banned-nondeterminism") {
      RuleBannedNondeterminism(path, file, &raw);
    } else if (rule == "p3c-raw-file-write") {
      RuleRawFileWrite(path, file, &raw);
    } else if (rule == "p3c-naked-mutex") {
      RuleNakedMutex(path, file, &raw);
    } else if (rule == "p3c-implicit-seq-cst") {
      RuleImplicitSeqCst(path, file, &raw);
    }
  }
  std::vector<Diagnostic> kept;
  for (Diagnostic& d : raw) {
    if (!IsSuppressed(file, d.line, d.rule)) kept.push_back(std::move(d));
  }
  return kept;
}

}  // namespace p3c::lint
