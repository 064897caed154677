// Tests of p3c_lint (tools/lint/): every rule fires on a known-bad
// fixture snippet, every NOLINT form suppresses, the tokenizer is not
// fooled by strings/comments, and the binary's exit codes hold (0
// clean / 1 findings / 2 usage error). DESIGN.md §12 documents the
// rule catalogue these fixtures pin down.

#include "tools/lint/linter.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

namespace p3c::lint {
namespace {

std::vector<Diagnostic> RunLint(const std::string& path,
                                const std::string& source) {
  return LintSource(path, source, AllRules());
}

std::vector<std::string> RuleIds(const std::vector<Diagnostic>& diags) {
  std::vector<std::string> ids;
  for (const auto& d : diags) ids.push_back(d.rule);
  return ids;
}

// ---------------------------------------------------------------------------
// p3c-unordered-emit
// ---------------------------------------------------------------------------

TEST(LintUnorderedEmit, FiresOnDirectIteration) {
  const std::string src = R"cc(
    void f(Emitter& out) {
      std::unordered_map<int, double> counts;
      for (const auto& [k, v] : counts) {
        out.Emit(k, v);
      }
    }
  )cc";
  const auto diags = RunLint("src/a.cc", src);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "p3c-unordered-emit");
}

TEST(LintUnorderedEmit, FiresThroughTypeAlias) {
  const std::string src = R"cc(
    using SupportTable = std::unordered_map<Signature, uint64_t, Hash>;
    void f(Emitter& out, const SupportTable& table) {
      for (const auto& kv : table) out.Emit(kv.first, kv.second);
    }
  )cc";
  EXPECT_EQ(RuleIds(RunLint("src/a.cc", src)),
            std::vector<std::string>{"p3c-unordered-emit"});
}

TEST(LintUnorderedEmit, SilentWithoutEmitOrOnOrderedContainers) {
  const std::string src = R"cc(
    void f(Emitter& out) {
      std::unordered_map<int, double> counts;
      for (const auto& [k, v] : counts) sum += v;  // no Emit: fine
      std::map<int, double> sorted(counts.begin(), counts.end());
      for (const auto& [k, v] : sorted) out.Emit(k, v);  // ordered: fine
    }
  )cc";
  EXPECT_TRUE(RunLint("src/a.cc", src).empty());
}

// ---------------------------------------------------------------------------
// p3c-cancellation-poll
// ---------------------------------------------------------------------------

TEST(LintCancellationPoll, FiresOnUnpolledDispatchLoop) {
  const std::string src = R"cc(
    void Drive(Mapper& mapper, std::span<const Record> split, Emitter& out) {
      for (const Record& r : split) {
        mapper.Map(r, out);
      }
    }
  )cc";
  const auto diags = RunLint("src/a.cc", src);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "p3c-cancellation-poll");
}

TEST(LintCancellationPoll, SilentWhenLoopPolls) {
  const std::string src = R"cc(
    void Drive(Mapper& mapper, std::span<const Record> split, Emitter& out,
               const TaskContext& ctx) {
      size_t i = 0;
      for (const Record& r : split) {
        if ((i++ & 63u) == 0) ctx.cancel.ThrowIfCancelled();
        mapper.Map(r, out);
      }
      while (Pending()) {
        if (token.cancelled()) break;
        reducer->Reduce(Next());
      }
    }
  )cc";
  EXPECT_TRUE(RunLint("src/a.cc", src).empty());
}

TEST(LintCancellationPoll, SilentOnLoopsWithoutDispatch) {
  const std::string src = R"cc(
    void f(const std::vector<double>& xs) {
      double sum = 0;
      for (double x : xs) sum += x;
      while (sum > 1) sum /= 2;
    }
  )cc";
  EXPECT_TRUE(RunLint("src/a.cc", src).empty());
}

// ---------------------------------------------------------------------------
// p3c-no-iostream
// ---------------------------------------------------------------------------

TEST(LintNoIostream, FiresOnlyUnderSrc) {
  const std::string src = R"cc(
    void f() { std::cout << "hello"; std::cerr << "oops"; }
  )cc";
  EXPECT_EQ(RunLint("src/core/a.cc", src).size(), 2u);
  // CLI tools and tests may print.
  EXPECT_TRUE(RunLint("tools/p3c_cli.cc", src).empty());
  EXPECT_TRUE(RunLint("tests/a_test.cc", src).empty());
}

// ---------------------------------------------------------------------------
// p3c-banned-nondeterminism
// ---------------------------------------------------------------------------

TEST(LintBannedNondeterminism, FiresOnEntropySources) {
  const std::string src = R"cc(
    void f() {
      int a = rand();
      srand(42);
      std::random_device rd;
      long t = time(nullptr);
    }
  )cc";
  EXPECT_EQ(RunLint("src/a.cc", src).size(), 4u);
  EXPECT_EQ(RunLint("tests/a_test.cc", src).size(), 4u);  // tests too
}

TEST(LintBannedNondeterminism, LocalCallableNamedTimeIsNotTheClock) {
  const std::string src = R"cc(
    void f() {
      auto time = [](auto&& fn) { fn(); };
      time([] {});
      long a = time(NULL) + time(0);
      time_t b;
      time(&b);
    }
  )cc";
  const auto diags = RunLint("src/a.cc", src);
  ASSERT_EQ(diags.size(), 3u);
  EXPECT_EQ(diags[0].line, 5);
  EXPECT_EQ(diags[1].line, 5);
  EXPECT_EQ(diags[2].line, 7);
}

TEST(LintBannedNondeterminism, ExemptsTheProjectRng) {
  const std::string src = "void f() { std::random_device rd; }";
  EXPECT_TRUE(RunLint("src/common/random.cc", src).empty());
  EXPECT_FALSE(RunLint("src/common/other.cc", src).empty());
}

TEST(LintBannedNondeterminism, NotFooledByStringsAndComments) {
  const std::string src = R"cc(
    // calls time() and rand() -- in a comment only
    const char* kHeader = "spec. kill. ddl. skew time(s)";
    const char* kRaw = R"(rand())";
  )cc";
  EXPECT_TRUE(RunLint("src/a.cc", src).empty());
}

// ---------------------------------------------------------------------------
// p3c-raw-file-write
// ---------------------------------------------------------------------------

TEST(LintRawFileWrite, FiresOnWriteModeFopen) {
  const std::string src = R"cc(
    void f(const std::string& path) {
      std::FILE* a = std::fopen(path.c_str(), "w");
      std::FILE* b = std::fopen(path.c_str(), "wb");
      std::FILE* c = fopen(path.c_str(), "a+");
    }
  )cc";
  const auto diags = RunLint("src/core/a.cc", src);
  ASSERT_EQ(diags.size(), 3u);
  EXPECT_EQ(diags[0].rule, "p3c-raw-file-write");
  EXPECT_EQ(diags[0].line, 3);
  // Fires everywhere outside the allowlist, not only under src/.
  EXPECT_EQ(RunLint("bench/a.cc", src).size(), 3u);
  EXPECT_EQ(RunLint("tools/a.cc", src).size(), 3u);
}

TEST(LintRawFileWrite, SilentOnReadModeFopen) {
  const std::string src = R"cc(
    void f(const std::string& path) {
      std::FILE* f = std::fopen(path.c_str(), "rb");
    }
  )cc";
  EXPECT_TRUE(RunLint("src/core/a.cc", src).empty());
}

TEST(LintRawFileWrite, PathLiteralDoesNotTripTheModeCheck) {
  // 'a' and 'w' in the *path* argument must not look like a mode.
  const std::string src = R"cc(
    void f() {
      std::FILE* f = std::fopen("weather.csv", "r");
    }
  )cc";
  EXPECT_TRUE(RunLint("src/core/a.cc", src).empty());
}

TEST(LintRawFileWrite, FiresOnOfstream) {
  const std::string src = R"cc(
    void f(const std::string& path) {
      std::ofstream out(path);
      out << 1;
    }
  )cc";
  const auto diags = RunLint("src/core/a.cc", src);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "p3c-raw-file-write");
}

TEST(LintRawFileWrite, ExemptsBlessedWritersAndTests) {
  const std::string src = R"cc(
    void f(const std::string& path) {
      std::FILE* f = std::fopen(path.c_str(), "w");
    }
  )cc";
  EXPECT_TRUE(RunLint("src/data/io.cc", src).empty());
  EXPECT_TRUE(RunLint("src/common/atomic_file.cc", src).empty());
  EXPECT_TRUE(RunLint("tests/a_test.cc", src).empty());
  EXPECT_TRUE(RunLint("src/core/foo_test.cc", src).empty());
}

TEST(LintRawFileWrite, NolintSuppresses) {
  const std::string src = R"cc(
    void f(const std::string& path) {
      // NOLINTNEXTLINE(p3c-raw-file-write)
      std::FILE* f = std::fopen(path.c_str(), "w");
    }
  )cc";
  EXPECT_TRUE(RunLint("src/core/a.cc", src).empty());
}

// ---------------------------------------------------------------------------
// p3c-naked-mutex
// ---------------------------------------------------------------------------

TEST(LintNakedMutex, FiresOnEveryRawPrimitive) {
  const std::string src = R"cc(
    struct S {
      std::mutex mu;
      std::shared_mutex smu;
      std::condition_variable cv;
      void f() {
        std::lock_guard<std::mutex> lock(mu);
        std::unique_lock<std::mutex> ulock(mu);
        std::shared_lock<std::shared_mutex> slock(smu);
        std::scoped_lock all(mu);
      }
    };
  )cc";
  const auto diags = RunLint("src/common/thing.h", src);
  // mutex, shared_mutex, condition_variable, lock_guard + its <mutex>
  // argument, unique_lock + argument, shared_lock + argument,
  // scoped_lock.
  EXPECT_EQ(diags.size(), 10u);
  for (const auto& d : diags) EXPECT_EQ(d.rule, "p3c-naked-mutex");
}

TEST(LintNakedMutex, SilentOnTheSyncWrappers) {
  const std::string src = R"cc(
    struct S {
      Mutex mu{"S::mu"};
      SharedMutex smu{"S::smu"};
      CondVar cv;
      void f() {
        MutexLock lock(mu);
        ReaderMutexLock rlock(smu);
        cv.Wait(mu, [this]() { return true; });
      }
    };
  )cc";
  EXPECT_TRUE(RunLint("src/common/thing.h", src).empty());
}

TEST(LintNakedMutex, SilentOnUnrelatedStdNames) {
  const std::string src = R"cc(
    std::vector<int> v;
    std::string s;
    std::atomic<bool> flag{false};
  )cc";
  EXPECT_TRUE(RunLint("src/common/thing.h", src).empty());
}

TEST(LintNakedMutex, LibraryCodeOnly) {
  const std::string src = R"cc(
    std::mutex mu;
  )cc";
  EXPECT_EQ(RunLint("src/common/thing.cc", src).size(), 1u);
  EXPECT_TRUE(RunLint("tools/some_tool.cc", src).empty());
  EXPECT_TRUE(RunLint("tests/some_test.cc", src).empty());
  EXPECT_TRUE(RunLint("bench/some_bench.cc", src).empty());
}

// sync.h itself wraps the raw primitives and is NOT path-exempted: it
// suppresses per wrapped line with a justified NOLINT, the form the
// DESIGN.md §17 ledger counts.
TEST(LintNakedMutex, NolintSuppressesInsideSyncWrapper) {
  const std::string src = R"cc(
    class Mutex {
     private:
      std::mutex mu_;  // NOLINT(p3c-naked-mutex): the one wrapped instance
    };
  )cc";
  EXPECT_TRUE(RunLint("src/common/sync.h", src).empty());
}

// The real sync.h/sync.cc must lint clean through their own NOLINTs —
// this is the zero-blanket-suppressions acceptance gate in miniature.
TEST(LintNakedMutex, TheRealSyncLayerLintsClean) {
  for (const char* path : {"src/common/sync.h", "src/common/sync.cc"}) {
    std::ifstream in(std::string(P3C_SOURCE_DIR) + "/" + path);
    ASSERT_TRUE(in.good()) << path;
    std::string src((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
    EXPECT_TRUE(RunLint(path, src).empty()) << path;
  }
}

// ---------------------------------------------------------------------------
// p3c-implicit-seq-cst
// ---------------------------------------------------------------------------

TEST(LintImplicitSeqCst, FiresOnBareAtomicOps) {
  const std::string src = R"cc(
    void f(std::atomic<int>& a, std::atomic<int>* p) {
      int x = a.load();
      a.store(1);
      a.fetch_add(2);
      p->fetch_sub(3);
      int e = 0;
      a.compare_exchange_strong(e, 1);
    }
  )cc";
  const auto diags = RunLint("src/common/thing.cc", src);
  EXPECT_EQ(diags.size(), 5u);
  for (const auto& d : diags) EXPECT_EQ(d.rule, "p3c-implicit-seq-cst");
}

TEST(LintImplicitSeqCst, SilentWithExplicitOrders) {
  const std::string src = R"cc(
    void f(std::atomic<int>& a) {
      int x = a.load(std::memory_order_relaxed);
      a.store(1, std::memory_order_release);
      a.fetch_add(2, std::memory_order_acq_rel);
      int e = 0;
      // Both compare_exchange forms: single-order and two-order.
      a.compare_exchange_weak(e, 1, std::memory_order_acq_rel);
      a.compare_exchange_strong(e, 1, std::memory_order_acquire,
                                std::memory_order_relaxed);
    }
  )cc";
  EXPECT_TRUE(RunLint("src/common/thing.cc", src).empty());
}

TEST(LintImplicitSeqCst, SilentOnNonAtomicMethodNames) {
  const std::string src = R"cc(
    void f(Queue& q, Config& c) {
      q.exchange_rates();
      c.loader();
      c.storekeeper(1);
    }
  )cc";
  EXPECT_TRUE(RunLint("src/common/thing.cc", src).empty());
}

TEST(LintImplicitSeqCst, LibraryCodeOnlyAndNolint) {
  const std::string src = R"cc(
    void f(std::atomic<int>& a) {
      a.store(1);
    }
  )cc";
  EXPECT_EQ(RunLint("src/common/thing.cc", src).size(), 1u);
  EXPECT_TRUE(RunLint("tests/a_test.cc", src).empty());
  const std::string suppressed = R"cc(
    void f(std::atomic<int>& a) {
      a.store(1);  // NOLINT(p3c-implicit-seq-cst)
    }
  )cc";
  EXPECT_TRUE(RunLint("src/common/thing.cc", suppressed).empty());
}

// ---------------------------------------------------------------------------
// NOLINT suppressions
// ---------------------------------------------------------------------------

TEST(LintNolint, EveryFormSuppresses) {
  const std::string src = R"cc(
    void f() {
      std::cout << 1;  // NOLINT(p3c-no-iostream)
      std::cout << 2;  // NOLINT
      // NOLINTNEXTLINE(p3c-no-iostream)
      std::cout << 3;
      // NOLINTNEXTLINE(p3c-banned-nondeterminism, p3c-no-iostream)
      std::cout << 4;
    }
  )cc";
  EXPECT_TRUE(RunLint("src/a.cc", src).empty());
}

TEST(LintNolint, WrongRuleDoesNotSuppress) {
  const std::string src = R"cc(
    void f() {
      std::cout << 1;  // NOLINT(p3c-banned-nondeterminism)
    }
  )cc";
  EXPECT_EQ(RunLint("src/a.cc", src).size(), 1u);
}

// ---------------------------------------------------------------------------
// Binary exit codes (0 clean / 1 findings / 2 usage error)
// ---------------------------------------------------------------------------

#ifdef P3C_LINT_BIN

std::string WriteFixture(const char* name, const std::string& content) {
  const std::string path = std::string(::testing::TempDir()) + "/" + name;
  std::ofstream out(path);
  out << content;
  return path;
}

int RunBinary(const std::string& args) {
  const int rc = std::system((std::string(P3C_LINT_BIN) + " " + args +
                              " > /dev/null 2> /dev/null")
                                 .c_str());
  return WEXITSTATUS(rc);
}

TEST(LintBinary, ExitCodesMatchContract) {
  const std::string clean =
      WriteFixture("lint_clean.cc", "int Add(int a, int b) { return a + b; }\n");
  const std::string dirty = WriteFixture(
      "lint_dirty.cc",
      "#include <cstdlib>\nint f() { return rand(); }\n");
  EXPECT_EQ(RunBinary(clean), 0);
  EXPECT_EQ(RunBinary(dirty), 1);
  EXPECT_EQ(RunBinary(clean + " " + dirty), 1);
  EXPECT_EQ(RunBinary("--rules=p3c-no-iostream " + dirty), 0);
  EXPECT_EQ(RunBinary("--rules=no-such-rule " + dirty), 2);
  EXPECT_EQ(RunBinary("/no/such/file.cc"), 2);
  EXPECT_EQ(RunBinary(""), 2);  // no inputs: usage
}

TEST(LintBinary, HeaderSelfContainmentMode) {
  const std::string good = WriteFixture(
      "lint_good.h",
      "#include <vector>\n"
      "inline std::size_t F(const std::vector<int>& v)"
      " { return v.size(); }\n");
  const std::string bad = WriteFixture(
      "lint_bad.h",
      "inline std::size_t F(const std::vector<int>& v)"
      " { return v.size(); }\n");
  EXPECT_EQ(RunBinary("--check-headers --root=/ " + good), 0);
  EXPECT_EQ(RunBinary("--check-headers --root=/ " + bad), 1);
}

// Like RunBinary but keeps stdout, for the --json contract.
int RunBinaryCapture(const std::string& args, std::string* stdout_text) {
  FILE* pipe = popen(
      (std::string(P3C_LINT_BIN) + " " + args + " 2> /dev/null").c_str(), "r");
  if (pipe == nullptr) return -1;
  std::string captured;
  char buf[4096];
  size_t got = 0;
  while ((got = fread(buf, 1, sizeof(buf), pipe)) > 0) {
    captured.append(buf, got);
  }
  const int rc = pclose(pipe);
  *stdout_text = captured;
  return WEXITSTATUS(rc);
}

// --json keeps the 0/1/2 exit-code contract byte-for-byte: machine
// consumers (the CI annotation step) branch on the same codes the
// human-format mode uses.
TEST(LintBinaryJson, ExitCodesUnchangedUnderJson) {
  const std::string clean = WriteFixture(
      "lint_json_clean.cc", "int Add(int a, int b) { return a + b; }\n");
  const std::string dirty = WriteFixture(
      "lint_json_dirty.cc",
      "#include <cstdlib>\nint f() { return rand(); }\n");
  std::string out;
  EXPECT_EQ(RunBinaryCapture("--json " + clean, &out), 0);
  EXPECT_EQ(RunBinaryCapture("--json " + dirty, &out), 1);
  EXPECT_EQ(RunBinaryCapture("--json --rules=no-such-rule " + dirty, &out), 2);
  EXPECT_EQ(RunBinaryCapture("--json /no/such/file.cc", &out), 2);
  EXPECT_EQ(RunBinaryCapture("--json", &out), 2);
}

TEST(LintBinaryJson, CleanTreeEmitsEmptyArray) {
  const std::string clean = WriteFixture(
      "lint_json_empty.cc", "int Add(int a, int b) { return a + b; }\n");
  std::string out;
  ASSERT_EQ(RunBinaryCapture("--json " + clean, &out), 0);
  EXPECT_EQ(out, "[]\n");
}

TEST(LintBinaryJson, RecordsCarryFileLineRuleMessage) {
  const std::string dirty = WriteFixture(
      "lint_json_fields.cc",
      "#include <cstdlib>\nint f() { return rand(); }\n");
  std::string out;
  ASSERT_EQ(RunBinaryCapture("--json " + dirty, &out), 1);
  // Array shape and the four required fields of each record.
  EXPECT_EQ(out.front(), '[');
  EXPECT_EQ(out.back(), '\n');
  EXPECT_NE(out.find("]"), std::string::npos);
  EXPECT_NE(out.find("\"file\": \"" + dirty + "\""), std::string::npos);
  EXPECT_NE(out.find("\"line\": 2"), std::string::npos);
  EXPECT_NE(out.find("\"rule\": \"p3c-banned-nondeterminism\""),
            std::string::npos);
  EXPECT_NE(out.find("\"message\": \""), std::string::npos);
  // The human format must not leak into the machine stream.
  EXPECT_EQ(out.find(": error: "), std::string::npos);
}

TEST(LintBinaryJson, CheckHeadersModeSpeaksJsonToo) {
  const std::string bad = WriteFixture(
      "lint_json_bad.h",
      "inline std::size_t F(const std::vector<int>& v)"
      " { return v.size(); }\n");
  std::string out;
  ASSERT_EQ(RunBinaryCapture("--check-headers --root=/ --json " + bad, &out),
            1);
  EXPECT_NE(out.find("\"rule\": \"p3c-header-self-contained\""),
            std::string::npos);
  EXPECT_NE(out.find("\"file\": \"" + bad + "\""), std::string::npos);
}

#endif  // P3C_LINT_BIN

}  // namespace
}  // namespace p3c::lint
