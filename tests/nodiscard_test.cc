// A discarded Status or Result fails the build.
//
// Status and Result are [[nodiscard]] classes (src/common/status.h),
// and the root CMakeLists.txt compiles every target with
// -Werror=unused-result. These tests compile small snippets against the
// real status.h with the compiler and the compile options the tests
// themselves were built with, and assert that each discarded call is a
// build error naming unused-result while the checked forms compile
// clean. Every failing snippet has a clean twin that differs only in
// consuming the value, so a failure cannot come from anything else.

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#if defined(P3C_CXX_COMPILER) && defined(P3C_CXX_OPTIONS) && \
    defined(P3C_SOURCE_DIR)

namespace p3c {
namespace {

struct Compile {
  int exit_code = -1;
  std::string diagnostics;
};

/// Compiles `body` (after an include of status.h) for syntax only and
/// returns the compiler's exit code and its diagnostics.
Compile CompileSnippet(const std::string& name, const std::string& body) {
  const std::string dir = ::testing::TempDir();
  const std::string source = dir + "/" + name + ".cc";
  const std::string log = dir + "/" + name + ".log";
  {
    std::ofstream out(source);
    out << "#include \"src/common/status.h\"\n"
        << "namespace p3c {\n"
        << body << "\n}  // namespace p3c\n";
  }
  const std::string command = std::string(P3C_CXX_COMPILER) + " " +
                              P3C_CXX_OPTIONS + " -std=c++20 -fsyntax-only" +
                              " -I" + P3C_SOURCE_DIR + " " + source + " > " +
                              log + " 2>&1";
  const int rc = std::system(command.c_str());
  Compile result;
  result.exit_code = WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
  std::ifstream in(log);
  std::stringstream text;
  text << in.rdbuf();
  result.diagnostics = text.str();
  return result;
}

/// Diagnostics GCC ([-Werror=unused-result]) and Clang
/// ([-Werror,-Wunused-result]) tag with the unused-result warning.
size_t UnusedResultErrors(const std::string& diagnostics) {
  size_t count = 0;
  for (size_t at = diagnostics.find("unused-result"); at != std::string::npos;
       at = diagnostics.find("unused-result", at + 1)) {
    ++count;
  }
  return count;
}

void ExpectDiscardsRejected(const std::string& name, const std::string& body,
                            size_t discards) {
  const Compile c = CompileSnippet(name, body);
  EXPECT_NE(c.exit_code, 0) << c.diagnostics;
  EXPECT_EQ(UnusedResultErrors(c.diagnostics), discards) << c.diagnostics;
}

void ExpectCompilesClean(const std::string& name, const std::string& body) {
  const Compile c = CompileSnippet(name, body);
  EXPECT_EQ(c.exit_code, 0) << c.diagnostics;
  EXPECT_EQ(c.diagnostics, "");
}

TEST(NodiscardTest, DiscardedStatusCallFailsTheBuild) {
  ExpectDiscardsRejected("discard_status", R"cc(
    Status DoWrite(int x) { return x > 0 ? Status::OK() : Status::Internal("x"); }
    void f() { DoWrite(1); }
  )cc",
                         1);
  ExpectCompilesClean("keep_status", R"cc(
    Status DoWrite(int x) { return x > 0 ? Status::OK() : Status::Internal("x"); }
    bool f() { return DoWrite(1).ok(); }
  )cc");
}

TEST(NodiscardTest, DiscardedResultCallFailsTheBuild) {
  ExpectDiscardsRejected("discard_result", R"cc(
    Result<int> Load(int x) { return x; }
    void f() { Load(1); }
  )cc",
                         1);
  ExpectCompilesClean("keep_result", R"cc(
    Result<int> Load(int x) { return x; }
    int f() { return Load(1).value(); }
  )cc");
}

TEST(NodiscardTest, DiscardedMemberAndQualifiedCallsFailTheBuild) {
  ExpectDiscardsRejected("discard_member", R"cc(
    struct File { Status Close() { return Status::OK(); } };
    namespace io { inline Status Flush(int) { return Status::OK(); } }
    void f(File* file) {
      file->Close();
      io::Flush(3);
    }
  )cc",
                         2);
  ExpectCompilesClean("keep_member", R"cc(
    struct File { Status Close() { return Status::OK(); } };
    namespace io { inline Status Flush(int) { return Status::OK(); } }
    bool f(File* file) { return file->Close().ok() && io::Flush(3).ok(); }
  )cc");
}

TEST(NodiscardTest, DiscardInsideBracelessIfFailsTheBuild) {
  ExpectDiscardsRejected("discard_in_if", R"cc(
    Status DoWrite(int) { return Status::OK(); }
    void f(bool b) {
      if (b) DoWrite(1);
    }
  )cc",
                         1);
}

// The bare-name shape the retired lint rule had to skip: a void member
// shares its name with a Status-returning function. The compiler knows
// which one each call resolves to, so it rejects the Status discard and
// accepts the void call.
TEST(NodiscardTest, AmbiguousBareNameResolvesPerCall) {
  ExpectDiscardsRejected("discard_ambiguous", R"cc(
    struct Writer { Status Append(int) { return Status::OK(); } void g(); };
    struct Tracer { void Append(int) {} void g(); };
    void Writer::g() { Append(1); }
    void Tracer::g() { Append(1); }
  )cc",
                         1);
}

TEST(NodiscardTest, CheckedUsesCompileClean) {
  ExpectCompilesClean("checked_uses", R"cc(
    Status DoWrite(int) { return Status::OK(); }
    Status g() {
      Status st = DoWrite(1);
      if (!st.ok()) return st;
      P3C_RETURN_NOT_OK(DoWrite(2));
      (void)DoWrite(3);
      return DoWrite(4);
    }
  )cc");
}

}  // namespace
}  // namespace p3c

#endif  // P3C_CXX_COMPILER && P3C_CXX_OPTIONS && P3C_SOURCE_DIR
