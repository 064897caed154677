// p3c_lint — project-native static analysis driver (see linter.h for
// the rule catalogue, DESIGN.md §12 for the policy).
//
// Usage:
//   p3c_lint [--rules=r1,r2,...] [--json] FILE...  lint mode (default)
//   p3c_lint --check-headers [--root=DIR] [--cxx=BIN] [--json] HEADER...
//
// Lint mode runs the enabled rules over each file. Diagnostics go to stdout in clang style, or — with --json — as a
// JSON array of {"file","line","rule","message"} records so CI and
// editors can consume findings without scraping text. The summary
// stays on stderr and the exit-code contract is unchanged in both
// modes.
//
// --check-headers verifies header self-containment: each header gets a
// one-include translation unit compiled with `-fsyntax-only` from
// --root, so a header that silently leans on its includer's includes
// fails here instead of in the next refactor.
//
// Exit codes: 0 clean, 1 diagnostics/failed headers, 2 usage or I/O
// error. tests/lint_test.cc asserts all three.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "tools/lint/lexer.h"
#include "tools/lint/linter.h"

namespace {

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

std::vector<std::string> SplitCommaList(const std::string& list) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= list.size()) {
    size_t comma = list.find(',', start);
    if (comma == std::string::npos) comma = list.size();
    if (comma > start) out.push_back(list.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

/// Compiles `#include "header"` as its own TU. Returns true on
/// success; on failure `output` carries the compiler's message.
bool CheckHeaderSelfContained(const std::string& root,
                              const std::string& header,
                              const std::string& cxx, std::string* output) {
  char tu_path[] = "/tmp/p3c_lint_hdr_XXXXXX.cc";
  const int fd = mkstemps(tu_path, 3);
  if (fd < 0) {
    *output = "cannot create temporary translation unit";
    return false;
  }
  {
    const std::string tu = "#include \"" + header + "\"\n";
    const ssize_t written = write(fd, tu.data(), tu.size());
    close(fd);
    if (written != static_cast<ssize_t>(tu.size())) {
      unlink(tu_path);
      *output = "cannot write temporary translation unit";
      return false;
    }
  }
  const std::string cmd = cxx + " -std=c++20 -fsyntax-only -I\"" + root +
                          "\" \"" + tu_path + "\" 2>&1";
  std::string captured;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) {
    unlink(tu_path);
    *output = "cannot invoke compiler: " + cmd;
    return false;
  }
  char buf[4096];
  size_t got = 0;
  while ((got = fread(buf, 1, sizeof(buf), pipe)) > 0) {
    captured.append(buf, got);
  }
  const int rc = pclose(pipe);
  unlink(tu_path);
  *output = captured;
  return rc == 0;
}

/// Minimal JSON string escaping (quotes, backslashes, control chars) —
/// diagnostic messages and paths are ASCII by construction.
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// One {"file","line","rule","message"} record.
std::string JsonRecord(const p3c::lint::Diagnostic& d) {
  return "{\"file\": \"" + JsonEscape(d.file) +
         "\", \"line\": " + std::to_string(d.line) + ", \"rule\": \"" +
         JsonEscape(d.rule) + "\", \"message\": \"" + JsonEscape(d.message) +
         "\"}";
}

int Usage() {
  std::cerr
      << "usage: p3c_lint [--rules=r1,r2,...] [--json] FILE...\n"
      << "       p3c_lint --check-headers [--root=DIR] [--cxx=BIN] [--json] "
         "HEADER...\n"
      << "       p3c_lint --list-rules\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> files;
  std::vector<std::string> rules = p3c::lint::AllRules();
  std::string root = ".";
  std::string cxx = "c++";
  if (const char* env = std::getenv("CXX"); env != nullptr && *env != '\0') {
    cxx = env;
  }
  bool check_headers = false;
  bool json = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--check-headers") {
      check_headers = true;
    } else if (arg == "--json") {
      json = true;
    } else if (arg.rfind("--root=", 0) == 0) {
      root = arg.substr(7);
    } else if (arg.rfind("--cxx=", 0) == 0) {
      cxx = arg.substr(6);
    } else if (arg.rfind("--rules=", 0) == 0) {
      rules = SplitCommaList(arg.substr(8));
      for (const std::string& r : rules) {
        bool known = false;
        for (const std::string& k : p3c::lint::AllRules()) {
          if (k == r) known = true;
        }
        if (!known) {
          std::cerr << "p3c_lint: unknown rule '" << r << "'\n";
          return 2;
        }
      }
    } else if (arg == "--list-rules") {
      for (const std::string& r : p3c::lint::AllRules()) {
        std::cout << r << "\n";
      }
      return 0;
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "p3c_lint: unknown flag '" << arg << "'\n";
      return Usage();
    } else {
      files.push_back(arg);
    }
  }
  if (files.empty()) return Usage();

  if (check_headers) {
    int failures = 0;
    if (json) std::cout << "[";
    for (const std::string& header : files) {
      std::string output;
      if (!CheckHeaderSelfContained(root, header, cxx, &output)) {
        ++failures;
        if (json) {
          if (failures > 1) std::cout << ",";
          std::cout << "\n  "
                    << JsonRecord({header, 1, "p3c-header-self-contained",
                                   "header is not self-contained: " + output});
        } else {
          std::cout << header
                    << ":1: error: header is not self-contained "
                       "[p3c-header-self-contained]\n"
                    << output;
        }
      }
    }
    if (json) std::cout << (failures > 0 ? "\n]\n" : "]\n");
    std::cerr << "p3c_lint: " << files.size() << " header(s) checked, "
              << failures << " not self-contained\n";
    return failures == 0 ? 0 : 1;
  }

  std::vector<std::pair<std::string, std::string>> sources;
  for (const std::string& path : files) {
    std::string content;
    if (!ReadFile(path, &content)) {
      std::cerr << "p3c_lint: cannot read '" << path << "'\n";
      return 2;
    }
    sources.emplace_back(path, std::move(content));
  }

  size_t count = 0;
  if (json) std::cout << "[";
  for (const auto& [path, content] : sources) {
    for (const p3c::lint::Diagnostic& d :
         p3c::lint::LintSource(path, content, rules)) {
      if (json) {
        if (count > 0) std::cout << ",";
        std::cout << "\n  " << JsonRecord(d);
      } else {
        std::cout << p3c::lint::FormatDiagnostic(d) << "\n";
      }
      ++count;
    }
  }
  if (json) std::cout << (count > 0 ? "\n]\n" : "]\n");
  std::cerr << "p3c_lint: " << sources.size() << " file(s) checked, " << count
            << " diagnostic(s)\n";
  return count == 0 ? 0 : 1;
}
