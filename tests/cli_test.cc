// Tests of p3c_cli's flag validation: a flag the command does not read
// is a usage error (exit 2) naming the flag, never silently ignored.

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <string>

namespace {

#ifdef P3C_CLI_BIN

struct CliRun {
  int exit_code = -1;
  std::string stderr_text;
};

/// Runs p3c_cli with `args`, capturing stderr (stdout is discarded).
CliRun RunCli(const std::string& args) {
  CliRun run;
  FILE* pipe = popen((std::string(P3C_CLI_BIN) + " " + args +
                      " 2>&1 > /dev/null")
                         .c_str(),
                     "r");
  if (pipe == nullptr) return run;
  char buf[4096];
  size_t got = 0;
  while ((got = fread(buf, 1, sizeof(buf), pipe)) > 0) {
    run.stderr_text.append(buf, got);
  }
  run.exit_code = WEXITSTATUS(pclose(pipe));
  return run;
}

TEST(CliFlagsTest, UnknownFlagIsAUsageErrorNamingIt) {
  const CliRun removed =
      RunCli("cluster --in /no/such/points.csv --algo mr --speculative");
  EXPECT_EQ(removed.exit_code, 2);
  EXPECT_NE(removed.stderr_text.find("--speculative"), std::string::npos)
      << removed.stderr_text;

  // A typo of a real flag must not run with the default.
  const CliRun typo =
      RunCli("cluster --in /no/such/points.csv --algo mr --task-dealine 5");
  EXPECT_EQ(typo.exit_code, 2);
  EXPECT_NE(typo.stderr_text.find("--task-dealine"), std::string::npos)
      << typo.stderr_text;

  // A flag of another command is unknown here too.
  const CliRun other = RunCli("info --in /no/such/points.csv --points 5");
  EXPECT_EQ(other.exit_code, 2);
  EXPECT_NE(other.stderr_text.find("--points"), std::string::npos)
      << other.stderr_text;
}

TEST(CliFlagsTest, EveryCommandRejectsAFlagItDoesNotRead) {
  // Each command has its own flag table: a flag another command reads
  // is unknown here, and the message names both flag and command.
  struct Case {
    const char* args;
    const char* flag;
    const char* command;
  };
  for (const Case& c : {
           Case{"generate --out /no/such/dir/p.csv --algo mr", "--algo",
                "'generate'"},
           Case{"cluster --in /no/such/p.csv --labels /no/such/l.csv",
                "--labels", "'cluster'"},
           Case{"evaluate --assignments /no/a.csv --labels /no/l.csv "
                "--in /no/p.csv",
                "--in", "'evaluate'"},
           Case{"evaluate-subspace --found /no/f.txt --truth /no/t.txt "
                "--assignments /no/a.csv",
                "--assignments", "'evaluate-subspace'"},
           Case{"info --in /no/such/p.csv --threads 4", "--threads",
                "'info'"},
       }) {
    const CliRun run = RunCli(c.args);
    EXPECT_EQ(run.exit_code, 2) << c.args << "\n" << run.stderr_text;
    EXPECT_NE(run.stderr_text.find(c.flag), std::string::npos)
        << c.args << "\n" << run.stderr_text;
    EXPECT_NE(run.stderr_text.find(c.command), std::string::npos)
        << c.args << "\n" << run.stderr_text;
  }
}

TEST(CliFlagsTest, GlobalFlagsAreAcceptedByEveryCommand) {
  // --log-level, --track-memory and --trace-out are read by main, not
  // by a command, so every command must let them through; the runs
  // then fail on the missing input (exit 1).
  for (const char* args : {
           "generate --out /no/such/dir/p.csv --points 40 --dims 3",
           "cluster --in /no/such/p.csv --algo light",
           "evaluate --assignments /no/such/a.csv --labels /no/such/l.csv",
           "evaluate-subspace --found /no/such/f.txt --truth /no/such/t.txt",
           "info --in /no/such/p.csv",
       }) {
    const std::string line = std::string(args) +
                             " --log-level=error --track-memory"
                             " --trace-out /no/such/dir/trace.json";
    const CliRun run = RunCli(line);
    EXPECT_EQ(run.exit_code, 1) << line << "\n" << run.stderr_text;
    EXPECT_EQ(run.stderr_text.find("unknown flag"), std::string::npos)
        << line << "\n" << run.stderr_text;
  }
}

TEST(CliFlagsTest, KnownFlagsPassValidation) {
  // The command lines of CI's kill-resume-smoke job, pointed at a
  // missing path: validation passes and the run fails on the I/O
  // (exit 1), not on a flag (exit 2).
  for (const char* args : {
           "generate --out /no/such/dir/points.csv --points 40 --dims 3 "
           "--clusters 3 --noise 0.1 --seed 7",
           "cluster --in /no/such/points.csv --algo mr --out /tmp/a.csv "
           "--clusters-out /tmp/c.txt",
           "cluster --in /no/such/points.csv --algo mr --checkpoint-dir "
           "/tmp/ckpt --crash-after-phase cluster-cores --out /tmp/a.csv "
           "--clusters-out /tmp/c.txt",
           "cluster --in /no/such/points.csv --algo mr --checkpoint-dir "
           "/tmp/ckpt --backend=process --num-workers 2 --log-level=info "
           "--out /tmp/a.csv --clusters-out /tmp/c.txt",
           "cluster --in /no/such/points.csv --algo mr --threads 4 "
           "--task-deadline 60 --out /tmp/a.csv --clusters-out /tmp/c.txt",
           "info --in /no/such/points.csv --log-level=error",
       }) {
    const CliRun run = RunCli(args);
    EXPECT_EQ(run.exit_code, 1) << args << "\n" << run.stderr_text;
    EXPECT_EQ(run.stderr_text.find("unknown flag"), std::string::npos)
        << args << "\n" << run.stderr_text;
  }
}

/// The bytes of the file at `path`, or "" when it cannot be read.
std::string Slurp(const std::string& path) {
  std::string bytes;
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return bytes;
  char buf[4096];
  size_t got = 0;
  while ((got = fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, got);
  std::fclose(f);
  return bytes;
}

TEST(CliFileInputTest, MrLightOnAContainerWritesTheLoadedRunsFiles) {
  // mr-light reads a .p3cd input through the file; the same points as
  // CSV are loaded. Both runs must write the same assignments and
  // clusters.
  const std::string dir = ::testing::TempDir();
  const std::string gen = " --points 3000 --dims 20 --clusters 3 --seed 9";
  ASSERT_EQ(RunCli("generate --binary --out " + dir + "/cli_in.p3cd" + gen)
                .exit_code,
            0);
  ASSERT_EQ(RunCli("generate --out " + dir + "/cli_in.csv" + gen).exit_code,
            0);
  for (const char* input : {"p3cd", "csv"}) {
    const CliRun run = RunCli(
        "cluster --algo mr-light --in " + dir + "/cli_in." + input +
        " --out " + dir + "/cli_assign_" + input + ".csv --clusters-out " +
        dir + "/cli_clusters_" + input + ".txt");
    ASSERT_EQ(run.exit_code, 0) << input << "\n" << run.stderr_text;
  }
  const std::string assign = Slurp(dir + "/cli_assign_p3cd.csv");
  const std::string clusters = Slurp(dir + "/cli_clusters_p3cd.txt");
  ASSERT_FALSE(assign.empty());
  ASSERT_FALSE(clusters.empty());
  EXPECT_EQ(assign, Slurp(dir + "/cli_assign_csv.csv"));
  EXPECT_EQ(clusters, Slurp(dir + "/cli_clusters_csv.txt"));

  const CliRun missing =
      RunCli("cluster --algo mr-light --in " + dir + "/cli_missing.p3cd");
  EXPECT_EQ(missing.exit_code, 1) << missing.stderr_text;
  for (const char* name :
       {"cli_in.p3cd", "cli_in.csv", "cli_assign_p3cd.csv",
        "cli_assign_csv.csv", "cli_clusters_p3cd.txt",
        "cli_clusters_csv.txt"}) {
    std::remove((dir + "/" + name).c_str());
  }
}

#endif  // P3C_CLI_BIN

}  // namespace
