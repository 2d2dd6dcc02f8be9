//===- tests/CliTest.cpp - pgmpi end-to-end exit-code contract ------------===//
//
// Drives the built pgmpi binary (PGMPI_BIN, wired by tests/CMakeLists.txt)
// and pins the documented exit-code contract:
//   0  success
//   1  failure (evaluation error, guard trip, all parallel tasks failed)
//   2  degraded (corrupt profile ignored; or some — not all — parallel
//      tasks failed and the merged profile covers the survivors)
//   64 usage errors (sysexits EX_USAGE, distinguishable from "degraded")
// plus the resource-guard flags, the hidden --inject-fault harness, and
// the `report --alloc` site table.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <sys/wait.h>

using namespace pgmp::testutil;

namespace {

/// Runs `pgmpi <Args>` with output discarded; returns the exit code, or
/// -1 if the process did not exit normally (signal, spawn failure).
int pgmpi(const std::string &Args) {
  std::string Cmd = std::string(PGMPI_BIN) + " " + Args + " >/dev/null 2>&1";
  int Status = std::system(Cmd.c_str());
  if (Status == -1 || !WIFEXITED(Status))
    return -1;
  return WEXITSTATUS(Status);
}

/// Runs `pgmpi <Args>` with stderr discarded; returns the exit code as
/// pgmpi() does and stores stdout in \p Out.
int pgmpiOutput(const std::string &Args, std::string &Out) {
  std::string Cmd = std::string(PGMPI_BIN) + " " + Args + " 2>/dev/null";
  FILE *P = popen(Cmd.c_str(), "r");
  if (!P)
    return -1;
  Out.clear();
  char Buf[4096];
  for (size_t N; (N = std::fread(Buf, 1, sizeof(Buf), P)) > 0;)
    Out.append(Buf, N);
  int Status = pclose(P);
  if (Status == -1 || !WIFEXITED(Status))
    return -1;
  return WEXITSTATUS(Status);
}

/// Writes \p Text to a test-unique file and returns its path.
std::string writeScript(const std::string &Suffix, const std::string &Text) {
  std::string Path = tempPath(Suffix);
  std::ofstream Out(Path, std::ios::trunc);
  Out << Text;
  EXPECT_TRUE(Out.good()) << Path;
  return Path;
}

const char *Workload = "(define (hot n) (if (zero? n) 'done (hot (- n 1))))\n"
                       "(hot 50)\n";

TEST(Cli, SuccessExitsZero) {
  EXPECT_EQ(pgmpi("-e '(+ 1 2)'"), 0);
  std::string Script = writeScript("ok.scm", Workload);
  EXPECT_EQ(pgmpi(Script), 0);
}

TEST(Cli, EvaluationErrorExitsOne) {
  EXPECT_EQ(pgmpi("-e '(this-is-unbound)'"), 1);
}

TEST(Cli, UsageErrorsExitSixtyFour) {
  EXPECT_EQ(pgmpi(""), 64) << "no input at all";
  EXPECT_EQ(pgmpi("--no-such-flag -e '(+ 1 2)'"), 64);
  EXPECT_EQ(pgmpi("--fuel 0 -e '(+ 1 2)'"), 64) << "guards need positive N";
  EXPECT_EQ(pgmpi("--fuel banana -e '(+ 1 2)'"), 64);
  EXPECT_EQ(pgmpi("--inject-fault no-such-point -e '(+ 1 2)'"), 64);
  EXPECT_EQ(pgmpi("--tier sideways -e '(+ 1 2)'"), 64);
  std::string Script = writeScript("usage.scm", Workload);
  EXPECT_EQ(pgmpi("run --jobs 2 " + Script), 64) << "run needs --profile-out";
  EXPECT_EQ(pgmpi("run --jobs 0 --profile-out /tmp/x.profile " + Script), 64);
}

TEST(Cli, RemovedServeFlagsExitSixtyFour) {
  std::string Script = writeScript("serve.scm", Workload);
  std::string Trace = writeScript("trace.txt", "(hot 10)\n(hot 20)\n");
  std::string Serve = "serve --replay " + Trace + " --jobs 1 ";
  ASSERT_EQ(pgmpi(Serve + Script), 0) << "the control invocation must serve";
  EXPECT_EQ(pgmpi(Serve + "--interval-charges 256 " + Script), 64);
  EXPECT_EQ(pgmpi(Serve + "--decay-half-life 2 " + Script), 64);
  EXPECT_EQ(pgmpi(Serve + "--retier-threshold 0.5 " + Script), 64);
}

TEST(Cli, GuardTripExitsOne) {
  EXPECT_EQ(pgmpi("--fuel 100 -e '(define (sp n) (sp (+ n 1))) (sp 0)'"), 1);
  EXPECT_EQ(pgmpi("--deadline-ms 20 -e '(define (sp n) (sp (+ n 1))) (sp 0)'"),
            1);
  EXPECT_EQ(pgmpi("--max-depth 10 -e "
                  "'(define (sum n) (if (zero? n) 0 (+ n (sum (- n 1))))) "
                  "(sum 1000)'"),
            1);
  // Generous budgets stay out of the way.
  EXPECT_EQ(pgmpi("--fuel 1000000 --max-depth 10000 --deadline-ms 60000 "
                  "-e '(+ 1 2)'"),
            0);
}

TEST(Cli, InjectedFaultExitsOne) {
  EXPECT_EQ(pgmpi("--inject-fault compile -e '(+ 1 2)'"), 1);
  EXPECT_EQ(pgmpi("--inject-fault read -e '(+ 1 2)'"), 1);
  // A skip count beyond every hit means the fault never fires.
  EXPECT_EQ(pgmpi("--inject-fault compile:100 -e '(+ 1 2)'"), 0);
}

TEST(Cli, CorruptProfileInputDegradesToExitTwo) {
  std::string Script = writeScript("work.scm", Workload);
  std::string Garbage = writeScript("bad.profile", "not a profile at all\n");
  // Non-strict: the corrupt profile is ignored with a warning and the run
  // proceeds unoptimized — exit 2 so build scripts can notice.
  EXPECT_EQ(pgmpi("--profile-in " + Garbage + " " + Script), 2);
  // Strict mode promotes the same input to a hard failure.
  EXPECT_EQ(pgmpi("--strict-profile --profile-in " + Garbage + " " + Script),
            1);
}

TEST(Cli, RunJobsStoresMergedProfileAndExitsZero) {
  std::string Script = writeScript("par.scm", Workload);
  std::string Profile = tempPath("merged.profile");
  EXPECT_EQ(pgmpi("run --jobs 2 --profile-out " + Profile + " " + Script), 0);
  EXPECT_EQ(pgmpi("report " + Profile), 0);
  EXPECT_EQ(pgmpi("profile-lint " + Profile), 0);
}

TEST(Cli, RunAllTasksFailedExitsOne) {
  std::string Script = writeScript("bad.scm", "(this-is-unbound)\n");
  std::string Profile = tempPath("none.profile");
  EXPECT_EQ(pgmpi("run --jobs 2 --retries 0 --profile-out " + Profile + " " +
                  Script),
            1);
}

TEST(Cli, RunPartialFailureExitsTwoAndRetrySavesIt) {
  // The injector is one-shot process-wide, so under --jobs 2 exactly one
  // worker consumes the fault. With retries disabled that task is
  // abandoned: the merged profile covers the survivor — exit 2. With the
  // default retry policy the task re-runs on a fresh worker (the fault is
  // spent) and the run is whole — exit 0.
  std::string Script = writeScript("par.scm", Workload);
  std::string Profile = tempPath("partial.profile");
  EXPECT_EQ(pgmpi("run --jobs 2 --retries 0 --inject-fault compile "
                  "--profile-out " +
                  Profile + " " + Script),
            2);
  EXPECT_EQ(pgmpi("report " + Profile), 0) << "survivor profile is usable";
  EXPECT_EQ(pgmpi("run --jobs 2 --inject-fault compile --profile-out " +
                  Profile + " " + Script),
            0);
}

TEST(Cli, RunGuardFlagsGovernWorkers) {
  std::string Script = writeScript("spin.scm",
                                   "(define (sp n) (sp (+ n 1)))\n(sp 0)\n");
  std::string Profile = tempPath("guard.profile");
  // Every worker trips the fuel guard -> all tasks failed -> exit 1.
  EXPECT_EQ(pgmpi("run --jobs 2 --retries 0 --fuel 1000 --profile-out " +
                  Profile + " " + Script),
            1);
}

TEST(Cli, ReportAllocPrintsTheSiteTable) {
  // Half the list is kept in a global, so the frame and list sites both
  // allocate and the kept pairs survive the boundary collections.
  std::string Script = writeScript(
      "alloc.scm", "(define (build n acc)\n"
                   "  (if (= n 0) acc (build (- n 1) (cons n acc))))\n"
                   "(define keep (build 500 '()))\n"
                   "(length (build 1000 '()))\n");
  std::string Out;
  ASSERT_EQ(pgmpiOutput("report --alloc " + Script, Out), 0);
  std::istringstream Lines(Out);
  std::string Line;
  bool SawHeader = false;
  int Rows = 0;
  while (std::getline(Lines, Line)) {
    std::istringstream Fields(Line);
    std::string Site;
    if (!SawHeader) {
      std::string Objects, Bytes, Survived;
      Fields >> Site >> Objects >> Bytes >> Survived;
      SawHeader = Site == "site" && Objects == "objects" &&
                  Bytes == "bytes" && Survived == "survived";
      continue;
    }
    uint64_t Objects = 0, Bytes = 0, Survived = 0;
    ASSERT_TRUE(Fields >> Site >> Objects >> Bytes >> Survived) << Line;
    EXPECT_GT(Objects, 0u) << Line;
    EXPECT_LE(Survived, Objects) << Line;
    ++Rows;
  }
  EXPECT_TRUE(SawHeader) << Out;
  EXPECT_GT(Rows, 0) << Out;
}

} // namespace
