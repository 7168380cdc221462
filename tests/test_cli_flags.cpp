// score_cli flag hygiene: unknown flags and mode-incompatible combinations
// must exit non-zero with a ONE-LINE diagnostic on stderr (no help-text
// dump), and the diagnostic must name the offending flag. Runs the real
// binaries (injected by CMake as SCORE_CLI_BIN and SCORE_SCHEDULER_BIN)
// through popen.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

namespace {

struct CliResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr interleaved
};

CliResult run_tool(const std::string& bin, const std::string& args) {
  const std::string cmd = bin + " " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  CliResult r;
  char buf[512];
  while (pipe && std::fgets(buf, sizeof buf, pipe) != nullptr) r.output += buf;
  if (pipe) {
    const int status = pclose(pipe);
    r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }
  return r;
}

CliResult run_cli(const std::string& args) {
  return run_tool(SCORE_CLI_BIN, args);
}

std::size_t line_count(const std::string& s) {
  std::size_t n = 0;
  for (char c : s) {
    if (c == '\n') ++n;
  }
  return n;
}

void expect_one_line_rejection(const std::string& args,
                               const std::string& must_mention) {
  const CliResult r = run_cli(args);
  EXPECT_EQ(r.exit_code, 2) << args << "\n" << r.output;
  EXPECT_EQ(line_count(r.output), 1u)
      << args << " should print exactly one diagnostic line, got:\n"
      << r.output;
  EXPECT_NE(r.output.find("score_cli:"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find(must_mention), std::string::npos)
      << args << " diagnostic should mention " << must_mention << ":\n"
      << r.output;
}

TEST(CliFlags, UnknownFlagIsOneLineError) {
  expect_one_line_rejection("--definitely-not-a-flag", "definitely-not-a-flag");
  expect_one_line_rejection("--vms 32 --frobnicate 7", "frobnicate");
}

TEST(CliFlags, PositionalArgumentIsOneLineError) {
  expect_one_line_rejection("extra-arg", "extra-arg");
}

TEST(CliFlags, BadFlagValueIsOneLineError) {
  expect_one_line_rejection("--vms banana", "vms");
  expect_one_line_rejection("--mode sideways", "mode");
}

TEST(CliFlags, ModeIncompatibleCombosAreRejected) {
  // Fault injection / budget / tracing exist on the message-passing runtime
  // only.
  expect_one_line_rejection("--mode centralized --loss 0.05", "--loss");
  expect_one_line_rejection("--mode centralized --budget-mb 64", "--budget-mb");
  expect_one_line_rejection("--mode centralized --trace", "--trace");
  // Multi-token sharding is the centralized/continuous optimiser's feature.
  expect_one_line_rejection("--mode distributed --tokens 2", "--tokens");
  expect_one_line_rejection("--mode distributed --threads 2", "--threads");
  // The GA normaliser only applies to the centralized one-shot run.
  expect_one_line_rejection("--mode distributed --ga", "--ga");
  // Lifecycle knobs need the continuous engine.
  expect_one_line_rejection("--epochs 4", "--epochs");
  expect_one_line_rejection("--arrival-prob 0.5", "--arrival-prob");
  expect_one_line_rejection("--mode distributed --tenant-vms 8",
                            "--tenant-vms");
  // Ingest knobs need the streaming engine.
  expect_one_line_rejection("--ticks 4", "--ticks");
}

TEST(CliFlags, NegativeCountsAreRejected) {
  // A negative count used to wrap to 2^64-1: --ticks -1 never terminated.
  expect_one_line_rejection(
      "--mode streaming --vms 16 --ticks -1 --batch-size 8", "--ticks");
  expect_one_line_rejection("--vms 16 --iterations 1 --tokens -1", "--tokens");
}

TEST(CliFlags, ZeroIterationsIsRejectedInEveryMode) {
  // A zero round budget used to run one round in the single-token and
  // distributed drivers and none with --tokens 2 or in the engines.
  for (const char* args :
       {"--vms 64 --iterations 0", "--vms 64 --iterations 0 --tokens 2",
        "--mode distributed --vms 64 --iterations 0",
        "--mode continuous --vms 64 --epochs 2 --iterations 0",
        "--mode streaming --vms 64 --ticks 2 --batch-size 8 --iterations 0"}) {
    expect_one_line_rejection(args, "iterations");
  }
}

TEST(CliFlags, NanDriftThresholdIsRejected) {
  // `drift > NaN` never holds: a NaN threshold used to run with zero
  // re-optimisations and exit 0.
  expect_one_line_rejection(
      "--mode streaming --vms 16 --ticks 2 --batch-size 8 "
      "--drift-threshold nan",
      "drift threshold");
}

TEST(CliFlags, MigrationCostThatBreaksTheorem1IsRejected) {
  // A NaN c_m used to report "0% reduction, 0 migrations" and exit 0; a
  // negative one committed moves that raised the cost.
  expect_one_line_rejection("--topology fattree --k 4 --vms 32 --cm nan",
                            "migration_cost");
  expect_one_line_rejection("--topology fattree --k 4 --vms 32 --cm -1",
                            "migration_cost");
  expect_one_line_rejection(
      "--mode streaming --vms 16 --ticks 2 --batch-size 8 --cm nan",
      "migration_cost");
}

// Every --policy name but rr and hlf used to run Highest-Level-First in
// the distributed runtime, and the Round-Robin multi-token walk ignored
// --policy altogether; both exited 0.
TEST(CliFlags, PolicyIsRunOrRejected) {
  const std::string world = "--topology fattree --k 4 --vms 32 --iterations 1";
  for (const char* name : {"bogus", "random", "htf"}) {
    expect_one_line_rejection(
        "--mode distributed " + world + " --policy " + name, "policy");
    expect_one_line_rejection(
        "--mode continuous " + world + " --epochs 1 --loss 0.01 --policy " +
            name,
        "policy");
  }
  for (const char* walk :
       {"--mode streaming --ticks 2 --batch-size 8", "--tokens 2",
        "--mode continuous --epochs 1"}) {
    expect_one_line_rejection(std::string(walk) + " " + world + " --policy rr",
                              "--policy");
  }
  for (const char* name : {"rr", "round-robin", "hlf", "highest-level-first"}) {
    const CliResult r =
        run_cli("--mode distributed " + world + " --policy " + name);
    EXPECT_EQ(r.exit_code, 0) << name << "\n" << r.output;
  }
  for (const char* name : {"rr", "hlf", "random", "htf"}) {
    const CliResult r = run_cli(world + " --policy " + name);
    EXPECT_EQ(r.exit_code, 0) << name << "\n" << r.output;
  }
  // The scheduler refuses before it listens: `timeout` exits 124 if it
  // waits for an agent instead.
  const CliResult scheduler = run_tool(
      "timeout 10 " + std::string(SCORE_SCHEDULER_BIN),
      "--agents 1 " + world + " --policy bogus");
  EXPECT_EQ(scheduler.exit_code, 2) << scheduler.output;
  EXPECT_NE(scheduler.output.find("policy"), std::string::npos)
      << scheduler.output;
}

// Continuous mode with a nonzero --loss or --budget-mb re-optimises every
// epoch through the distributed runtime, which has one token and no worker
// threads: --tokens and --threads used to be ignored there, exiting 0.
TEST(CliFlags, WalkFlagsAreRejectedWhenTheRuntimeRuns) {
  const std::string world =
      "--mode continuous --topology fattree --k 4 --vms 32 --epochs 2";
  for (const char* runtime : {"--loss 0.01", "--budget-mb 64"}) {
    expect_one_line_rejection(world + " " + runtime + " --tokens 4",
                              "--tokens");
    expect_one_line_rejection(world + " " + runtime + " --threads 2",
                              "--threads");
  }
  // A zero loss and budget keep the multi-token walk, which reads both.
  const CliResult r =
      run_cli(world + " --loss 0 --budget-mb 0 --tokens 4 --threads 2");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("(centralized)"), std::string::npos) << r.output;
}

// A negative or NaN --budget-mb used to run with no budget. In continuous
// mode a negative or NaN --loss, or a NaN --budget-mb, silently ran the
// centralized optimiser instead of the runtime that rejects it.
TEST(CliFlags, BadLossAndBudgetAreRejected) {
  const std::string world = "--topology fattree --k 4 --vms 32 --iterations 1";
  for (const std::string mode :
       {"--mode distributed", "--mode continuous --epochs 1"}) {
    const std::string args = mode + " " + world;
    expect_one_line_rejection(args + " --budget-mb -5", "migration_budget_mb");
    expect_one_line_rejection(args + " --budget-mb nan", "migration_budget_mb");
    expect_one_line_rejection(args + " --loss -0.1", "message_loss_rate");
    expect_one_line_rejection(args + " --loss nan", "message_loss_rate");
  }
  // A zero loss still runs the centralized optimiser.
  const CliResult r =
      run_cli("--mode continuous --epochs 1 " + world + " --loss 0");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("(centralized)"), std::string::npos) << r.output;
}

TEST(CliFlags, ValidCombosStillRun) {
  const CliResult centralized = run_cli("--vms 16 --iterations 1");
  EXPECT_EQ(centralized.exit_code, 0) << centralized.output;

  const CliResult distributed =
      run_cli("--mode distributed --vms 16 --iterations 1 --loss 0.0");
  EXPECT_EQ(distributed.exit_code, 0) << distributed.output;

  // Defaults never conflict: an unset --tokens must not trip the
  // distributed-mode check.
  const CliResult defaults =
      run_cli("--mode distributed --vms 16 --iterations 1");
  EXPECT_EQ(defaults.exit_code, 0) << defaults.output;

  const CliResult streaming =
      run_cli("--mode streaming --vms 16 --ticks 2 --batch-size 8 --tokens 2");
  EXPECT_EQ(streaming.exit_code, 0) << streaming.output;
}

}  // namespace
