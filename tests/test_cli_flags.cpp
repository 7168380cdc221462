// score_cli flag hygiene: unknown flags and mode-incompatible combinations
// must exit non-zero with a ONE-LINE diagnostic on stderr (no help-text
// dump), and the diagnostic must name the offending flag. Runs the real
// binary (injected by CMake as SCORE_CLI_BIN) through popen.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

namespace {

struct CliResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr interleaved
};

CliResult run_cli(const std::string& args) {
  const std::string cmd = std::string(SCORE_CLI_BIN) + " " + args + " 2>&1";
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
  // Sharded ingest is a streaming-mode knob.
  expect_one_line_rejection("--ingest-shards 4", "--ingest-shards");
}

TEST(CliFlags, NegativeCountsAreRejected) {
  // A negative count used to wrap to 2^64-1: --ticks -1 never terminated
  // and --ingest-shards -1 silently ran one shard per VM.
  expect_one_line_rejection(
      "--mode streaming --vms 16 --ticks 2 --batch-size 8 --ingest-shards -1",
      "--ingest-shards");
  expect_one_line_rejection(
      "--mode streaming --vms 16 --ticks -1 --batch-size 8", "--ticks");
  expect_one_line_rejection("--vms 16 --iterations 1 --tokens -1", "--tokens");
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

  const CliResult sharded =
      run_cli("--mode streaming --vms 16 --ticks 2 --batch-size 8 "
              "--tokens 2 --ingest-shards 2");
  EXPECT_EQ(sharded.exit_code, 0) << sharded.output;
}

}  // namespace
