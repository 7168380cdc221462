// Control-plane task/result codec tests, mirroring test_token_codec's
// discipline for the scheduler<->agent protocol: field-exact round trips for
// every frame type and action kind, strict rejection of malformed frames
// (magic, version, type, action kind, stage, non-finite doubles, length
// mismatches), and fuzz over truncated/mutated/random buffers. The invariant
// under fuzz: decode_task either throws std::invalid_argument or yields a
// frame whose re-encoding reproduces the input byte for byte — no silent
// garbage crosses the socket.
#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "hypervisor/task_codec.hpp"
#include "hypervisor/wire.hpp"
#include "util/rng.hpp"

namespace {

using score::hypervisor::decode_task;
using score::hypervisor::encode_task;
using score::hypervisor::task_frame_header_bytes;
using score::hypervisor::TaskAction;
using score::hypervisor::TaskActionKind;
using score::hypervisor::TaskFrame;
using score::util::Rng;

/// This process's peak virtual memory size (VmPeak in /proc/self/status).
std::size_t vm_peak_kib() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmPeak:") {
      std::size_t kib = 0;
      status >> kib;
      return kib;
    }
    status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  return 0;
}

TaskAction send_action() {
  TaskAction a;
  a.kind = TaskActionKind::kSend;
  a.msg_type = 3;
  a.src = 12;
  a.dst = 57;
  a.delay_s = 0.25;
  a.payload = {0xde, 0xad, 0xbe, 0xef};
  return a;
}

TaskAction hold_action() {
  TaskAction a;
  a.kind = TaskActionKind::kHold;
  a.migrated = true;
  a.epoch = 7;
  a.ring_pos = 159;
  a.aggregate_delta = -8.125e8;
  return a;
}

/// One of every action kind, every field exercised.
std::vector<TaskAction> all_actions() {
  std::vector<TaskAction> out;
  out.push_back(send_action());
  TaskAction timer;
  timer.kind = TaskActionKind::kArmTimer;
  timer.host = 33;
  timer.delay_s = 0.05;
  timer.nonce = 0xfeedface;
  timer.stage = 1;
  out.push_back(timer);
  out.push_back(hold_action());
  TaskAction mig;
  mig.kind = TaskActionKind::kMigration;
  mig.vm = 271;
  mig.target = 88;
  out.push_back(mig);
  TaskAction rej;
  rej.kind = TaskActionKind::kBudgetReject;
  rej.vm = 501;
  out.push_back(rej);
  TaskAction stop;
  stop.kind = TaskActionKind::kStopRun;
  out.push_back(stop);
  TaskAction retrans;
  retrans.kind = TaskActionKind::kProbeRetransmit;
  retrans.count = 9;
  out.push_back(retrans);
  TaskAction timeout;
  timeout.kind = TaskActionKind::kProbeTimeout;
  out.push_back(timeout);
  TaskAction leave;
  leave.kind = TaskActionKind::kHostLeave;
  leave.host = 14;
  out.push_back(leave);
  TaskAction join;
  join.kind = TaskActionKind::kHostJoin;
  join.host = 14;
  out.push_back(join);
  return out;
}

/// One representative frame of every type, every field exercised.
std::vector<TaskFrame> all_frames() {
  std::vector<TaskFrame> out;

  TaskFrame hello;
  hello.type = score::hypervisor::TaskType::kHello;
  hello.fingerprint = 0x0123456789abcdefULL;
  out.push_back(hello);

  TaskFrame resume_hello;
  resume_hello.type = score::hypervisor::TaskType::kHello;
  resume_hello.fingerprint = 0x0123456789abcdefULL;
  resume_hello.resuming = true;
  resume_hello.resume_pos = 421;
  resume_hello.agent_id = 3;
  out.push_back(resume_hello);

  TaskFrame init;
  init.type = score::hypervisor::TaskType::kInit;
  init.seq = 1;
  init.agent_id = 2;
  init.num_agents = 4;
  init.host_begin = 80;
  init.host_end = 120;
  init.fingerprint = 0xfedcba9876543210ULL;
  out.push_back(init);

  TaskFrame deliver;
  deliver.type = score::hypervisor::TaskType::kDeliver;
  deliver.seq = 17;
  deliver.time_s = 12.375;
  deliver.msg_type = 2;
  deliver.src = 5;
  deliver.dst = 93;
  deliver.payload = {1, 2, 3, 4, 5, 6, 7};
  out.push_back(deliver);

  TaskFrame timer;
  timer.type = score::hypervisor::TaskType::kTimer;
  timer.seq = 18;
  timer.time_s = 13.5;
  timer.host = 93;
  timer.nonce = 0xabad1dea;
  timer.stage = 1;
  out.push_back(timer);

  TaskFrame apply;
  apply.type = score::hypervisor::TaskType::kApply;
  apply.seq = 19;
  apply.time_s = 14.0;
  apply.actions = {hold_action()};
  out.push_back(apply);

  TaskFrame shutdown;
  shutdown.type = score::hypervisor::TaskType::kShutdown;
  shutdown.seq = 20;
  out.push_back(shutdown);

  TaskFrame result;
  result.type = score::hypervisor::TaskType::kResult;
  result.seq = 19;
  result.actions = all_actions();
  out.push_back(result);

  TaskFrame fin;
  fin.type = score::hypervisor::TaskType::kFinal;
  fin.seq = 21;
  fin.final_cost = 1.12886e9;
  fin.migrated_mb = 65024.0;
  fin.total_migrations = 254;
  fin.total_holds = 768;
  out.push_back(fin);

  TaskFrame adopt;
  adopt.type = score::hypervisor::TaskType::kAdopt;
  adopt.seq = 22;
  adopt.host_begin = 120;
  adopt.host_end = 160;
  out.push_back(adopt);

  return out;
}

TEST(TaskCodec, RoundTripPreservesEveryFrameType) {
  for (const TaskFrame& f : all_frames()) {
    const std::vector<std::uint8_t> buf = encode_task(f);
    ASSERT_GE(buf.size(), task_frame_header_bytes());
    const TaskFrame back = decode_task(buf);
    EXPECT_EQ(back, f) << "frame type " << static_cast<int>(f.type);
  }
}

TEST(TaskCodec, RoundTripPreservesEveryActionKind) {
  for (const TaskAction& a : all_actions()) {
    TaskFrame f;
    f.type = score::hypervisor::TaskType::kResult;
    f.seq = 42;
    f.actions = {a};
    const TaskFrame back = decode_task(encode_task(f));
    ASSERT_EQ(back.actions.size(), 1u);
    EXPECT_EQ(back.actions[0], a) << "action kind " << static_cast<int>(a.kind);
  }
}

TEST(TaskCodec, EncodeRejectsInvalidFrames) {
  TaskFrame bad_time;
  bad_time.type = score::hypervisor::TaskType::kDeliver;
  bad_time.time_s = std::numeric_limits<double>::infinity();
  EXPECT_THROW(encode_task(bad_time), std::invalid_argument);

  TaskFrame bad_stage;
  bad_stage.type = score::hypervisor::TaskType::kTimer;
  bad_stage.stage = 2;
  EXPECT_THROW(encode_task(bad_stage), std::invalid_argument);

  TaskFrame bad_cost;
  bad_cost.type = score::hypervisor::TaskType::kFinal;
  bad_cost.final_cost = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(encode_task(bad_cost), std::invalid_argument);

  TaskFrame bad_action;
  bad_action.type = score::hypervisor::TaskType::kResult;
  TaskAction nan_delta = hold_action();
  nan_delta.aggregate_delta = std::numeric_limits<double>::quiet_NaN();
  bad_action.actions = {nan_delta};
  EXPECT_THROW(encode_task(bad_action), std::invalid_argument);

  TaskFrame bad_timer_stage;
  bad_timer_stage.type = score::hypervisor::TaskType::kResult;
  TaskAction s2;
  s2.kind = TaskActionKind::kArmTimer;
  s2.stage = 2;
  bad_timer_stage.actions = {s2};
  EXPECT_THROW(encode_task(bad_timer_stage), std::invalid_argument);
}

TEST(TaskCodec, DecodeRejectsBadMagicVersionAndType) {
  std::vector<std::uint8_t> buf = encode_task(all_frames()[0]);

  std::vector<std::uint8_t> bad_magic = buf;
  bad_magic[0] = 'X';
  EXPECT_THROW(decode_task(bad_magic), std::invalid_argument);

  std::vector<std::uint8_t> bad_version = buf;
  bad_version[4] = 99;
  EXPECT_THROW(decode_task(bad_version), std::invalid_argument);

  std::vector<std::uint8_t> bad_type = buf;
  bad_type[5] = 0;
  EXPECT_THROW(decode_task(bad_type), std::invalid_argument);
  bad_type[5] = 10;
  EXPECT_THROW(decode_task(bad_type), std::invalid_argument);
}

TEST(TaskCodec, DecodeRejectsUnknownActionKind) {
  TaskFrame f;
  f.type = score::hypervisor::TaskType::kResult;
  f.actions = {hold_action()};
  std::vector<std::uint8_t> buf = encode_task(f);
  // Byte layout: header, u32 action count, then the first action's kind.
  const std::size_t kind_at = task_frame_header_bytes() + 4;
  buf[kind_at] = 0;
  EXPECT_THROW(decode_task(buf), std::invalid_argument);
  buf[kind_at] = 11;
  EXPECT_THROW(decode_task(buf), std::invalid_argument);
}

TEST(TaskCodec, DecodeRejectsLengthMismatch) {
  for (const TaskFrame& f : all_frames()) {
    std::vector<std::uint8_t> buf = encode_task(f);
    buf.push_back(0);  // trailing byte
    EXPECT_THROW(decode_task(buf), std::invalid_argument);
  }
  // Inflated action count claims more actions than the bytes hold.
  TaskFrame f;
  f.type = score::hypervisor::TaskType::kResult;
  f.actions = all_actions();
  std::vector<std::uint8_t> buf = encode_task(f);
  buf[task_frame_header_bytes()] =
      static_cast<std::uint8_t>(f.actions.size() + 1);
  EXPECT_THROW(decode_task(buf), std::invalid_argument);
  // Inflated payload length inside a kSend action.
  TaskFrame one;
  one.type = score::hypervisor::TaskType::kResult;
  one.actions = {send_action()};
  std::vector<std::uint8_t> sbuf = encode_task(one);
  // kind(1) + msg_type(1) + src(4) + dst(4) + delay(8) puts the payload
  // length u32 18 bytes into the action.
  const std::size_t len_at = task_frame_header_bytes() + 4 + 18;
  sbuf[len_at] = static_cast<std::uint8_t>(one.actions[0].payload.size() + 1);
  EXPECT_THROW(decode_task(sbuf), std::invalid_argument);
}

// A frame's action count used to be checked only against a 2^28 cap, and
// decode reserved that many actions before reading them: a few hostile
// bytes from an agent socket cost gigabytes of address space.
TEST(TaskCodec, InflatedActionCountIsRejectedBeforeAllocating) {
  TaskFrame f;
  f.type = score::hypervisor::TaskType::kResult;
  f.actions = {hold_action()};
  std::vector<std::uint8_t> buf = encode_task(f);
  score::hypervisor::wire::set_u32(buf, task_frame_header_bytes(),
                                   (1u << 28) - 1);
  const std::size_t peak_before = vm_peak_kib();
  ASSERT_GT(peak_before, 0u);
  EXPECT_THROW(decode_task(buf), std::invalid_argument);
  EXPECT_LT(vm_peak_kib() - peak_before, std::size_t{1} << 20);  // < 1 GiB
}

TEST(TaskCodec, DecodeRejectsInconsistentInit) {
  TaskFrame init;
  init.type = score::hypervisor::TaskType::kInit;
  init.agent_id = 1;
  init.num_agents = 4;
  init.host_begin = 10;
  init.host_end = 20;

  TaskFrame zero_agents = init;
  zero_agents.num_agents = 0;
  zero_agents.agent_id = 0;
  EXPECT_THROW(decode_task(encode_task(zero_agents)), std::invalid_argument);

  TaskFrame id_oob = init;
  id_oob.agent_id = 4;
  EXPECT_THROW(decode_task(encode_task(id_oob)), std::invalid_argument);

  TaskFrame inverted = init;
  inverted.host_begin = 20;
  inverted.host_end = 10;
  EXPECT_THROW(decode_task(encode_task(inverted)), std::invalid_argument);
}

TEST(TaskCodec, EveryTruncationThrows) {
  for (const TaskFrame& f : all_frames()) {
    const std::vector<std::uint8_t> buf = encode_task(f);
    for (std::size_t n = 0; n < buf.size(); ++n) {
      const std::vector<std::uint8_t> prefix(
          buf.begin(), buf.begin() + static_cast<long>(n));
      EXPECT_THROW(decode_task(prefix), std::invalid_argument)
          << "type " << static_cast<int>(f.type) << " prefix " << n;
    }
  }
}

TEST(TaskCodec, FuzzMutatedFramesNeverDecodeToGarbage) {
  const std::vector<TaskFrame> frames = all_frames();
  Rng rng(7);
  std::size_t accepted = 0;
  for (int iter = 0; iter < 4000; ++iter) {
    std::vector<std::uint8_t> buf =
        encode_task(frames[static_cast<std::size_t>(iter) % frames.size()]);
    const std::size_t at = rng.index(buf.size());
    buf[at] = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    try {
      const TaskFrame back = decode_task(buf);
      // Accepted mutations must be exact: re-encoding reproduces the buffer.
      EXPECT_EQ(encode_task(back), buf);
      ++accepted;
    } catch (const std::invalid_argument&) {
      // Strict rejection is the expected outcome for most mutations.
    }
  }
  // Mutations of free-form fields (seq, ids, payload bytes) must survive —
  // the codec is strict, not paranoid.
  EXPECT_GT(accepted, 100u);
}

TEST(TaskCodec, FuzzRandomBuffersNeverDecodeToGarbage) {
  Rng rng(11);
  for (int iter = 0; iter < 4000; ++iter) {
    std::vector<std::uint8_t> buf(rng.index(128));
    for (std::uint8_t& b : buf) {
      b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    if (iter % 2 == 0 && buf.size() >= 6) {
      // Give half the buffers a valid header so the body validators fuzz too.
      buf[0] = 'S';
      buf[1] = 'C';
      buf[2] = 'T';
      buf[3] = 'A';
      buf[4] = score::hypervisor::kTaskFrameVersion;
      buf[5] = static_cast<std::uint8_t>(rng.uniform_int(1, 8));
    }
    try {
      const TaskFrame back = decode_task(buf);
      EXPECT_EQ(encode_task(back), buf);
    } catch (const std::invalid_argument&) {
    }
  }
}

}  // namespace
