// Wire-codec fuzzing: the strict decoders (task_codec, token_codec) must
// REJECT malformed input — with std::invalid_argument — never crash, hang,
// over-allocate or decode to garbage. An adversarial transport means frames
// can arrive truncated, bit-flipped, duplicated or concatenated even though
// the ReliableLink filters most of it; decode is the last line of defence.
//
// Suite is labelled smoke so the ASan/UBSan CI job walks every rejection
// path under sanitizers.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <stdexcept>
#include <vector>

#include "hypervisor/task_codec.hpp"
#include "hypervisor/token_codec.hpp"

namespace {

using namespace score;
using hypervisor::TaskAction;
using hypervisor::TaskActionKind;
using hypervisor::TaskFrame;
using hypervisor::TaskType;

// Decode must either succeed or throw std::invalid_argument; anything else
// (bad_alloc from a hostile length field, out_of_range, a signal under
// ASan) fails the test.
template <typename Decode>
void expect_rejects_or_decodes(const std::vector<std::uint8_t>& buf,
                               Decode decode) {
  try {
    decode(buf);
  } catch (const std::invalid_argument&) {
    // rejected: fine
  }
}

template <typename Decode>
void expect_rejects(const std::vector<std::uint8_t>& buf, Decode decode) {
  EXPECT_THROW(decode(buf), std::invalid_argument);
}

// TokenFrame validates with decode_token's reject list: the two must agree
// on every buffer, and an accepted frame keeps the input bytes verbatim.
void expect_frame_agrees(const std::vector<std::uint8_t>& buf) {
  bool decoded = true;
  try {
    hypervisor::decode_token(buf);
  } catch (const std::invalid_argument&) {
    decoded = false;
  }
  if (decoded) {
    EXPECT_EQ(hypervisor::TokenFrame(buf).bytes(), buf);
  } else {
    EXPECT_THROW(hypervisor::TokenFrame{buf}, std::invalid_argument);
  }
}

// A corpus of valid task frames covering every type and action kind, so the
// mutators start from deep inside the accepted grammar.
std::vector<TaskFrame> task_corpus() {
  std::vector<TaskFrame> out;

  TaskFrame hello;
  hello.type = TaskType::kHello;
  hello.fingerprint = 0x1234abcd5678ef90ull;
  hello.resuming = true;
  hello.resume_pos = 42;
  hello.agent_id = 3;
  out.push_back(hello);

  TaskFrame init;
  init.type = TaskType::kInit;
  init.seq = 1;
  init.fingerprint = 7;
  init.agent_id = 2;
  init.num_agents = 4;
  init.host_begin = 32;
  init.host_end = 64;
  out.push_back(init);

  TaskFrame adopt;
  adopt.type = TaskType::kAdopt;
  adopt.seq = 9;
  adopt.host_begin = 96;
  adopt.host_end = 128;
  out.push_back(adopt);

  TaskFrame deliver;
  deliver.type = TaskType::kDeliver;
  deliver.seq = 11;
  deliver.time_s = 1.5;
  deliver.msg_type = 1;
  deliver.src = 5;
  deliver.dst = 6;
  deliver.payload = {0xde, 0xad, 0xbe, 0xef, 0x00, 0x01};
  out.push_back(deliver);

  TaskFrame timer;
  timer.type = TaskType::kTimer;
  timer.seq = 12;
  timer.time_s = 2.25;
  timer.host = 17;
  timer.nonce = 0xfeed;
  timer.stage = 1;
  out.push_back(timer);

  TaskFrame result;
  result.type = TaskType::kResult;
  result.seq = 12;
  {
    TaskAction send;
    send.kind = TaskActionKind::kSend;
    send.msg_type = 2;
    send.src = 1;
    send.dst = 9;
    send.delay_s = 0.125;
    send.payload = {1, 2, 3};
    result.actions.push_back(send);
    TaskAction arm;
    arm.kind = TaskActionKind::kArmTimer;
    arm.host = 9;
    arm.nonce = 77;
    arm.stage = 0;
    arm.delay_s = 0.5;
    result.actions.push_back(arm);
    TaskAction hold;
    hold.kind = TaskActionKind::kHold;
    hold.migrated = true;
    hold.epoch = 3;
    hold.ring_pos = 8;
    hold.aggregate_delta = -123.5;
    result.actions.push_back(hold);
    TaskAction mig;
    mig.kind = TaskActionKind::kMigration;
    mig.vm = 40;
    mig.target = 12;
    result.actions.push_back(mig);
    TaskAction rej;
    rej.kind = TaskActionKind::kBudgetReject;
    rej.vm = 41;  // only the vm travels; the rejected target stays local
    result.actions.push_back(rej);
    TaskAction stop;
    stop.kind = TaskActionKind::kStopRun;
    result.actions.push_back(stop);
    TaskAction retx;
    retx.kind = TaskActionKind::kProbeRetransmit;
    retx.count = 6;
    result.actions.push_back(retx);
    TaskAction tmo;
    tmo.kind = TaskActionKind::kProbeTimeout;
    result.actions.push_back(tmo);
  }
  out.push_back(result);

  TaskFrame apply;
  apply.type = TaskType::kApply;
  apply.seq = 13;
  apply.time_s = 3.5;
  {
    TaskAction leave;
    leave.kind = TaskActionKind::kHostLeave;
    leave.host = 30;
    apply.actions.push_back(leave);
    TaskAction join;
    join.kind = TaskActionKind::kHostJoin;
    join.host = 30;
    apply.actions.push_back(join);
  }
  out.push_back(apply);

  TaskFrame shutdown;
  shutdown.type = TaskType::kShutdown;
  shutdown.seq = 14;
  out.push_back(shutdown);

  TaskFrame fin;
  fin.type = TaskType::kFinal;
  fin.seq = 14;
  fin.final_cost = 1.17e8;
  fin.migrated_mb = 2048.0;
  fin.total_migrations = 96;
  fin.total_holds = 192;
  out.push_back(fin);

  return out;
}

std::vector<std::vector<std::uint8_t>> token_corpus() {
  std::vector<std::vector<std::uint8_t>> out;
  hypervisor::Token rr;
  rr.holder = 9;
  rr.entries = {{1, 0, false}, {5, 0, false}, {9, 0, true},
                {200, 0, false}, {4000000000u, 0, false}};
  out.push_back(hypervisor::encode_token(rr));
  hypervisor::Token hlf;
  hlf.holder = 70;
  hlf.policy = hypervisor::TokenPolicyId::kHighestLevelFirst;
  hlf.entries = {{1, 0, false}, {2, 3, false}, {70, 127, true},
                 {4096, 64, false}};
  out.push_back(hypervisor::encode_token(hlf));
  hypervisor::Token tok;
  tok.epoch = 12;
  tok.ring_pos = 80;
  tok.aggregate_delta = -5.5e6;
  tok.holder = 33;
  tok.policy = hypervisor::TokenPolicyId::kHighestLevelFirst;
  tok.entries = {{7, 2, false}, {33, 0, true}, {90, 127, true}};
  out.push_back(hypervisor::encode_token(tok));
  return out;
}

// ---- truncation: every proper prefix must be rejected ----------------------

TEST(CodecFuzz, TaskFrameEveryPrefixRejected) {
  for (const TaskFrame& f : task_corpus()) {
    const std::vector<std::uint8_t> wire = hypervisor::encode_task(f);
    for (std::size_t n = 0; n < wire.size(); ++n) {
      const std::vector<std::uint8_t> prefix(wire.begin(),
                                             wire.begin() + static_cast<long>(n));
      expect_rejects(prefix, hypervisor::decode_task);
    }
  }
}

TEST(CodecFuzz, TokenEveryPrefixRejected) {
  for (const std::vector<std::uint8_t>& wire : token_corpus()) {
    for (std::size_t n = 0; n < wire.size(); ++n) {
      const std::vector<std::uint8_t> prefix(wire.begin(),
                                             wire.begin() + static_cast<long>(n));
      expect_rejects(prefix, hypervisor::decode_token);
      expect_frame_agrees(prefix);
    }
  }
}

TEST(CodecFuzz, FramedTokenPrefixRejected) {
  hypervisor::Token tok;
  tok.holder = 4;
  tok.entries = {{4, 1, false}, {8, 2, true}};
  const std::vector<std::uint8_t> wire = hypervisor::encode_token(tok);
  for (std::size_t n = 0; n < wire.size(); ++n) {
    const std::vector<std::uint8_t> prefix(wire.begin(),
                                           wire.begin() + static_cast<long>(n));
    expect_rejects(prefix, hypervisor::decode_token);
    EXPECT_THROW(hypervisor::TokenFrame{prefix}, std::invalid_argument);
  }
}

// ---- single-bit corruption -------------------------------------------------

TEST(CodecFuzz, TaskFrameEveryBitFlipSafe) {
  for (const TaskFrame& f : task_corpus()) {
    const std::vector<std::uint8_t> wire = hypervisor::encode_task(f);
    for (std::size_t byte = 0; byte < wire.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        std::vector<std::uint8_t> mut = wire;
        mut[byte] = static_cast<std::uint8_t>(mut[byte] ^ (1u << bit));
        expect_rejects_or_decodes(mut, hypervisor::decode_task);
      }
    }
  }
}

TEST(CodecFuzz, TokenEveryBitFlipSafe) {
  for (const std::vector<std::uint8_t>& wire : token_corpus()) {
    for (std::size_t byte = 0; byte < wire.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        std::vector<std::uint8_t> mut = wire;
        mut[byte] = static_cast<std::uint8_t>(mut[byte] ^ (1u << bit));
        expect_rejects_or_decodes(mut, hypervisor::decode_token);
        expect_frame_agrees(mut);
      }
    }
  }
}

// ---- duplication / concatenation -------------------------------------------

TEST(CodecFuzz, ConcatenatedTaskFramesRejected) {
  // Frames are self-delimiting with an exact-total-length check: two valid
  // frames glued together are NOT a valid frame.
  const std::vector<TaskFrame> corpus = task_corpus();
  for (const TaskFrame& a : corpus) {
    for (const TaskFrame& b : corpus) {
      std::vector<std::uint8_t> wire = hypervisor::encode_task(a);
      const std::vector<std::uint8_t> tail = hypervisor::encode_task(b);
      wire.insert(wire.end(), tail.begin(), tail.end());
      expect_rejects(wire, hypervisor::decode_task);
    }
  }
}

TEST(CodecFuzz, ConcatenatedFramedTokensRejected) {
  hypervisor::Token tok;
  tok.holder = 1;
  tok.entries = {{1, 0, false}};
  std::vector<std::uint8_t> wire = hypervisor::encode_token(tok);
  const std::vector<std::uint8_t> tail = wire;
  wire.insert(wire.end(), tail.begin(), tail.end());
  expect_rejects(wire, hypervisor::decode_token);
}

// ---- seeded random mutation ------------------------------------------------

TEST(CodecFuzz, RandomMutationsNeverCrash) {
  std::mt19937_64 rng(0x5c0'ef0'2215ull);
  const std::vector<TaskFrame> corpus = task_corpus();
  const std::vector<std::vector<std::uint8_t>> tokens = token_corpus();

  for (int iter = 0; iter < 20000; ++iter) {
    std::vector<std::uint8_t> wire;
    if (iter % 2 == 0) {
      wire = hypervisor::encode_task(corpus[rng() % corpus.size()]);
    } else {
      wire = tokens[rng() % tokens.size()];
    }
    // 1..8 byte-level mutations: overwrite, splice-out, or append garbage.
    const int edits = 1 + static_cast<int>(rng() % 8);
    for (int e = 0; e < edits && !wire.empty(); ++e) {
      switch (rng() % 3) {
        case 0:
          wire[rng() % wire.size()] = static_cast<std::uint8_t>(rng());
          break;
        case 1: {
          const std::size_t at = rng() % wire.size();
          const std::size_t len = 1 + rng() % 16;
          wire.erase(wire.begin() + static_cast<long>(at),
                     wire.begin() +
                         static_cast<long>(std::min(at + len, wire.size())));
          break;
        }
        default: {
          const std::size_t len = 1 + rng() % 16;
          for (std::size_t i = 0; i < len; ++i) {
            wire.push_back(static_cast<std::uint8_t>(rng()));
          }
          break;
        }
      }
    }
    expect_rejects_or_decodes(wire, hypervisor::decode_task);
    expect_rejects_or_decodes(wire, hypervisor::decode_token);
  }
}

TEST(CodecFuzz, RandomGarbageNeverCrashes) {
  std::mt19937_64 rng(0xdead'beef'cafeull);
  for (int iter = 0; iter < 20000; ++iter) {
    std::vector<std::uint8_t> wire(rng() % 256);
    for (std::uint8_t& b : wire) b = static_cast<std::uint8_t>(rng());
    expect_rejects_or_decodes(wire, hypervisor::decode_task);
    expect_rejects_or_decodes(wire, hypervisor::decode_token);
  }
}

// A round-trip sanity anchor: the corpus frames themselves decode back
// bit-exactly, so the fuzz above starts from genuinely valid input.
TEST(CodecFuzz, CorpusRoundTrips) {
  for (const TaskFrame& f : task_corpus()) {
    EXPECT_EQ(hypervisor::decode_task(hypervisor::encode_task(f)), f);
  }
}

}  // namespace
