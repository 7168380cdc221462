// Framed-token codec tests (paper §V-A/B.2 + the distributed runtime's
// header): field-exact round trips including epoch overflow, strict
// rejection of malformed frames, and fuzz over truncated/mutated/random
// buffers. The invariant under fuzz: decode either throws
// std::invalid_argument or yields a token whose re-encoding reproduces the
// input byte for byte — no silent garbage. TokenFrame, the in-place view the
// agents edit, is checked differentially against encode_token.
#include <gtest/gtest.h>

#include <bit>
#include <limits>

#include "hypervisor/token_codec.hpp"
#include "util/rng.hpp"

namespace {

using score::hypervisor::decode_token;
using score::hypervisor::encode_token;
using score::hypervisor::Token;
using score::hypervisor::token_frame_bytes;
using score::hypervisor::token_frame_header_bytes;
using score::hypervisor::TokenFrame;
using score::hypervisor::TokenPolicyId;
using score::hypervisor::TokenWireEntry;
using score::util::Rng;

Token sample_token() {
  Token t;
  t.epoch = 42;
  t.ring_pos = 1337;
  t.aggregate_delta = -3.75e9;
  t.holder = 20;
  t.policy = TokenPolicyId::kHighestLevelFirst;
  t.entries = {{10, 0, false}, {20, 3, true}, {30, 127, false}, {99, 1, true}};
  return t;
}

TEST(FramedToken, RoundTripPreservesEveryField) {
  const Token t = sample_token();
  const Token back = decode_token(encode_token(t));
  EXPECT_EQ(back, t);
}

TEST(FramedToken, WireSizeIsHeaderPlusFiveBytesPerEntry) {
  const Token t = sample_token();
  EXPECT_EQ(encode_token(t).size(), token_frame_bytes(t.entries.size()));
  EXPECT_EQ(token_frame_header_bytes(), 30u);
}

TEST(FramedToken, EmptyEntryListRoundTrips) {
  Token t;
  t.holder = 7;  // holder membership is only enforced for non-empty lists
  const Token back = decode_token(encode_token(t));
  EXPECT_EQ(back, t);
}

TEST(FramedToken, EpochOverflowRoundTrips) {
  Token t = sample_token();
  t.epoch = std::numeric_limits<std::uint32_t>::max();
  t.ring_pos = std::numeric_limits<std::uint32_t>::max();
  const Token back = decode_token(encode_token(t));
  EXPECT_EQ(back.epoch, std::numeric_limits<std::uint32_t>::max());
  EXPECT_EQ(back.ring_pos, std::numeric_limits<std::uint32_t>::max());
  // u32 wraparound (the paper: ids/epochs recycle) is well defined.
  EXPECT_EQ(back.epoch + 1, 0u);
}

TEST(FramedToken, ExtremeAggregateDeltaRoundTrips) {
  Token t = sample_token();
  for (const double v : {0.0, -0.0, 1e308, -1e308, 5e-324}) {
    t.aggregate_delta = v;
    const Token back = decode_token(encode_token(t));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back.aggregate_delta),
              std::bit_cast<std::uint64_t>(v));
  }
}

TEST(FramedToken, EncodeRejectsInvalidTokens) {
  Token t = sample_token();
  t.entries[1].vm_id = 10;  // duplicate
  EXPECT_THROW(encode_token(t), std::invalid_argument);

  t = sample_token();
  t.entries[0].vm_id = 25;  // not ascending
  EXPECT_THROW(encode_token(t), std::invalid_argument);

  t = sample_token();
  t.entries[2].level = 128;  // level needs bit 7
  EXPECT_THROW(encode_token(t), std::invalid_argument);

  t = sample_token();
  t.holder = 11;  // not in entry list
  EXPECT_THROW(encode_token(t), std::invalid_argument);

  t = sample_token();
  t.aggregate_delta = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(encode_token(t), std::invalid_argument);
  t.aggregate_delta = std::numeric_limits<double>::infinity();
  EXPECT_THROW(encode_token(t), std::invalid_argument);
}

TEST(FramedToken, DecodeRejectsBadMagicAndVersion) {
  auto buf = encode_token(sample_token());
  auto bad = buf;
  bad[0] = 'X';
  EXPECT_THROW(decode_token(bad), std::invalid_argument);
  bad = buf;
  bad[4] = 99;  // version
  EXPECT_THROW(decode_token(bad), std::invalid_argument);
  bad = buf;
  bad[5] = 7;  // policy id
  EXPECT_THROW(decode_token(bad), std::invalid_argument);
}

TEST(FramedToken, DecodeRejectsLengthMismatch) {
  auto buf = encode_token(sample_token());
  auto bad = buf;
  bad.pop_back();  // one byte short of the declared entry count
  EXPECT_THROW(decode_token(bad), std::invalid_argument);
  bad = buf;
  bad.push_back(0);  // one byte long
  EXPECT_THROW(decode_token(bad), std::invalid_argument);
  bad = buf;
  bad[26] = 0xFF;  // count field inflated far past the actual length
  EXPECT_THROW(decode_token(bad), std::invalid_argument);
}

TEST(FramedToken, EveryTruncationThrows) {
  const auto buf = encode_token(sample_token());
  for (std::size_t len = 0; len < buf.size(); ++len) {
    const std::vector<std::uint8_t> prefix(buf.begin(),
                                           buf.begin() + static_cast<long>(len));
    EXPECT_THROW(decode_token(prefix), std::invalid_argument)
        << "prefix of length " << len << " decoded";
  }
}

// Fuzz: single-byte mutations of a valid frame. Decoding must throw or be
// lossless (re-encode reproduces the mutated buffer exactly).
TEST(FramedToken, FuzzMutatedFramesNeverDecodeToGarbage) {
  const auto base = encode_token(sample_token());
  Rng rng(7);
  std::size_t accepted = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    auto buf = base;
    const std::size_t pos = rng.index(buf.size());
    buf[pos] = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    try {
      const Token t = decode_token(buf);
      EXPECT_EQ(encode_token(t), buf) << "lossy decode at byte " << pos;
      ++accepted;
    } catch (const std::invalid_argument&) {
      // rejected: fine
    }
  }
  // Sanity: mutations inside the epoch/ring/cost/holder fields are valid
  // frames, so the accept path is genuinely exercised.
  EXPECT_GT(accepted, 100u);
}

TEST(FramedToken, FuzzRandomBuffersNeverDecodeToGarbage) {
  Rng rng(8);
  for (int trial = 0; trial < 4000; ++trial) {
    std::vector<std::uint8_t> buf(rng.index(128));
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    try {
      const Token t = decode_token(buf);
      EXPECT_EQ(encode_token(t), buf);
    } catch (const std::invalid_argument&) {
      // rejected: fine
    }
  }
}

// ---- TokenFrame: the frame edited in place ---------------------------------

Token random_token(Rng& rng) {
  Token t;
  t.epoch = static_cast<std::uint32_t>(rng.engine()());
  t.ring_pos = static_cast<std::uint32_t>(rng.engine()());
  t.aggregate_delta = rng.uniform(-1e12, 1e12);
  t.policy = rng.chance(0.5) ? TokenPolicyId::kRoundRobin
                             : TokenPolicyId::kHighestLevelFirst;
  const std::size_t n = rng.index(40);
  std::uint32_t id = static_cast<std::uint32_t>(rng.index(1000));
  for (std::size_t i = 0; i < n; ++i) {
    t.entries.push_back({id, static_cast<std::uint8_t>(rng.index(128)),
                         rng.chance(0.5)});
    id += 1 + static_cast<std::uint32_t>(rng.index(1000));
  }
  t.holder = n == 0 ? static_cast<std::uint32_t>(rng.engine()())
                    : t.entries[rng.index(n)].vm_id;
  return t;
}

void expect_frame_reads(const TokenFrame& f, const Token& t) {
  EXPECT_EQ(f.policy(), t.policy);
  EXPECT_EQ(f.epoch(), t.epoch);
  EXPECT_EQ(f.ring_pos(), t.ring_pos);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(f.aggregate_delta()),
            std::bit_cast<std::uint64_t>(t.aggregate_delta));
  EXPECT_EQ(f.holder(), t.holder);
  ASSERT_EQ(f.size(), t.entries.size());
  for (std::size_t i = 0; i < f.size(); ++i) {
    EXPECT_EQ(f.vm_id(i), t.entries[i].vm_id);
    EXPECT_EQ(f.level(i), t.entries[i].level);
    EXPECT_EQ(f.checked(i), t.entries[i].checked);
    EXPECT_EQ(f.index_of(t.entries[i].vm_id), i);
  }
}

// Differential: random tokens under random edit sequences. After every edit
// the frame's bytes equal encode_token of the Token given the same edit, and
// an edit encode_token would reject throws and leaves the frame unchanged.
TEST(TokenFrame, RandomEditsMatchEncodeToken) {
  Rng rng(11);
  for (int trial = 0; trial < 300; ++trial) {
    Token t = random_token(rng);
    TokenFrame f(encode_token(t));
    expect_frame_reads(f, t);
    const std::size_t n = t.entries.size();
    for (int edit = 0; edit < 60; ++edit) {
      const std::size_t i = n == 0 ? 0 : rng.index(n);
      switch (rng.index(n == 0 ? 4 : 8)) {
        case 0:
          t.epoch = static_cast<std::uint32_t>(rng.engine()());
          f.set_epoch(t.epoch);
          break;
        case 1:
          ++t.ring_pos;  // wraps at 2^32 like the agent's bump
          f.set_ring_pos(f.ring_pos() + 1);
          break;
        case 2: {
          const double delta = rng.uniform(-1e9, 1e9);
          t.aggregate_delta += delta;
          f.set_aggregate_delta(f.aggregate_delta() + delta);
          break;
        }
        case 3: {
          const double bad = rng.chance(0.5)
                                 ? std::numeric_limits<double>::infinity()
                                 : std::numeric_limits<double>::quiet_NaN();
          EXPECT_THROW(f.set_aggregate_delta(bad), std::invalid_argument);
          break;
        }
        case 4:
          t.holder = t.entries[i].vm_id;
          f.set_holder(t.holder);
          break;
        case 5:
          t.entries[i].level = static_cast<std::uint8_t>(rng.index(128));
          f.set_level(i, t.entries[i].level);
          break;
        case 6:
          t.entries[i].checked = rng.chance(0.5);
          f.set_checked(i, t.entries[i].checked);
          break;
        default: {
          // Rejected edits: a level needing bit 7, a holder with no entry.
          const auto wide = static_cast<std::uint8_t>(128 + rng.index(128));
          EXPECT_THROW(f.set_level(i, wide), std::invalid_argument);
          const std::uint32_t absent = t.entries[i].vm_id + 1;
          if (i + 1 == n || t.entries[i + 1].vm_id != absent) {
            EXPECT_THROW(f.set_holder(absent), std::invalid_argument);
            EXPECT_THROW(f.index_of(absent), std::logic_error);
          }
          break;
        }
      }
      ASSERT_EQ(f.bytes(), encode_token(t))
          << "trial " << trial << " edit " << edit;
    }
    expect_frame_reads(f, t);
    // Forwarding hands the same bytes on by move.
    const std::vector<std::uint8_t> expected = encode_token(t);
    EXPECT_EQ(std::move(f).bytes(), expected);
  }
}

TEST(TokenFrame, RejectsExactlyWhatDecodeRejects) {
  const auto base = encode_token(sample_token());
  Rng rng(12);
  std::size_t accepted = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    auto buf = base;
    if (trial % 2 == 0) {
      buf[rng.index(buf.size())] = static_cast<std::uint8_t>(rng.index(256));
    } else {
      buf.resize(rng.index(buf.size() + 8));
    }
    bool decoded = true;
    try {
      decode_token(buf);
    } catch (const std::invalid_argument&) {
      decoded = false;
    }
    if (!decoded) {
      EXPECT_THROW(TokenFrame{buf}, std::invalid_argument);
      continue;
    }
    const TokenFrame f(buf);
    EXPECT_EQ(f.bytes(), buf);
    expect_frame_reads(f, decode_token(buf));
    ++accepted;
  }
  EXPECT_GT(accepted, 100u);
}

}  // namespace
