#include "hypervisor/token_codec.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "hypervisor/wire.hpp"

namespace score::hypervisor {

using wire::get_f64;
using wire::get_u32;
using wire::put_u32;

namespace {

constexpr std::uint8_t kCheckedBit = 0x80;
constexpr std::uint8_t kLevelMask = 0x7F;
constexpr std::uint8_t kMagic[4] = {'S', 'C', 'T', 'K'};

// Framed-token byte offsets.
constexpr std::size_t kPolicyAt = 5;
constexpr std::size_t kEpochAt = 6;
constexpr std::size_t kRingPosAt = 10;
constexpr std::size_t kDeltaAt = 14;
constexpr std::size_t kHolderAt = 22;
constexpr std::size_t kCountAt = 26;

constexpr std::size_t entry_at(std::size_t i) {
  return token_frame_header_bytes() + 5 * i;
}

/// Binary search for `vm` among a frame's `count` ascending ids: its entry
/// index, or `count` when it has none.
std::size_t find_entry(const std::vector<std::uint8_t>& buf, std::size_t count,
                       std::uint32_t vm) {
  std::size_t lo = 0;
  std::size_t hi = count;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (get_u32(buf, entry_at(mid)) < vm) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo < count && get_u32(buf, entry_at(lo)) == vm ? lo : count;
}

/// The framed-token reject list, shared by decode_token and TokenFrame.
/// Returns the entry count of a valid frame; throws std::invalid_argument.
std::size_t validate_frame(const std::vector<std::uint8_t>& buf) {
  if (buf.size() < token_frame_header_bytes()) {
    throw std::invalid_argument("token frame: truncated header");
  }
  if (!std::equal(std::begin(kMagic), std::end(kMagic), buf.begin())) {
    throw std::invalid_argument("token frame: bad magic");
  }
  if (buf[4] != kTokenFrameVersion) {
    throw std::invalid_argument("token frame: unsupported version");
  }
  if (buf[kPolicyAt] >
      static_cast<std::uint8_t>(TokenPolicyId::kHighestLevelFirst)) {
    throw std::invalid_argument("token frame: unknown policy id");
  }
  if (!std::isfinite(get_f64(buf, kDeltaAt))) {
    throw std::invalid_argument("token frame: aggregate delta not finite");
  }
  const std::uint32_t count = get_u32(buf, kCountAt);
  if (buf.size() != token_frame_bytes(count)) {
    throw std::invalid_argument(
        "token frame: length does not match entry count");
  }
  // One load and one compare per entry; with the ids known ascending, the
  // holder is found by binary search.
  std::uint32_t prev = count > 0 ? get_u32(buf, entry_at(0)) : 0;
  for (std::size_t i = 1; i < count; ++i) {
    const std::uint32_t id = get_u32(buf, entry_at(i));
    if (id <= prev) {
      throw std::invalid_argument("token frame: ids not ascending");
    }
    prev = id;
  }
  if (count > 0 && find_entry(buf, count, get_u32(buf, kHolderAt)) == count) {
    throw std::invalid_argument("token frame: holder not in entry list");
  }
  return count;
}

}  // namespace

std::vector<std::uint8_t> encode_token(const Token& token) {
  if (token.policy != TokenPolicyId::kRoundRobin &&
      token.policy != TokenPolicyId::kHighestLevelFirst) {
    throw std::invalid_argument("encode_token: unknown policy id");
  }
  if (!std::isfinite(token.aggregate_delta)) {
    throw std::invalid_argument("encode_token: aggregate delta must be finite");
  }
  bool holder_present = token.entries.empty();
  std::uint32_t prev = 0;
  bool first = true;
  for (const TokenWireEntry& e : token.entries) {
    if (!first && e.vm_id <= prev) {
      throw std::invalid_argument("encode_token: ids must be strictly ascending");
    }
    if (e.level > kLevelMask) {
      throw std::invalid_argument("encode_token: level exceeds 7 bits");
    }
    holder_present = holder_present || e.vm_id == token.holder;
    prev = e.vm_id;
    first = false;
  }
  if (!holder_present) {
    throw std::invalid_argument("encode_token: holder not in entry list");
  }

  std::vector<std::uint8_t> buf;
  buf.reserve(token_frame_bytes(token.entries.size()));
  for (const std::uint8_t b : kMagic) buf.push_back(b);
  buf.push_back(kTokenFrameVersion);
  buf.push_back(static_cast<std::uint8_t>(token.policy));
  put_u32(buf, token.epoch);
  put_u32(buf, token.ring_pos);
  wire::put_f64(buf, token.aggregate_delta);
  put_u32(buf, token.holder);
  put_u32(buf, static_cast<std::uint32_t>(token.entries.size()));
  for (const TokenWireEntry& e : token.entries) {
    put_u32(buf, e.vm_id);
    buf.push_back(static_cast<std::uint8_t>(e.level | (e.checked ? kCheckedBit : 0)));
  }
  return buf;
}

Token decode_token(const std::vector<std::uint8_t>& buf) {
  const std::size_t count = validate_frame(buf);
  Token token;
  token.policy = static_cast<TokenPolicyId>(buf[kPolicyAt]);
  token.epoch = get_u32(buf, kEpochAt);
  token.ring_pos = get_u32(buf, kRingPosAt);
  token.aggregate_delta = get_f64(buf, kDeltaAt);
  token.holder = get_u32(buf, kHolderAt);
  token.entries.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint8_t status = buf[entry_at(i) + 4];
    token.entries.push_back({get_u32(buf, entry_at(i)),
                             static_cast<std::uint8_t>(status & kLevelMask),
                             (status & kCheckedBit) != 0});
  }
  return token;
}

// ---------------------------------------------------------------------------
// TokenFrame: the frame edited in place.
// ---------------------------------------------------------------------------

TokenFrame::TokenFrame(std::vector<std::uint8_t> bytes)
    : bytes_(std::move(bytes)), size_(validate_frame(bytes_)) {}

TokenPolicyId TokenFrame::policy() const {
  return static_cast<TokenPolicyId>(bytes_[kPolicyAt]);
}
std::uint32_t TokenFrame::epoch() const { return get_u32(bytes_, kEpochAt); }
std::uint32_t TokenFrame::ring_pos() const {
  return get_u32(bytes_, kRingPosAt);
}
double TokenFrame::aggregate_delta() const {
  return get_f64(bytes_, kDeltaAt);
}
std::uint32_t TokenFrame::holder() const { return get_u32(bytes_, kHolderAt); }

std::uint32_t TokenFrame::vm_id(std::size_t i) const {
  return get_u32(bytes_, entry_at(i));
}
std::uint8_t TokenFrame::level(std::size_t i) const {
  return bytes_[entry_at(i) + 4] & kLevelMask;
}
bool TokenFrame::checked(std::size_t i) const {
  return (bytes_[entry_at(i) + 4] & kCheckedBit) != 0;
}

std::size_t TokenFrame::index_of(std::uint32_t vm) const {
  const std::size_t i = find_entry(bytes_, size_, vm);
  if (i == size_) throw std::logic_error("token does not contain the VM");
  return i;
}

void TokenFrame::set_epoch(std::uint32_t epoch) {
  wire::set_u32(bytes_, kEpochAt, epoch);
}
void TokenFrame::set_ring_pos(std::uint32_t ring_pos) {
  wire::set_u32(bytes_, kRingPosAt, ring_pos);
}
void TokenFrame::set_aggregate_delta(double delta) {
  if (!std::isfinite(delta)) {
    throw std::invalid_argument("TokenFrame: aggregate delta must be finite");
  }
  wire::set_u64(bytes_, kDeltaAt, std::bit_cast<std::uint64_t>(delta));
}
void TokenFrame::set_holder(std::uint32_t vm) {
  if (size_ > 0 && find_entry(bytes_, size_, vm) == size_) {
    throw std::invalid_argument("TokenFrame: holder not in entry list");
  }
  wire::set_u32(bytes_, kHolderAt, vm);
}
void TokenFrame::set_level(std::size_t i, std::uint8_t level) {
  if (level > kLevelMask) {
    throw std::invalid_argument("TokenFrame: level exceeds 7 bits");
  }
  std::uint8_t& status = bytes_[entry_at(i) + 4];
  status = static_cast<std::uint8_t>((status & kCheckedBit) | level);
}
void TokenFrame::set_checked(std::size_t i, bool checked) {
  std::uint8_t& status = bytes_[entry_at(i) + 4];
  status = static_cast<std::uint8_t>((status & kLevelMask) |
                                     (checked ? kCheckedBit : 0));
}

}  // namespace score::hypervisor
