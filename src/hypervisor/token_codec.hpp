// Token wire format — paper §V-A / §V-B.2.
//
// The token is "a message formed as an array of entries", each entry a 32-bit
// VM id (the VM's IPv4 address on Xen, "capable of representing over 4
// billion IDs before recycling") and, for the HLF policy, an 8-bit highest
// communication level. Entries are stored in ascending order by VM id and the
// token is transmitted as a packed block of unsigned integers.
//
// The distributed runtime passes the token between dom0 agents as a frame:
// a fixed header (magic, version, forwarding policy, allocation epoch, ring
// position, aggregate committed cost delta, current holder) followed by the
// paper's 5-byte HLF entries, whose status byte folds the per-round
// "checked" bit (Algorithm 1 bookkeeping) into bit 7 and the communication
// level into bits 0..6. Past the header the frame is the paper's array, so
// its size is token_frame_header_bytes() + 5 bytes per VM. The header is
// what makes the loop observable without global state: every hold
// increments ring_pos, every committed migration increments epoch and adds
// its Lemma-3 delta to aggregate_delta, so the token that returns to the
// placement manager carries the whole run's convergence telemetry.
//
// All integers are little-endian. decode_token validates strictly: magic,
// version, policy, exact length, finite aggregate delta, strictly ascending
// ids, and holder membership — truncated or corrupted buffers throw
// std::invalid_argument rather than decoding to garbage.
//
// A hold reads and writes only the header, the holder's entry and its peers'
// levels, so the agents never decode the O(|V|) frame: TokenFrame keeps the
// wire bytes, validates them once (the same reject list, one shared
// validator), edits fields in place and hands the bytes on by move.
// encode_token/decode_token build the injected token and serve the tests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace score::hypervisor {

/// Forwarding policy carried in the frame so a re-injected token resumes
/// under the same rules it was launched with.
enum class TokenPolicyId : std::uint8_t {
  kRoundRobin = 0,
  kHighestLevelFirst = 1,
};

/// One token entry as carried by the frame: level (bits 0..6 of the status
/// byte) plus the per-round checked bit (bit 7, Algorithm 1 line 15).
struct TokenWireEntry {
  std::uint32_t vm_id = 0;
  std::uint8_t level = 0;  ///< 0..127 (7 bits on the wire)
  bool checked = false;

  bool operator==(const TokenWireEntry&) const = default;
};

/// The decoded frame. `entries` must be strictly ascending by vm_id and,
/// when non-empty, contain `holder`.
struct Token {
  std::uint32_t epoch = 0;       ///< allocation epoch: committed migrations
  std::uint32_t ring_pos = 0;    ///< holds completed since injection
  double aggregate_delta = 0.0;  ///< Σ committed Lemma-3 deltas (cost units)
  std::uint32_t holder = 0;      ///< VM id currently holding the token
  TokenPolicyId policy = TokenPolicyId::kRoundRobin;
  std::vector<TokenWireEntry> entries;

  bool operator==(const Token&) const = default;
};

/// Frame header: magic "SCTK" + version + policy + epoch + ring_pos +
/// aggregate_delta (IEEE-754 bits) + holder + entry count.
constexpr std::size_t token_frame_header_bytes() { return 4 + 1 + 1 + 4 + 4 + 8 + 4 + 4; }
constexpr std::size_t token_frame_bytes(std::size_t num_vms) {
  return token_frame_header_bytes() + 5 * num_vms;
}
constexpr std::uint8_t kTokenFrameVersion = 1;

/// Encode a frame. Throws std::invalid_argument on non-ascending ids, a
/// holder absent from a non-empty entry list, levels above 127, or a
/// non-finite aggregate delta.
std::vector<std::uint8_t> encode_token(const Token& token);

/// Decode and validate a frame (see header comment for the reject list).
Token decode_token(const std::vector<std::uint8_t>& buf);

/// A framed token held as its wire bytes. Construction validates exactly as
/// decode_token does; every setter keeps encode_token's rules, so the bytes
/// are a valid frame at all times and equal encode_token of the same token.
/// Entry i (i < size()) is the i-th entry in ascending vm_id order.
class TokenFrame {
 public:
  /// Take ownership of `bytes` and validate them; throws
  /// std::invalid_argument on any frame decode_token rejects.
  explicit TokenFrame(std::vector<std::uint8_t> bytes);

  TokenPolicyId policy() const;
  std::uint32_t epoch() const;
  std::uint32_t ring_pos() const;
  double aggregate_delta() const;
  std::uint32_t holder() const;
  std::size_t size() const { return size_; }

  std::uint32_t vm_id(std::size_t i) const;
  std::uint8_t level(std::size_t i) const;
  bool checked(std::size_t i) const;
  /// Binary search for `vm`'s entry; throws std::logic_error when absent.
  std::size_t index_of(std::uint32_t vm) const;

  void set_epoch(std::uint32_t epoch);
  void set_ring_pos(std::uint32_t ring_pos);
  /// Throws std::invalid_argument on a non-finite delta.
  void set_aggregate_delta(double delta);
  /// Throws std::invalid_argument unless `vm` is an entry (or there are none).
  void set_holder(std::uint32_t vm);
  /// Throws std::invalid_argument on a level above 127.
  void set_level(std::size_t i, std::uint8_t level);
  void set_checked(std::size_t i, bool checked);

  const std::vector<std::uint8_t>& bytes() const& { return bytes_; }
  /// Release the frame's bytes (forwarding the token by move).
  std::vector<std::uint8_t> bytes() && { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
  std::size_t size_ = 0;
};

}  // namespace score::hypervisor
