// Little-endian byte helpers and the FNV-1a fold shared by every control-plane
// codec (token frames, probe payloads, task/result frames) and the trace hash.
// Kept header-only so the agents, the codecs and the runtime hash identical
// bytes identically — the determinism seam depends on one implementation.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

namespace score::hypervisor::wire {

inline void put_u32(std::vector<std::uint8_t>& buf, std::uint32_t v) {
  buf.push_back(static_cast<std::uint8_t>(v));
  buf.push_back(static_cast<std::uint8_t>(v >> 8));
  buf.push_back(static_cast<std::uint8_t>(v >> 16));
  buf.push_back(static_cast<std::uint8_t>(v >> 24));
}

/// Read through a plain pointer: GCC then folds the four byte reads into one
/// 32-bit load, which it does not do through vector::operator[].
inline std::uint32_t get_u32(const std::vector<std::uint8_t>& buf,
                             std::size_t pos) {
  const std::uint8_t* p = buf.data() + pos;
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

inline void put_u64(std::vector<std::uint8_t>& buf, std::uint64_t v) {
  put_u32(buf, static_cast<std::uint32_t>(v));
  put_u32(buf, static_cast<std::uint32_t>(v >> 32));
}

inline std::uint64_t get_u64(const std::vector<std::uint8_t>& buf,
                             std::size_t pos) {
  return static_cast<std::uint64_t>(get_u32(buf, pos)) |
         (static_cast<std::uint64_t>(get_u32(buf, pos + 4)) << 32);
}

/// Overwrite four bytes at `pos` in place (the buffer already holds them).
inline void set_u32(std::vector<std::uint8_t>& buf, std::size_t pos,
                    std::uint32_t v) {
  buf[pos] = static_cast<std::uint8_t>(v);
  buf[pos + 1] = static_cast<std::uint8_t>(v >> 8);
  buf[pos + 2] = static_cast<std::uint8_t>(v >> 16);
  buf[pos + 3] = static_cast<std::uint8_t>(v >> 24);
}

inline void set_u64(std::vector<std::uint8_t>& buf, std::size_t pos,
                    std::uint64_t v) {
  set_u32(buf, pos, static_cast<std::uint32_t>(v));
  set_u32(buf, pos + 4, static_cast<std::uint32_t>(v >> 32));
}

inline void put_f64(std::vector<std::uint8_t>& buf, double v) {
  put_u64(buf, std::bit_cast<std::uint64_t>(v));
}

inline double get_f64(const std::vector<std::uint8_t>& buf, std::size_t pos) {
  return std::bit_cast<double>(get_u64(buf, pos));
}

inline std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  h ^= v;
  h *= 1099511628211ull;
  return h;
}

inline std::uint64_t fnv1a_bytes(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const std::uint8_t b : bytes) h = fnv1a(h, b);
  return h;
}

}  // namespace score::hypervisor::wire
