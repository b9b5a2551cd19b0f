// Hashing primitives shared by winnowing, n-gram search and deduplication.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

namespace kizzle {

// 64-bit FNV-1a over raw bytes.
std::uint64_t fnv1a64(std::string_view data);

// 64-bit FNV-1a over a sequence of 32-bit symbols (interned tokens).
std::uint64_t fnv1a64(std::span<const std::uint32_t> symbols);

// Combines two 64-bit hashes (boost::hash_combine style, 64-bit constant).
std::uint64_t hash_combine(std::uint64_t seed, std::uint64_t value);

// Artifact checksum primitive shared by every binary release format
// (`.kpf` bundles, `KZDELTA` deltas) and by the structure-aware fuzz
// mutator that has to re-seal what it mutates. Word-at-a-time FNV-style
// mix. The tail fold (0xA5-seeded) makes the call granularity part of the
// sum: writer and reader must call this with identical block sizes in
// identical order, so every format checksums its sealed range in a
// SINGLE call.
inline constexpr std::uint64_t kChecksumBasis = 0xCBF29CE484222325ull;
void checksum_update(std::uint64_t& sum, const void* p, std::size_t n);

// splitmix64 finalizer (Steele, Lea, Flood): full-avalanche mix of a
// 64-bit value. Shared by the winnowing fingerprint hashes and the
// bit-parallel matcher's symbol table.
inline std::uint64_t splitmix64_mix(std::uint64_t x) {
  std::uint64_t z = x + 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// Polynomial rolling hash over a fixed-size window. Supports O(1) slide.
// Used for k-gram fingerprinting (winnowing) and n-gram search over token
// streams. The hash of a window w_0..w_{k-1} is
//   sum w_i * B^{k-1-i}  (mod 2^64),
// with base B an odd 64-bit constant.
class RollingHash {
 public:
  // k is the window size in elements; k >= 1.
  explicit RollingHash(std::size_t k);

  std::size_t window() const { return k_; }

  // Hash of the first window of `data` (data.size() >= k).
  std::uint64_t init(std::span<const std::uint32_t> data);

  // Slides the window one element to the right: removes `out`, adds `in`.
  std::uint64_t roll(std::uint32_t out, std::uint32_t in);

  // Convenience: all window hashes of `data` (empty if data.size() < k).
  std::vector<std::uint64_t> all(std::span<const std::uint32_t> data);

 private:
  std::size_t k_;
  std::uint64_t pow_k1_;  // B^{k-1}
  std::uint64_t state_ = 0;
};

}  // namespace kizzle
