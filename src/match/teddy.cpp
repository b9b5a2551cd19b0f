#include "match/teddy.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define KIZZLE_TEDDY_X86 1
#include <immintrin.h>
#endif

namespace kizzle::match::teddy {

// Static commonness prior for normalized JS/HTML content, added to the
// literal-set frequency when scoring candidate windows. The set frequency
// alone is misleading: a byte can be rare among the registered literals yet
// saturate the scanned text (digit streams in charcode packers), and
// anchoring a bucket on it makes the first stage fire on every byte.
double byte_prior(unsigned char b) {
  if (b >= '0' && b <= '9') return 8.0;  // charcode/hex payload streams
  switch (b) {
    case ' ': case '\t': case '\r': case '\n': case '\f': case '\v':
    case '"': case '\'':
      // Absent from normalized text (normalization strips them — any
      // anchor works there), but they saturate raw source, which the
      // engine also scans.
      return 7.0;
  }
  if ((b >= 'a' && b <= 'z') || b == '_' || b == '$') return 6.0;
  if (b >= 'A' && b <= 'Z') return 5.0;  // randomized mixed-case idents
  switch (b) {
    case ';': case ',': case '.': case '(': case ')': case '=':
    case '+': case '-': case '*': case '/': case '[': case ']':
    case '{': case '}': case ':': case '<': case '>': case '!':
    case '&': case '|': case '?': case '%':
      return 4.0;  // expression/statement punctuation
    default:
      return 1.0;  // genuinely uncommon in normalized script text
  }
}

double byte_prior_probability(unsigned char b) {
  static const double total = [] {
    double t = 0.0;
    for (int c = 0; c < 256; ++c) {
      t += byte_prior(static_cast<unsigned char>(c));
    }
    return t;
  }();
  return byte_prior(b) / total;
}

namespace {

// ------------------------------- scalar -------------------------------
//
// The shift-or pipeline in one 64-bit word. After processing byte i, lane p
// (8- or 16-bit lanes, matching the plan's bucket width) holds the buckets
// whose window bytes 0..p all matched text[i-p..i]; the transition shifts
// every lane up by one byte (lane 0 refilled with all-ones) and ANDs the
// per-position masks of the current byte — which is exactly the vector
// kernels' dataflow, one byte at a time. A non-zero lane k-1 is a
// candidate ending at i.
void scan_scalar(const std::uint64_t* lo64, const std::uint64_t* hi64,
                 std::size_t k, unsigned lane_bits, const unsigned char* data,
                 std::size_t n, HitBuffer& hits) {
  const unsigned hit_shift = static_cast<unsigned>(lane_bits * (k - 1));
  const std::uint64_t lane_ones = (lane_bits == 8) ? 0xFFu : 0xFFFFu;
  std::uint64_t st = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const unsigned char b = data[i];
    const std::uint64_t t = lo64[b & 15] & hi64[b >> 4];
    st = ((st << lane_bits) | lane_ones) & t;
    const auto m = static_cast<std::uint16_t>((st >> hit_shift) & lane_ones);
    if (m != 0) {
      // Lane k-1 cannot fill before k bytes were consumed, so i >= k-1.
      hits.push_back(Hit{static_cast<std::uint32_t>(i - (k - 1)), m});
    }
  }
}

#if KIZZLE_TEDDY_X86

// Appends the candidates of one block's combined mask. `base` is the text
// offset of the block's byte 0; bit idx of `nz` set means res byte idx is a
// non-zero bucket mask for a window *ending* at base+idx. The `at + k <= n`
// filter drops phantom candidates produced by the zero padding of the final
// partial block (a hit at a valid `at` only ever depends on real bytes);
// it also rejects the underflowed `at` of a window that would start before
// the text.
inline void emit_hits(const std::uint8_t* res, std::uint32_t nz,
                      std::size_t base, std::size_t k, std::size_t n,
                      HitBuffer& hits) {
  while (nz != 0) {
    const unsigned idx = static_cast<unsigned>(__builtin_ctz(nz));
    nz &= nz - 1;
    const std::size_t at = base + idx - (k - 1);
    if (at + k <= n) {
      hits.push_back(Hit{static_cast<std::uint32_t>(at), res[idx]});
    }
  }
}

// Fat variant: res holds the low mask bytes of 16 positions in bytes
// 0..15 and the high mask bytes in bytes 16..31 (the two 128-bit lanes of
// the Fat kernel's result vector).
inline void emit_hits_fat(const std::uint8_t* res, std::uint32_t nz,
                          std::size_t base, std::size_t k, std::size_t n,
                          HitBuffer& hits) {
  while (nz != 0) {
    const unsigned idx = static_cast<unsigned>(__builtin_ctz(nz));
    nz &= nz - 1;
    const std::size_t at = base + idx - (k - 1);
    if (at + k <= n) {
      const auto mask = static_cast<std::uint16_t>(
          res[idx] | (static_cast<unsigned>(res[16 + idx]) << 8));
      hits.push_back(Hit{static_cast<std::uint32_t>(at), mask});
    }
  }
}

// ------------------------------- SSSE3 -------------------------------

__attribute__((target("ssse3"))) void scan_ssse3(
    const std::uint8_t (*lo)[32], const std::uint8_t (*hi)[32], std::size_t k,
    const unsigned char* data, std::size_t n, HitBuffer& hits) {
  const __m128i nib = _mm_set1_epi8(0x0F);
  const __m128i zero = _mm_setzero_si128();
  __m128i tl[4], th[4], prev[4];
  for (std::size_t p = 0; p < k; ++p) {
    tl[p] = _mm_load_si128(reinterpret_cast<const __m128i*>(lo[p]));
    th[p] = _mm_load_si128(reinterpret_cast<const __m128i*>(hi[p]));
    prev[p] = zero;  // first block: no window can start before the text
  }

  alignas(16) std::uint8_t resbuf[16];
  std::size_t base = 0;
  for (;;) {
    __m128i v;
    if (base + 16 <= n) {
      v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + base));
    } else if (base < n) {
      alignas(16) unsigned char tail[16] = {};
      std::memcpy(tail, data + base, n - base);
      v = _mm_load_si128(reinterpret_cast<const __m128i*>(tail));
    } else {
      break;
    }
    const __m128i vlo = _mm_and_si128(v, nib);
    const __m128i vhi = _mm_and_si128(_mm_srli_epi16(v, 4), nib);
    __m128i r[4];
    for (std::size_t p = 0; p < k; ++p) {
      r[p] = _mm_and_si128(_mm_shuffle_epi8(tl[p], vlo),
                           _mm_shuffle_epi8(th[p], vhi));
    }
    // res byte i = r[k-1][i] & r[k-2][i-1] & ... & r[0][i-(k-1)], the
    // shifted lanes carrying in from the previous block via alignr. K=1
    // degenerates to a pure table lookup.
    __m128i res = r[k - 1];
    if (k >= 2) {
      res = _mm_and_si128(res, _mm_alignr_epi8(r[k - 2], prev[k - 2], 15));
    }
    if (k >= 3) {
      res = _mm_and_si128(res, _mm_alignr_epi8(r[k - 3], prev[k - 3], 14));
    }
    if (k == 4) {
      res = _mm_and_si128(res, _mm_alignr_epi8(r[0], prev[0], 13));
    }
    for (std::size_t p = 0; p < k; ++p) prev[p] = r[p];

    const auto nz = static_cast<std::uint32_t>(
        _mm_movemask_epi8(_mm_cmpeq_epi8(res, zero)) ^ 0xFFFF);
    if (nz != 0) {
      _mm_store_si128(reinterpret_cast<__m128i*>(resbuf), res);
      emit_hits(resbuf, nz, base, k, n, hits);
    }
    base += 16;
  }
}

// ------------------------------- AVX2 -------------------------------

// result[i] = cur[i - S] with carry-in from the previous block's top bytes
// (vpalignr shuffles per 128-bit lane, so the cross-lane carry vector is
// materialized first).
__attribute__((target("avx2"))) inline __m256i shift_carry_1(__m256i cur,
                                                             __m256i prev) {
  const __m256i t = _mm256_permute2x128_si256(prev, cur, 0x21);
  return _mm256_alignr_epi8(cur, t, 15);
}
__attribute__((target("avx2"))) inline __m256i shift_carry_2(__m256i cur,
                                                             __m256i prev) {
  const __m256i t = _mm256_permute2x128_si256(prev, cur, 0x21);
  return _mm256_alignr_epi8(cur, t, 14);
}
__attribute__((target("avx2"))) inline __m256i shift_carry_3(__m256i cur,
                                                             __m256i prev) {
  const __m256i t = _mm256_permute2x128_si256(prev, cur, 0x21);
  return _mm256_alignr_epi8(cur, t, 13);
}

__attribute__((target("avx2"))) void scan_avx2(
    const std::uint8_t (*lo)[32], const std::uint8_t (*hi)[32], std::size_t k,
    const unsigned char* data, std::size_t n, HitBuffer& hits) {
  const __m256i nib = _mm256_set1_epi8(0x0F);
  const __m256i zero = _mm256_setzero_si256();
  __m256i tl[4], th[4], prev[4];
  for (std::size_t p = 0; p < k; ++p) {
    // One 16-entry table per 128-bit lane: vpshufb looks up per lane.
    tl[p] = _mm256_broadcastsi128_si256(
        _mm_load_si128(reinterpret_cast<const __m128i*>(lo[p])));
    th[p] = _mm256_broadcastsi128_si256(
        _mm_load_si128(reinterpret_cast<const __m128i*>(hi[p])));
    prev[p] = zero;
  }

  alignas(32) std::uint8_t resbuf[32];
  std::size_t base = 0;
  for (;;) {
    __m256i v;
    if (base + 32 <= n) {
      v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + base));
    } else if (base < n) {
      alignas(32) unsigned char tail[32] = {};
      std::memcpy(tail, data + base, n - base);
      v = _mm256_load_si256(reinterpret_cast<const __m256i*>(tail));
    } else {
      break;
    }
    const __m256i vlo = _mm256_and_si256(v, nib);
    const __m256i vhi = _mm256_and_si256(_mm256_srli_epi16(v, 4), nib);
    __m256i r[4];
    for (std::size_t p = 0; p < k; ++p) {
      r[p] = _mm256_and_si256(_mm256_shuffle_epi8(tl[p], vlo),
                              _mm256_shuffle_epi8(th[p], vhi));
    }
    __m256i res = r[k - 1];
    if (k >= 2) {
      res = _mm256_and_si256(res, shift_carry_1(r[k - 2], prev[k - 2]));
    }
    if (k >= 3) {
      res = _mm256_and_si256(res, shift_carry_2(r[k - 3], prev[k - 3]));
    }
    if (k == 4) {
      res = _mm256_and_si256(res, shift_carry_3(r[0], prev[0]));
    }
    for (std::size_t p = 0; p < k; ++p) prev[p] = r[p];

    const auto nz = ~static_cast<std::uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi8(res, zero)));
    if (nz != 0) {
      _mm256_store_si256(reinterpret_cast<__m256i*>(resbuf), res);
      emit_hits(resbuf, nz, base, k, n, hits);
    }
    base += 32;
  }
}

// ----------------------------- Fat AVX2 -----------------------------
//
// 16-bucket kernel: 16 haystack bytes per step, duplicated across both
// 128-bit lanes. The table vector's low lane holds the low mask bytes
// (buckets 0–7) and its high lane the high mask bytes (8–15), so one
// vpshufb resolves both halves of every position's 16-bit bucket mask at
// once. The shift-AND pipeline runs per lane — each lane is an independent
// mask plane over the SAME 16 text positions, so vpalignr's per-lane
// semantics give exactly the carry each plane needs (the previous block's
// top bytes of the same plane), with no cross-lane permute.
__attribute__((target("avx2"))) void scan_avx2_fat(
    const std::uint8_t (*lo)[32], const std::uint8_t (*hi)[32], std::size_t k,
    const unsigned char* data, std::size_t n, HitBuffer& hits) {
  const __m256i nib = _mm256_set1_epi8(0x0F);
  __m256i tl[4], th[4], prev[4];
  for (std::size_t p = 0; p < k; ++p) {
    tl[p] = _mm256_load_si256(reinterpret_cast<const __m256i*>(lo[p]));
    th[p] = _mm256_load_si256(reinterpret_cast<const __m256i*>(hi[p]));
    prev[p] = _mm256_setzero_si256();
  }

  alignas(32) std::uint8_t resbuf[32];
  std::size_t base = 0;
  for (;;) {
    __m128i v128;
    if (base + 16 <= n) {
      v128 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + base));
    } else if (base < n) {
      alignas(16) unsigned char tail[16] = {};
      std::memcpy(tail, data + base, n - base);
      v128 = _mm_load_si128(reinterpret_cast<const __m128i*>(tail));
    } else {
      break;
    }
    const __m256i v = _mm256_broadcastsi128_si256(v128);
    const __m256i vlo = _mm256_and_si256(v, nib);
    const __m256i vhi = _mm256_and_si256(_mm256_srli_epi16(v, 4), nib);
    __m256i r[4];
    for (std::size_t p = 0; p < k; ++p) {
      r[p] = _mm256_and_si256(_mm256_shuffle_epi8(tl[p], vlo),
                              _mm256_shuffle_epi8(th[p], vhi));
    }
    // Per-lane shift with per-lane carry: lane L byte 0 pulls the previous
    // block's lane L byte 15 — precisely this plane's preceding position.
    __m256i res = r[k - 1];
    if (k >= 2) {
      res = _mm256_and_si256(res, _mm256_alignr_epi8(r[k - 2], prev[k - 2], 15));
    }
    if (k >= 3) {
      res = _mm256_and_si256(res, _mm256_alignr_epi8(r[k - 3], prev[k - 3], 14));
    }
    if (k == 4) {
      res = _mm256_and_si256(res, _mm256_alignr_epi8(r[0], prev[0], 13));
    }
    for (std::size_t p = 0; p < k; ++p) prev[p] = r[p];

    const __m128i any =
        _mm_or_si128(_mm256_castsi256_si128(res),
                     _mm256_extracti128_si256(res, 1));
    const auto nz = static_cast<std::uint32_t>(
        _mm_movemask_epi8(_mm_cmpeq_epi8(any, _mm_setzero_si128())) ^ 0xFFFF);
    if (nz != 0) {
      _mm256_store_si256(reinterpret_cast<__m256i*>(resbuf), res);
      emit_hits_fat(resbuf, nz, base, k, n, hits);
    }
    base += 16;
  }
}

#endif  // KIZZLE_TEDDY_X86

}  // namespace

// ------------------------------ dispatch ------------------------------

bool impl_available(Impl impl) {
  switch (impl) {
    case Impl::kScalar:
      return true;
#if KIZZLE_TEDDY_X86
    case Impl::kSsse3:
      return __builtin_cpu_supports("ssse3") != 0;
    case Impl::kAvx2:
      return __builtin_cpu_supports("avx2") != 0;
#else
    case Impl::kSsse3:
    case Impl::kAvx2:
      return false;
#endif
  }
  return false;
}

Impl best_impl() {
  static const Impl best = [] {
    if (impl_available(Impl::kAvx2)) return Impl::kAvx2;
    if (impl_available(Impl::kSsse3)) return Impl::kSsse3;
    return Impl::kScalar;
  }();
  return best;
}

const char* impl_name(Impl impl) {
  switch (impl) {
    case Impl::kScalar:
      return "scalar";
    case Impl::kSsse3:
      return "ssse3";
    case Impl::kAvx2:
      return "avx2";
  }
  return "?";
}

// -------------------------------- plan --------------------------------

std::uint32_t Plan::window_key(const char* p) const {
  std::uint32_t v = 0;
  for (std::size_t i = 0; i < k_; ++i) {
    v = (v << 8) | static_cast<unsigned char>(p[i]);
  }
  return v;
}

std::optional<Plan> Plan::build(std::vector<Literal> literals,
                                std::size_t n_buckets) {
  if (literals.empty() || literals.size() > kShardMaxLiterals) {
    return std::nullopt;
  }
  if (n_buckets != kBuckets && n_buckets != kFatBuckets) return std::nullopt;
  std::size_t min_len = literals.front().text.size();
  std::size_t max_len = 0;
  for (const Literal& lit : literals) {
    if (lit.text.empty()) return std::nullopt;
    min_len = std::min(min_len, lit.text.size());
    max_len = std::max(max_len, lit.text.size());
  }

  Plan plan;
  plan.k_ = std::min<std::size_t>(4, min_len);
  plan.n_buckets_ = n_buckets;
  plan.max_len_ = max_len;

  // Rare-window selection. Byte frequencies over the literal set itself
  // approximate the scanned content's distribution (deployed literals are
  // chunks of real samples), so windows built around the literal's rarest
  // byte are the ones least likely to light up on unrelated text — head
  // bytes would be the worst possible pick for similarly-shaped signatures
  // (shared packer idioms, digit streams).
  //
  // Rarity alone is not enough, though: a bucket's masks OR its members
  // per position, and res is the AND across positions, so a bucket stays
  // sparse only if its members put their rare byte at the SAME window
  // position (one sparse row kills the AND). Each window therefore records
  // the position of its rarest byte as its anchor, and bucket assignment
  // below groups by anchor first.
  std::array<std::uint32_t, 256> freq{};
  for (const Literal& lit : literals) {
    for (const char c : lit.text) ++freq[static_cast<unsigned char>(c)];
  }
  // The static prior dominates; the set frequency only orders bytes within
  // a commonness class (a byte every literal carries — a shared salt, a
  // packer marker — must still beat moderately-rare punctuation, and its
  // set count says nothing about the scanned text).
  std::array<double, 256> cost{};
  for (std::size_t b = 0; b < 256; ++b) {
    cost[b] = byte_prior(static_cast<unsigned char>(b)) +
              0.25 * std::log2(1.0 + static_cast<double>(freq[b]));
  }
  const std::size_t n = literals.size();
  std::vector<std::uint32_t> window_off(n, 0);
  std::vector<std::uint32_t> anchor_of(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::string& text = literals[i].text;
    double best_rare = 0;
    double best_total = 0;
    for (std::size_t off = 0; off + plan.k_ <= text.size(); ++off) {
      double rare = cost[static_cast<unsigned char>(text[off])];
      std::size_t anchor = 0;
      double total = rare;
      for (std::size_t p = 1; p < plan.k_; ++p) {
        const double c = cost[static_cast<unsigned char>(text[off + p])];
        total += c;
        if (c < rare) {
          rare = c;
          anchor = p;
        }
      }
      if (off == 0 || rare < best_rare ||
          (rare == best_rare && total < best_total)) {
        best_rare = rare;
        best_total = total;
        window_off[i] = static_cast<std::uint32_t>(off);
        anchor_of[i] = static_cast<std::uint32_t>(anchor);
      }
    }
  }

  // Sort by (anchor, rare byte, window): literals that agree on where their
  // rare byte sits — and on what it is — cluster, so the chunked bucket
  // assignment keeps every bucket's anchor row sparse (a chunk boundary
  // inside a run of equal rare bytes costs nothing; a bucket mixing many
  // distinct anchor bytes would re-densify its one sparse row).
  std::vector<std::uint32_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<std::uint32_t>(i);
  std::sort(order.begin(), order.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              if (anchor_of[a] != anchor_of[b]) {
                return anchor_of[a] < anchor_of[b];
              }
              const std::string_view wa =
                  std::string_view(literals[a].text).substr(window_off[a]);
              const std::string_view wb =
                  std::string_view(literals[b].text).substr(window_off[b]);
              const unsigned char ra = wa[anchor_of[a]];
              const unsigned char rb = wb[anchor_of[b]];
              if (ra != rb) return ra < rb;
              if (wa != wb) return wa < wb;
              if (literals[a].text != literals[b].text) {
                return literals[a].text < literals[b].text;
              }
              return literals[a].id < literals[b].id;
            });
  plan.lits_.reserve(n);
  plan.off_.reserve(n);
  std::vector<std::uint32_t> anchors(n);
  for (std::size_t i = 0; i < n; ++i) {
    anchors[i] = anchor_of[order[i]];
    plan.off_.push_back(window_off[order[i]]);
    plan.lits_.push_back(std::move(literals[order[i]]));
  }

  // Bucket allocation. Two invariants keep every bucket's anchor row
  // sparse: (1) a bucket never mixes anchor *positions* (the one sparse
  // row would disappear from the AND), and (2) bucket boundaries snap to
  // rare-byte cluster edges, so a handful of literals anchored on a
  // different byte get their own bucket instead of widening the anchor row
  // of a large homogeneous one. Splitting WITHIN a run of equal rare bytes
  // is free — the split buckets share the same one-byte anchor row.
  std::vector<std::uint8_t> bucket_of(n);
  {
    // Rare-byte clusters: maximal runs of equal (anchor position, anchor
    // byte), contiguous thanks to the sort above.
    std::vector<std::pair<std::size_t, std::size_t>> clusters;  // [begin,end)
    const auto anchor_byte = [&](std::size_t i) {
      return static_cast<unsigned char>(
          plan.lits_[i].text[plan.off_[i] + anchors[i]]);
    };
    for (std::size_t i = 0; i < n;) {
      std::size_t j = i;
      while (j < n && anchors[j] == anchors[i] &&
             anchor_byte(j) == anchor_byte(i)) {
        ++j;
      }
      clusters.emplace_back(i, j);
      i = j;
    }

    if (clusters.size() >= n_buckets) {
      // More distinct rare bytes than buckets: pack whole clusters
      // greedily toward even bucket sizes. Anchor positions may mix at
      // cluster seams, which is unavoidable past n_buckets distinct
      // anchors.
      std::size_t bucket = 0;
      std::size_t filled = 0;
      const std::size_t target = (n + n_buckets - 1) / n_buckets;
      for (std::size_t c = 0; c < clusters.size(); ++c) {
        const auto [begin, end] = clusters[c];
        if (filled > 0 && filled + (end - begin) > target &&
            bucket + 1 < n_buckets) {
          ++bucket;
          filled = 0;
        }
        for (std::size_t i = begin; i < end; ++i) {
          bucket_of[i] = static_cast<std::uint8_t>(bucket);
        }
        filled += end - begin;
      }
    } else {
      // Every cluster gets at least one bucket; leftover buckets go to the
      // largest per-bucket clusters (splitting them evenly is free).
      std::vector<std::size_t> share(clusters.size(), 1);
      for (std::size_t extra = n_buckets - clusters.size(); extra > 0;
           --extra) {
        std::size_t best = 0;
        for (std::size_t c = 1; c < clusters.size(); ++c) {
          const std::size_t size_c = clusters[c].second - clusters[c].first;
          const std::size_t size_b =
              clusters[best].second - clusters[best].first;
          if (size_c * share[best] > size_b * share[c]) best = c;
        }
        ++share[best];
      }
      std::size_t next_bucket = 0;
      for (std::size_t c = 0; c < clusters.size(); ++c) {
        const auto [begin, end] = clusters[c];
        const std::size_t size = end - begin;
        for (std::size_t i = begin; i < end; ++i) {
          bucket_of[i] = static_cast<std::uint8_t>(
              next_bucket + (i - begin) * share[c] / size);
        }
        next_bucket += share[c];
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    const char* window = plan.lits_[i].text.data() + plan.off_[i];
    // Buckets 0–7 live in table bytes 0..15, buckets 8–15 (Fat) in bytes
    // 16..31 — the two 128-bit lanes of the Fat kernel's table vector.
    const std::size_t half = bucket_of[i] < 8 ? 0 : 16;
    const auto bit = static_cast<std::uint8_t>(1u << (bucket_of[i] & 7));
    for (std::size_t p = 0; p < plan.k_; ++p) {
      const auto c = static_cast<unsigned char>(window[p]);
      plan.lo_[p][half + (c & 15)] |= bit;
      plan.hi_[p][half + (c >> 4)] |= bit;
    }
  }
  // Scalar packing: 8-bit lanes for 8-bucket plans, 16-bit lanes (low byte
  // = buckets 0–7, high byte = 8–15) for Fat.
  const unsigned lane_bits = n_buckets == kFatBuckets ? 16 : 8;
  for (std::size_t nb = 0; nb < 16; ++nb) {
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    for (std::size_t p = 0; p < 4; ++p) {
      std::uint64_t lo_mask = plan.lo_[p][nb];
      std::uint64_t hi_mask = plan.hi_[p][nb];
      if (lane_bits == 16) {
        lo_mask |= static_cast<std::uint64_t>(plan.lo_[p][16 + nb]) << 8;
        hi_mask |= static_cast<std::uint64_t>(plan.hi_[p][16 + nb]) << 8;
      }
      lo |= lo_mask << (lane_bits * p);
      hi |= hi_mask << (lane_bits * p);
    }
    plan.lo64_[nb] = lo;
    plan.hi64_[nb] = hi;
  }

  // Per-bucket confirmation index: the bucket's literals keyed by their
  // rare window (already window-sorted via the global sort, but sorted
  // again so the invariant never silently depends on it).
  plan.entries_.reserve(n);
  for (std::size_t b = 0; b < n_buckets; ++b) {
    plan.bucket_begin_[b] = static_cast<std::uint32_t>(plan.entries_.size());
    for (std::size_t i = 0; i < n; ++i) {
      if (bucket_of[i] != b) continue;
      plan.entries_.push_back(
          Entry{plan.window_key(plan.lits_[i].text.data() + plan.off_[i]),
                static_cast<std::uint32_t>(i)});
    }
    std::sort(plan.entries_.begin() + plan.bucket_begin_[b],
              plan.entries_.end(), [](const Entry& a, const Entry& b2) {
                return a.window != b2.window ? a.window < b2.window
                                             : a.literal < b2.literal;
              });
  }
  for (std::size_t b = n_buckets; b <= kFatBuckets; ++b) {
    plan.bucket_begin_[b] = static_cast<std::uint32_t>(plan.entries_.size());
  }

  // Hit-density estimate from the finished masks: a bucket fires at a text
  // position exactly when every window row admits the byte there, so under
  // an independent byte_prior model its per-byte rate is the product over
  // rows of the admitted bytes' probability mass. Reading the masks back
  // (rather than the literals) prices bucket crowding the way the kernels
  // see it: literals sharing a bucket OR their rows together.
  double any_miss = 1.0;
  for (std::size_t b = 0; b < n_buckets; ++b) {
    const std::size_t half = b < 8 ? 0 : 16;
    const auto bbit = static_cast<std::uint8_t>(1u << (b & 7));
    double rate = 1.0;
    for (std::size_t p = 0; p < plan.k_; ++p) {
      double mass = 0.0;
      for (int c = 0; c < 256; ++c) {
        const auto uc = static_cast<unsigned char>(c);
        if ((plan.lo_[p][half + (uc & 15)] & plan.hi_[p][half + (uc >> 4)] &
             bbit) != 0) {
          mass += byte_prior_probability(uc);
        }
      }
      rate *= mass;
    }
    any_miss *= 1.0 - std::min(rate, 1.0);
  }
  plan.hit_density_ = 1.0 - any_miss;
  return plan;
}

void Plan::scan(std::string_view text, HitBuffer& hits) const {
  scan(text, hits, best_impl());
}

void Plan::scan(std::string_view text, HitBuffer& hits, Impl impl) const {
  hits.clear();
  if (text.size() < k_) return;
  const auto* data = reinterpret_cast<const unsigned char*>(text.data());
  if (!impl_available(impl)) impl = Impl::kScalar;
  if (n_buckets_ == kFatBuckets) {
    // Fat plans have an AVX2 kernel and the 16-bit-lane scalar shift-or;
    // SSSE3 has no 16-bucket variant, so it shares the scalar path (hit
    // sequences are byte-identical either way).
#if KIZZLE_TEDDY_X86
    if (impl == Impl::kAvx2) {
      scan_avx2_fat(lo_, hi_, k_, data, text.size(), hits);
      return;
    }
#endif
    scan_scalar(lo64_, hi64_, k_, 16, data, text.size(), hits);
    return;
  }
  switch (impl) {
#if KIZZLE_TEDDY_X86
    case Impl::kAvx2:
      scan_avx2(lo_, hi_, k_, data, text.size(), hits);
      return;
    case Impl::kSsse3:
      scan_ssse3(lo_, hi_, k_, data, text.size(), hits);
      return;
#else
    case Impl::kAvx2:
    case Impl::kSsse3:
#endif
    case Impl::kScalar:
      scan_scalar(lo64_, hi64_, k_, 8, data, text.size(), hits);
      return;
  }
}

std::size_t Plan::confirm(std::string_view text, const HitBuffer& hits,
                          std::vector<std::uint8_t>& seen,
                          std::vector<std::size_t>& out, std::size_t n_seen,
                          std::size_t stop_at,
                          std::vector<std::uint32_t>* hint_at) const {
  const char* base = text.data();
  for (const Hit& hit : hits) {
    if (n_seen >= stop_at) break;
    const std::size_t at = hit.at;
    const std::uint32_t key = window_key(base + at);
    unsigned m = hit.buckets;
    while (m != 0) {
      const auto b = static_cast<unsigned>(__builtin_ctz(m));
      m &= m - 1;
      const Entry* e = entries_.data() + bucket_begin_[b];
      const Entry* e_end = entries_.data() + bucket_begin_[b + 1];
      e = std::lower_bound(e, e_end, key,
                           [](const Entry& x, std::uint32_t want) {
                             return x.window < want;
                           });
      for (; e != e_end && e->window == key; ++e) {
        const Literal& lit = lits_[e->literal];
        if (seen[lit.id] != 0) continue;
        // The matched window sits `off` bytes into the literal: the
        // occurrence would start at at-off and must fit the text.
        const std::size_t off = off_[e->literal];
        if (at < off || at - off + lit.text.size() > text.size()) continue;
        const char* start = base + (at - off);
        if (std::memcmp(start, lit.text.data(), off) != 0) continue;
        if (std::memcmp(start + off + k_, lit.text.data() + off + k_,
                        lit.text.size() - off - k_) != 0) {
          continue;
        }
        out.push_back(lit.id);  // before the mark: a throw leaves none
        seen[lit.id] = 1;
        if (hint_at != nullptr) {
          (*hint_at)[lit.id] = static_cast<std::uint32_t>(at - off);
        }
        ++n_seen;
      }
    }
  }
  return n_seen;
}

// ------------------------------- plan set -------------------------------

std::optional<PlanSet> PlanSet::build(std::vector<Literal> literals) {
  if (literals.empty()) return std::nullopt;
  // Length classes keyed by window length K = min(4, len): every literal
  // in a shard must be at least K bytes, and mixing a 1-byte literal into
  // a long-literal shard would drag the whole shard down to K=1. Classes
  // beyond the per-shard capacity split into near-even shards.
  std::array<std::vector<Literal>, 5> classes;
  for (Literal& lit : literals) {
    if (lit.text.empty()) continue;  // the prefilter never registers these
    classes[std::min<std::size_t>(4, lit.text.size())].push_back(
        std::move(lit));
  }

  PlanSet set;
  // Long-literal classes first: their windows are the most selective, so
  // on hot texts they reach stop_at soonest and the dense short shards are
  // skipped entirely once everything is already seen.
  for (int kclass = 4; kclass >= 1; --kclass) {
    std::vector<Literal>& cls = classes[static_cast<std::size_t>(kclass)];
    if (cls.empty()) continue;
    const std::size_t n_shards =
        (cls.size() + Plan::kShardMaxLiterals - 1) / Plan::kShardMaxLiterals;
    const std::size_t per = (cls.size() + n_shards - 1) / n_shards;
    for (std::size_t s = 0; s < n_shards; ++s) {
      const std::size_t begin = s * per;
      const std::size_t end = std::min(cls.size(), begin + per);
      std::vector<Literal> shard_lits(
          std::make_move_iterator(cls.begin() + static_cast<std::ptrdiff_t>(begin)),
          std::make_move_iterator(cls.begin() + static_cast<std::ptrdiff_t>(end)));
      const std::size_t buckets = shard_lits.size() > kFatThreshold
                                      ? Plan::kFatBuckets
                                      : Plan::kBuckets;
      std::optional<Plan> plan = Plan::build(std::move(shard_lits), buckets);
      if (!plan.has_value()) return std::nullopt;  // unreachable by sizing
      set.max_len_ = std::max(set.max_len_, plan->max_literal_len());
      set.shards_.push_back(std::move(*plan));
    }
  }
  if (set.shards_.empty()) return std::nullopt;
  return set;
}

std::size_t PlanSet::literal_count() const {
  std::size_t n = 0;
  for (const Plan& shard : shards_) n += shard.literal_count();
  return n;
}

double PlanSet::expected_hits_per_byte() const {
  double sum = 0.0;
  for (const Plan& shard : shards_) sum += shard.hit_density_estimate();
  return sum;
}

std::size_t PlanSet::find(std::string_view text, HitBuffer& hits,
                          std::vector<std::uint8_t>& seen,
                          std::vector<std::size_t>& out, std::size_t n_seen,
                          std::size_t stop_at, ScanCounters* counters,
                          std::vector<std::uint32_t>* hint_at,
                          const std::vector<std::uint8_t>* skip_shard) const {
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (n_seen >= stop_at) break;
    if (skip_shard != nullptr && i < skip_shard->size() &&
        (*skip_shard)[i] != 0) {
      continue;  // routed to the dense-shard automaton walk
    }
    const Plan& shard = shards_[i];
    shard.scan(text, hits);
    if (counters != nullptr) {
      counters->first_stage_hits += hits.size();
      ++counters->shards_scanned;
    }
    n_seen = shard.confirm(text, hits, seen, out, n_seen, stop_at, hint_at);
  }
  return n_seen;
}

}  // namespace kizzle::match::teddy
