// Teddy-style vectorized literal first stage for the prefilter.
//
// An Aho–Corasick automaton walk is byte-at-a-time: every scanned byte
// costs a dependent table load, so single-stream throughput is
// capped by load latency no matter how literal-friendly the database is.
// Hyperscan's Teddy algorithm trades the automaton for SIMD nibble tables:
// a K-byte (1–4) window of every registered literal is folded into
// 16-entry low-nibble/high-nibble shuffle masks, one per window position,
// each entry a per-bucket bitmask. A PSHUFB per table turns 16 (SSSE3)
// or 32 (AVX2) haystack bytes into per-byte bucket masks at once; ANDing
// the per-position masks (shifted against each other, with carry across
// block boundaries) leaves a byte non-zero exactly where some bucket's
// K-byte window ends. Those sparse candidate positions are then confirmed
// by exact comparison against the bucket's literals and mapped back to
// pattern ids.
//
// Plan is the compiled form of ONE shard: up to kShardMaxLiterals literals
// sharing one window length K and one bucket width. build() first picks
// each literal's *rarest* K-byte window — scored by byte frequency over
// the whole literal set, which approximates the scanned content's
// distribution since deployed literals are chunks of real samples —
// rather than blindly using the first K bytes: signature databases cut
// from similar samples share head bytes (digit streams, packer idioms),
// and a first-bytes-only first stage degenerates to a hit on nearly every
// byte. It then groups the windows into buckets (sorted, contiguous
// chunks — shared windows cluster, which keeps the masks selective),
// derives the shuffle tables, and indexes each bucket's literals by their
// window for O(log n) confirmation; a hit at position p means some bucket
// literal's window matches there, and the literal itself is compared at
// p − offset.
//
// Two bucket widths share the machinery:
//
//   8 buckets    the classic plan: one mask byte per scanned byte, 32
//                bytes per AVX2 step. Used for shards small enough that 8
//                buckets keep the anchor rows sparse.
//   16 buckets   the *Fat* plan for crowded shards: mask entries are 16
//                bits (low byte = buckets 0–7, high byte = 8–15), the
//                AVX2 kernel duplicates 16 haystack bytes across both
//                128-bit lanes (lane 0 resolves the low mask byte, lane 1
//                the high one), so wide sets keep one sparse anchor row
//                per bucket at half the bytes-per-step.
//
// PlanSet is the compiled form of an ARBITRARY literal set: literals are
// partitioned into per-length-class shards (window length K = 1, 2, 3 or
// 4), oversized classes split into multiple shards, each shard compiled
// as a Plan (Fat once it is crowded). find() scans the shards
// back-to-back over the same text through one shared HitBuffer — so
// short-literal and >4096-literal registrations keep the SIMD first stage
// instead of falling back to the automaton walk. The 1–2-byte shards run
// the same shift-or dataflow with K=1/2 (the vector kernels degenerate to
// pure table lookups); their hits are denser, but confirmation is a
// window-key lookup plus a bounded memcmp and the per-id dedup bitmap
// caps total work.
//
// First-stage kernels, all interchangeable per shard:
//
//   kScalar  portable 64-bit shift-or: per byte, one table pair lookup
//            yields all K per-position masks packed into a 64-bit word
//            (8- or 16-bit lanes); the running state is shifted one lane
//            and ANDed — exactly the SIMD dataflow one byte at a time.
//            Runs on any host, and is the fallback for Fat plans when
//            AVX2 is absent (SSSE3 has no 16-bucket kernel).
//   kSsse3 / kAvx2  the vector kernels (compiled via per-function target
//            attributes, selected at runtime with cpu-feature detection,
//            so one binary serves any x86-64 host and non-x86 builds keep
//            the scalar path).
//
// All kernels emit byte-identical Hit sequences — asserted by the
// differential tests in tests/teddy_test.cpp — so candidate sets never
// depend on the host's vector width.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace kizzle::match::teddy {

// One first-stage candidate: some bucket literal's K-byte window occurs at
// text[at .. at+K). `buckets` is the bitmask of buckets to confirm (16
// bits so Fat plans fit; 8-bucket plans use the low byte). Positions are
// 32-bit: scanned units are samples/stream windows; the prefilter slices
// longer texts.
struct Hit {
  std::uint32_t at = 0;
  std::uint16_t buckets = 0;

  bool operator==(const Hit&) const = default;
};

// Reusable candidate-position buffer. Hot paths (engine::Scratch, the
// streaming matcher) keep one warm so steady-state scans stay
// allocation-free.
using HitBuffer = std::vector<Hit>;

// "No position hint" sentinel for per-id hint arrays (positions fit 32
// bits — longer texts are sliced before they reach a plan).
inline constexpr std::uint32_t kNoHint = 0xFFFFFFFFu;

enum class Impl { kScalar, kSsse3, kAvx2 };

// The static byte frequency prior used to pick each literal's rarest
// window, modeling normalized JS (normalize_raw output: whitespace/quotes
// stripped, so letters/digits/punctuation dominate). Exposed for the
// static analyzer (analyze/analyze.h), which scores literal quality and
// shard hit density against the same prior the planner optimizes for.
double byte_prior(unsigned char b);
// The prior as a probability: byte_prior(b) / sum over all 256 bytes.
double byte_prior_probability(unsigned char b);

// Whether `impl` was compiled in AND the running CPU supports it (kScalar
// is always available).
bool impl_available(Impl impl);
// The fastest available kernel on this host, resolved once.
Impl best_impl();
const char* impl_name(Impl impl);

// Per-find() observability counters (surfaced through the prefilter into
// engine::Scratch stats).
struct ScanCounters {
  std::size_t first_stage_hits = 0;  // candidate windows across all shards
  std::size_t shards_scanned = 0;
};

class Plan {
 public:
  struct Literal {
    std::string text;
    std::size_t id = 0;
  };

  static constexpr std::size_t kBuckets = 8;
  static constexpr std::size_t kFatBuckets = 16;
  // One shard's capacity. Beyond this even 16 buckets get so crowded that
  // first-stage hits stop being sparse; PlanSet splits larger classes
  // into multiple shards instead.
  static constexpr std::size_t kShardMaxLiterals = 8192;

  // Compiles one shard over `n_buckets` (8 or 16) buckets. The window
  // length K is min(4, shortest literal length). Returns nullopt when the
  // set is empty or exceeds kShardMaxLiterals.
  static std::optional<Plan> build(std::vector<Literal> literals,
                                   std::size_t n_buckets = kBuckets);

  std::size_t prefix_len() const { return k_; }  // 1..4
  std::size_t bucket_count() const { return n_buckets_; }
  std::size_t max_literal_len() const { return max_len_; }
  std::size_t literal_count() const { return lits_.size(); }

  // Expected first-stage candidate windows per scanned byte under the
  // byte_prior distribution, computed at build() time from the finished
  // shuffle masks: for each bucket, the product over window positions of
  // the prior probability mass of bytes whose mask includes the bucket;
  // combined across buckets as 1 - prod(1 - d_b). ~0 for selective shards;
  // approaching 1 when nearly every position hits (the confirm-bound case
  // the automaton handles better). Drives dense-shard routing
  // (prefilter.h) and the analyzer's density diagnostics.
  double hit_density_estimate() const { return hit_density_; }

  // Introspection for the static analyzer: the shard's literals and each
  // literal's chosen rare-window offset.
  const std::vector<Literal>& literals() const { return lits_; }
  std::uint32_t window_offset(std::size_t lit_index) const {
    return off_[lit_index];
  }

  // First stage: scans `text` and overwrites `hits` with every candidate
  // position, in ascending order. Thread-safe (the plan is immutable).
  void scan(std::string_view text, HitBuffer& hits) const;
  void scan(std::string_view text, HitBuffer& hits, Impl impl) const;

  // Second stage: confirms `hits` against `text` by exact literal
  // comparison. Every id whose literal occurs at a hit and is not yet
  // marked in `seen` (indexed by id, sized by the caller) is marked and
  // appended to `out`. Returns the updated seen-count; stops early once it
  // reaches `stop_at` (every filterable id found). `hint_at`, when
  // non-null (indexed by id, sized by the caller), receives for every id
  // this call newly marks the start position of its leftmost literal
  // occurrence — hits ascend
  // and each literal has one fixed window offset, so the first confirmed
  // occurrence is the leftmost one.
  std::size_t confirm(std::string_view text, const HitBuffer& hits,
                      std::vector<std::uint8_t>& seen,
                      std::vector<std::size_t>& out, std::size_t n_seen,
                      std::size_t stop_at,
                      std::vector<std::uint32_t>* hint_at = nullptr) const;

 private:
  Plan() = default;

  // K bytes as a big-endian integer (first byte most significant), the
  // bucket-local confirmation key of a literal's chosen window.
  std::uint32_t window_key(const char* p) const;

  struct Entry {
    std::uint32_t window = 0;   // window_key of the literal's rare window
    std::uint32_t literal = 0;  // index into lits_
  };

  // Nibble shuffle tables, one row per window position (rows >= k_ stay
  // zero): lo_[p][n] is the low mask byte (buckets 0–7) of literals whose
  // window byte p has low nibble n, lo_[p][16+n] the high mask byte
  // (buckets 8–15, Fat plans only); hi_ likewise for the high nibble.
  // 32-byte aligned so the vector kernels load them directly (the 8-bucket
  // kernels use only the first 16 bytes of each row).
  alignas(32) std::uint8_t lo_[4][32] = {};
  alignas(32) std::uint8_t hi_[4][32] = {};
  // The same tables packed for the scalar kernel: lane p (8-bit lanes for
  // 8-bucket plans, 16-bit for Fat) of lo64_[n] is the position-p mask, so
  // one 64-bit AND evaluates all K positions per byte.
  std::uint64_t lo64_[16] = {};
  std::uint64_t hi64_[16] = {};

  std::size_t k_ = 3;
  std::size_t n_buckets_ = kBuckets;
  std::size_t max_len_ = 0;
  double hit_density_ = 0.0;
  std::vector<Literal> lits_;
  std::vector<std::uint32_t> off_;  // per-literal rare-window offset
  std::vector<Entry> entries_;  // grouped by bucket, sorted by window within
  std::array<std::uint32_t, kFatBuckets + 1> bucket_begin_ = {};
};

// The compiled first stage of a whole literal database: per-length-class
// shards scanned back-to-back. Short literals (length 1–2) get their own
// K=1/K=2 shards; classes larger than Plan::kShardMaxLiterals are split;
// crowded shards go Fat. build() fails only on an empty set — there is no
// qualification gate anymore, so the prefilter never falls back to the
// automaton for real databases.
class PlanSet {
 public:
  using Literal = Plan::Literal;

  // A shard crowded past this many literals is compiled with 16 (Fat)
  // buckets: at 8 buckets it would average >128 literals per bucket and
  // the OR-ed anchor rows stop being sparse.
  static constexpr std::size_t kFatThreshold = 1024;

  static std::optional<PlanSet> build(std::vector<Literal> literals);

  std::size_t shard_count() const { return shards_.size(); }
  const std::vector<Plan>& shards() const { return shards_; }
  std::size_t max_literal_len() const { return max_len_; }
  std::size_t literal_count() const;

  // Expected candidate windows per scanned byte across all shards (sum of
  // the per-shard estimates — shards scan the text back-to-back, so their
  // confirm costs add). The prefilter compares this against its dense-route
  // threshold to decide SIMD vs automaton.
  double expected_hits_per_byte() const;

  // Scans every shard over `text` (sharing `hits` as the per-shard
  // candidate buffer) and confirms into `seen`/`out` exactly like
  // Plan::confirm. Returns the updated seen-count; stops early at
  // `stop_at`. `counters`, when non-null, accumulates first-stage stats;
  // `hint_at` forwards to Plan::confirm (leftmost-occurrence positions).
  // `skip_shard`, when non-null, is indexed by shard position: flagged
  // shards are not scanned — the prefilter routes its dense shards to an
  // automaton walk instead and excises them from the SIMD pass here.
  std::size_t find(std::string_view text, HitBuffer& hits,
                   std::vector<std::uint8_t>& seen,
                   std::vector<std::size_t>& out, std::size_t n_seen,
                   std::size_t stop_at, ScanCounters* counters = nullptr,
                   std::vector<std::uint32_t>* hint_at = nullptr,
                   const std::vector<std::uint8_t>* skip_shard = nullptr) const;

 private:
  PlanSet() = default;

  std::vector<Plan> shards_;
  std::size_t max_len_ = 0;
};

}  // namespace kizzle::match::teddy
