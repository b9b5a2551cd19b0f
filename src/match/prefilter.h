// Shared multi-pattern literal prefilter: the front of Kizzle's
// three-tier literal engine.
//
// A deployed signature database is scanned against every sample; running
// each pattern's own memmem pass makes whole-database scanning
// O(signatures × text). Real AV engines avoid that wall with multi-pattern
// literal matching: one streaming pass over the text determines which
// signatures could possibly match, and only those run full confirmation.
// End to end the engine is three tiers, each strictly cheaper per byte
// than the next:
//
//   tier 1 — SIMD first stage (match/teddy.h). Every registered literal's
//            rarest 1–4-byte window is folded into nibble-mask shuffle
//            tables; one pass of PSHUFB/AND work per 16–32 haystack bytes
//            leaves sparse candidate positions. The literal set is
//            compiled as a teddy::PlanSet: per-length-class shards (so
//            1–2-byte literals get their own K=1/K=2 shift-or shards
//            instead of disqualifying the whole set), oversized classes
//            split across shards, crowded shards widened to 16 Fat
//            buckets. There is no qualification gate — any non-empty
//            literal set compiles. Shards too dense for the SIMD pass
//            (kDenseRouteHitsPerByte) walk a small Aho–Corasick automaton
//            compiled over exactly their literals; no other automaton
//            exists in the product. Texts past Teddy's 32-bit position
//            space run the SIMD pass over overlapping in-place slices.
//            The test-only reference automaton (tests/testing) is the
//            differential oracle every first-stage route is pinned to.
//   tier 2 — window confirm (teddy::Plan::confirm). Each sparse hit is
//            resolved to literal occurrences by a per-bucket window-key
//            lookup plus bounded memcmp, deduplicated per id. Patterns
//            whose literal occurred become candidates; patterns with no
//            usable literal go on a fallback list and are *always*
//            candidates, so prefiltered scanning is exactly equivalent to
//            brute force: a pattern is only skipped when its required
//            literal — which every match must contain — is absent.
//   tier 3 — tiered signature confirmation (pattern.h ConfirmTier,
//            dispatched by engine::scan). Pure-literal signatures confirm
//            with a memchr/find, literal-dominated ones with a compiled
//            anchored-memcmp + bounded-skip program, and only genuinely
//            regex-shaped patterns run the backtracking VM.
//
// This header owns tiers 1–2 and the fallback list; see
// engine/engine.h for tier 3 and for the per-scan stats that count each
// tier's work (PrefilterStats below is the tier 1–2 slice).
//
// Build once, then share freely: candidates() is const and thread-safe, so
// one prefilter serves any number of concurrent batch-scan workers.
//
// All of it is derived state. build() compiles the plan set, the dense
// routing and the dense-shard automaton from the raw registrations; none
// of it is ever serialized — a release artifact (core/sigdb.h) ships the
// signatures alone and every process derives its matcher at load (cheaper
// than loading prebuilt tables ever was: BM_PrefilterBuild). There is one
// entry point, candidates_into(), and it runs once per whole text: data that
// arrives in pieces (a script streamed by the network, a large file read
// in blocks) is accumulated by engine::Stream and scanned at finish.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "match/teddy.h"

namespace kizzle::match {

// Why a scan did not take the Teddy first stage (kNone when it did).
enum class PrefilterFallback : std::uint8_t {
  kNone,           // Teddy first stage ran (possibly minus dense shards)
  kNoLiterals,     // nothing registered under literals (fallback ids only)
  kDenseLiterals,  // EVERY plan-set shard past kDenseRouteHitsPerByte
};

// Dense-shard routing threshold, applied PER SHARD: a shard whose expected
// first-stage candidates per scanned byte (teddy::Plan's build-time
// estimate under the byte prior) exceeds this is excised from the SIMD
// pass and its literals walk a dedicated sub-automaton instead. Past ~1
// hit per 5 bytes the SIMD pass is confirm-bound — every "sparse"
// candidate pays the window lookup the automaton folds into its single
// table walk — and on the literal set of BM_TeddyPrefilterShortLiterals/512
// an automaton walk measured faster than the SIMD pass. Routing per shard keeps
// the selective long-literal shards on the SIMD path even when one
// crowded short-literal shard is dense: one bad length class does not
// drag the whole database to the byte-at-a-time walk (only when every
// shard is dense does the sub-automaton cover the whole literal set,
// PrefilterFallback::kDenseLiterals). Real signature databases estimate
// orders of magnitude below this; only short-common-literal sets trip it.
inline constexpr double kDenseRouteHitsPerByte = 0.20;

// Tier 1–2 observability for one candidates_into() call (engine::Scratch
// embeds this in its ScanStats; `kizzle scan --stats` and the benches
// surface it). Counters are *overwritten* per call, not accumulated.
struct PrefilterStats {
  std::size_t first_stage_hits = 0;    // sparse candidate windows (tier 1)
  std::size_t shards_scanned = 0;      // PlanSet shards run over the text
  std::size_t literal_survivors = 0;   // distinct ids confirmed (tier 2)
  std::size_t dense_shards = 0;        // shards routed to the dense walk
  PrefilterFallback fallback = PrefilterFallback::kNone;
};

class LiteralPrefilter {
 public:
  // Registers pattern `id` under `literal`. An empty literal means the
  // pattern has no usable required literal; it goes on the fallback list.
  // Distinct ids may share one literal; each occurrence reports all of
  // them. An id must be registered either as fallback or under literals,
  // not both (the merged candidate list would report it twice).
  void add(std::size_t id, std::string_view literal);

  // Compiles the first stage. Must be called after the last add() and
  // before the first candidates(). May be called again after further
  // add()s; rebuilding is idempotent — every derived structure (including
  // the sorted/deduplicated fallback list) is regenerated from the raw
  // registrations, so an incrementally grown prefilter is
  // indistinguishable from one built fresh with the same final
  // registration set.
  void build();

  bool built() const { return built_; }

  // Total registered ids, and how many of them sit on the fallback list.
  std::size_t id_count() const { return n_ids_; }
  std::size_t fallback_count() const { return fallback_.size(); }

  // One pass over `text`: every id whose literal occurs in `text`, merged
  // with the fallback ids. Sorted ascending, deduplicated — callers that
  // want brute-force-identical first-match semantics just iterate in order
  // and stop at the first hit. Thread-safe.
  std::vector<std::size_t> candidates(std::string_view text) const;

  // Same, reusing `out` to avoid per-call allocation on hot paths.
  void candidates_into(std::string_view text,
                       std::vector<std::size_t>& out) const;

  // Same, additionally reusing `hits` as the Teddy first stage's candidate
  // position buffer (engine::Scratch owns one so steady-state scans stay
  // zero-alloc). `stats`, when non-null, receives this call's tier 1–2
  // counters. `hints`, when non-null, is grown to id_count capacity if
  // needed, and for every returned candidate holds the start of that id's
  // leftmost registered-literal occurrence in `text`, or teddy::kNoHint
  // where unknown (fallback ids, dense-shard ids, sliced texts). Entries
  // of non-candidates are stale and must not be read. Tier-3
  // confirmation seeds its anchor search there instead of re-finding the
  // literal from the start of the text. The per-call cost is
  // O(text + candidates), never O(id_count).
  void candidates_into(std::string_view text, std::vector<std::size_t>& out,
                       teddy::HitBuffer& hits, PrefilterStats* stats = nullptr,
                       std::vector<std::uint32_t>* hints = nullptr) const;

  // Ids with no usable literal (always candidates), sorted ascending.
  const std::vector<std::size_t>& fallback_ids() const { return fallback_; }

  // True when scans run the Teddy first stage (some literal is registered
  // and not every shard is dense-routed).
  bool teddy_active() const { return teddy_.has_value() && !teddy_dense_; }
  // True when EVERY compiled shard was judged too dense for the SIMD path
  // (kDenseRouteHitsPerByte) and the dense automaton covers every literal.
  bool teddy_dense() const { return teddy_dense_; }
  // Shards excised from the SIMD pass and routed to the dense-literal
  // automaton (0 on all-sparse sets; == shard_count when teddy_dense).
  std::size_t dense_shard_count() const { return n_dense_shards_; }
  // States of the dense-literal automaton; 0 when no shard is dense, in
  // which case no automaton was compiled at all.
  std::size_t dense_state_count() const { return dense_.out_link.size(); }
  // Per-shard dense-route flags, indexed like teddy_plans()->shards().
  const std::vector<std::uint8_t>& dense_shard_flags() const {
    return dense_shard_;
  }
  // The compiled sharded Teddy plan set, or nullptr when no literal is
  // registered. Exposed for the differential tests and benchmarks.
  const teddy::PlanSet* teddy_plans() const {
    return teddy_.has_value() ? &*teddy_ : nullptr;
  }

  // The raw (literal, id) registrations, in registration order (fallback
  // ids last, with empty literals). Views alias this prefilter's storage;
  // they are invalidated by add(), build(), and destruction.
  struct Registration {
    std::string_view literal;
    std::size_t id = 0;
  };
  std::vector<Registration> registrations() const;

 private:
  // Test-only access (tests/testing): drives the slicing route with small
  // slice sizes, which product code never uses.
  friend struct PrefilterTestPeer;

  struct Keyword {
    std::string literal;
    std::size_t id;
  };

  // One compiled Aho–Corasick automaton: dense goto table over a reduced
  // alphabet, fail links folded in, flattened per-state output lists.
  // Only the dense shards' literals are ever compiled into one.
  struct AcTables {
    std::array<std::uint16_t, 256> alpha{};
    std::size_t alpha_size = 0;
    std::vector<std::int32_t> next;       // n_states × alpha_size
    std::vector<std::int32_t> out_link;   // nearest suffix state with output
    std::vector<std::int32_t> out_begin;  // per-state slice into out_ids
    std::vector<std::int32_t> out_end;
    std::vector<std::size_t> out_ids;
  };

  // Compiles `keywords` (in order — table layout is order-deterministic).
  static AcTables compile_automaton(const std::vector<Keyword>& keywords);

  // Walks `t` over `text` from the start state, appending newly seen ids
  // to `out` (deduplicated via `seen`). Returns the updated seen-count;
  // exits early once it reaches `stop_at`.
  static std::size_t ac_walk(const AcTables& t, std::string_view text,
                             std::vector<std::uint8_t>& seen,
                             std::vector<std::size_t>& out,
                             std::size_t n_seen, std::size_t stop_at);

  // candidates_into() with the slicing route's bound explicit: texts up to
  // `slice` bytes run one Teddy pass that fills `hints`; longer ones run
  // it over overlapping in-place views of `slice` bytes (at least the
  // longest literal) and report no hints. Dense shards always walk the
  // whole text.
  void collect(std::string_view text, std::vector<std::size_t>& out,
               teddy::HitBuffer& hits, PrefilterStats* stats,
               std::vector<std::uint32_t>* hints, std::size_t slice) const;

  std::vector<Keyword> keywords_;
  std::vector<std::size_t> fallback_raw_;  // as registered, may repeat
  std::vector<std::size_t> fallback_;      // derived: sorted, deduplicated
  std::optional<teddy::PlanSet> teddy_;    // derived: SIMD first stage
  // Derived dense-shard routing (per-shard kDenseRouteHitsPerByte): flags
  // indexed like the plan set's shards, their count, the automaton over
  // exactly the flagged shards' literals, and whether ALL shards are
  // dense (the automaton then covers every literal and Teddy never runs).
  std::vector<std::uint8_t> dense_shard_;
  std::size_t n_dense_shards_ = 0;
  AcTables dense_;
  bool teddy_dense_ = false;
  std::size_t n_ids_ = 0;
  std::size_t id_limit_ = 0;  // max registered id + 1 (dedup bitmap size)
  std::size_t n_automaton_ids_ = 0;  // distinct ids reachable via literals
  bool built_ = false;

  static constexpr std::uint16_t kNoCode = 0xFFFF;
};

}  // namespace kizzle::match
