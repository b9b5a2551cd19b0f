// The unified scan engine: one compiled database, per-thread scratch,
// event-driven matching (the Hyperscan compile/scratch/callback split).
//
// The paper deploys one compiled signature set through three very
// different admission points (browser, desktop, CDN) plus the pipeline's
// own coverage checks and the simulated AV baseline. All of them used to
// carry their own matching surface — per-scan candidate buffers, per-scan
// result vectors, a different result shape each. This header is the single
// seam they now share:
//
//   engine::Database   immutable compiled form of a signature set: the
//                      compiled patterns plus the shared literal
//                      prefilter. Built once (from specs, deployed
//                      signatures, precompiled entries, or a `.kpf`
//                      release artifact) and then shared read-only by any
//                      number of threads.
//   engine::Scratch    per-thread/per-worker mutable working memory: the
//                      candidate vector, the first stage's hit and hint
//                      buffers, the accumulated stream text, and the
//                      backtracking VM's buffers. Steady-state scanning
//                      (one-shot or streamed) with a warm Scratch performs
//                      ZERO heap allocations (asserted in
//                      tests/engine_test.cpp); buffers grow to the
//                      database's high-water mark and stay.
//   scan()/confirm()   event-driven matching: every matching signature is
//                      delivered as a MatchEvent (index, span, name,
//                      family) to a callback that returns Continue or
//                      Stop. First-match consumers (deployment channels,
//                      the AV baseline) and all-matches consumers (the
//                      CLI, the experiments) are the same code path — they
//                      differ only in what the callback returns.
//   open_stream()      scanning for text that arrives in chunks: feed()
//                      appends each piece to the scratch under the
//                      stream's governance, finish() runs exactly scan()
//                      over the accumulated text.
//
// Events are delivered in ascending signature-index order (== issue
// order), so "first event" is exactly the brute-force first-match answer.
// Candidate confirmation is *tiered* (match::ConfirmTier): pure-literal
// signatures confirm with a find(), literal-dominated ones with their
// compiled confirm program, and only regex-shaped patterns run the
// backtracking VM — whose budget overruns are skipped and counted in
// ScanOutcome::budget_exceeded, never delivered.
//
// The sharded Teddy SIMD literal first stage (match/teddy.h) plugs in
// behind this seam — scans route through it with no channel changes — and
// per-scan counters for every tier surface through Scratch::stats().
//
// ----------------- Resource governance & failure taxonomy -----------------
//
// Scanned bytes are attacker-controlled, and a worker that hangs on one
// pathological document stops serving everyone behind it. The engine is
// therefore *governed*: a ScanLimits envelope (engine/limits.h) rides on
// the Scratch — per worker, like every other piece of mutable scan state —
// and applies to every scan()/confirm()/stream on that scratch:
//
//   max_input_bytes   bytes past the cap are dropped at intake (one-shot
//                     scans clip the text view; streams stop consuming
//                     feeds), never prefiltered, never confirmed against.
//   vm_step_budget    tightens the per-candidate backtracking-VM budget;
//                     the compiled literal/literal-dominated confirm tiers
//                     cannot blow up and ignore it.
//   wall_budget /     a wall-clock deadline, armed when the scan (or
//   deadline          stream) starts and checked only at cheap boundaries:
//                     stage transitions, chunk feeds, every few candidate
//                     confirmations. The scan returns at the next boundary
//                     after expiry — it never preempts mid-candidate, and
//                     it NEVER throws for a limit breach.
//
// Every breach is data, not control flow: ScanOutcome carries a ScanStatus
// (Complete / Truncated / BudgetExhausted / DeadlineExpired, most severe
// wins) plus the stage that hit the limit and the dropped byte count,
// right next to the ScanStats counters. A default ScanLimits bounds
// nothing and costs a few predictable branches — the governed hot path is
// the same zero-allocation hot path (asserted in tests/limits_test.cpp).
//
// Failures *outside* the scan path — malformed `.kpf` artifacts, corrupt
// deltas, unparsable signature databases — throw the typed
// taxonomy in support/errors.h (ArtifactError / InputError /
// ResourceError, all kizzle::Error, all std::runtime_error) instead of
// ad-hoc runtime_errors: loaders reject hostile bytes with a clean typed
// error and bounded allocation, never UB (fuzzed in fuzz/, pinned by
// tests/hostile_input_test.cpp). The deployment channels translate scan
// outcomes into per-channel fail-open/fail-closed policy (core/deploy.h).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "engine/limits.h"
#include "match/pattern.h"
#include "match/prefilter.h"

namespace kizzle::core {
struct DeployedSignature;
struct DeltaArtifact;
}

namespace kizzle::engine {

// One delivered match. `name`/`family` view the database's own storage and
// stay valid for the database's lifetime; the span is in the scanned text.
struct MatchEvent {
  std::size_t sig_index = 0;  // index into the database
  std::size_t begin = 0;      // match span in the scanned (normalized) text
  std::size_t end = 0;
  std::string_view name;
  std::string_view family;
};

enum class ScanDecision { Continue, Stop };

// Non-owning callable reference (no std::function: a capturing lambda must
// not cost a heap allocation on the scan path). The referenced callable
// only needs to outlive the call it is passed to.
template <typename Signature>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
                std::is_invocable_r_v<R, F&, Args...>>>
  FunctionRef(F&& fn) noexcept  // NOLINT: implicit by design
      : obj_(const_cast<void*>(static_cast<const void*>(std::addressof(fn)))),
        call_([](void* obj, Args... args) -> R {
          return (*static_cast<std::add_pointer_t<F>>(obj))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return call_(obj_, std::forward<Args>(args)...);
  }

 private:
  void* obj_;
  R (*call_)(void*, Args...);
};

// on_match: return Continue for all-matches semantics, Stop after the
// first event for first-match semantics.
using MatchFn = FunctionRef<ScanDecision(const MatchEvent&)>;
// Pre-confirmation gate: return false to skip a candidate without running
// the VM (e.g. a signature not yet deployed on the scanned day).
using CandidateFn = FunctionRef<bool(std::size_t)>;

struct ScanOutcome {
  std::size_t events = 0;           // MatchEvents delivered
  std::size_t budget_exceeded = 0;  // candidates skipped on VM budget
  bool stopped = false;             // the callback returned Stop

  // Resource-governance verdict (engine/limits.h): how the scan ended
  // (most severe breach wins), which stage hit the limit, and how many
  // input bytes the intake cap dropped. kComplete/kNone/0 on an
  // ungoverned or in-bounds scan. A non-Complete status means the event
  // list may be incomplete — the channels decide fail-open vs fail-closed.
  ScanStatus status = ScanStatus::kComplete;
  ScanStage limited_stage = ScanStage::kNone;
  std::size_t truncated_bytes = 0;

  bool complete() const { return status == ScanStatus::kComplete; }
};

// Per-scan observability, owned by the Scratch and overwritten by each
// scan on it (never accumulated): the prefilter's tier 1–2 counters plus
// how the candidates split across the confirmation tiers. scan() and
// Stream::finish() fill everything; confirm() fills the candidate/tier
// counters and zeroes the prefilter slice (the candidate list arrived
// from outside the call). Reading it costs nothing on the scan path — the
// counters are plain increments on memory the scratch already owns.
struct ScanStats {
  match::PrefilterStats prefilter;  // first-stage hits, shards, survivors
  std::size_t candidates = 0;       // ids handed to the confirmation loop
  std::size_t confirmed_literal = 0;            // pure find() confirmations
  std::size_t confirmed_literal_dominated = 0;  // compiled confirm programs
  std::size_t confirmed_vm = 0;  // backtracking VM runs actually started
  std::size_t gated = 0;  // kRegex candidates a missing factor rejected
                          // before the VM (Pattern::necessary_factors)
};

// ------------------------------ database ------------------------------

// Immutable compiled signature database. Construction compiles (or
// adopts) the patterns and builds (or adopts) the literal prefilter; after
// that every member is const and safe to share across threads.
class Database {
 public:
  // Source form of one signature.
  struct Spec {
    std::string name;
    std::string family;
    std::string pattern;  // regex source
  };

  // Precompiled form (name/family label + compiled pattern).
  struct Entry {
    std::string name;
    std::string family;
    match::Pattern pattern;
  };

  // An empty database: scans deliver no events.
  Database();
  Database(Database&&) noexcept = default;
  Database& operator=(Database&&) noexcept = default;

  // Compiles pattern sources; throws match::PatternError on bad input.
  static Database compile(const std::vector<Spec>& specs);
  // Compiles a deployed signature set (core::DeployedSignature.pattern).
  static Database compile(const std::vector<core::DeployedSignature>& sigs);
  // Adopts precompiled entries and builds the prefilter over them.
  static Database from_entries(std::vector<Entry> entries);
  // Adopts precompiled entries plus a prefilter the caller built over
  // them (ids == entry indices). Throws kizzle::ArtifactError if it is
  // unbuilt or its id count disagrees with the entry list.
  static Database from_entries(std::vector<Entry> entries,
                               match::LiteralPrefilter prebuilt);
  // Loads a `.kpf` bundle artifact (core/sigdb.h) and compiles it: the
  // artifact holds only signatures, so this is compile() over the loaded
  // set — deterministic, and the same cost as any cold start. Throws the
  // loader's kizzle::Error taxonomy on malformed input, and
  // match::PatternError for a pattern this binary cannot compile. When
  // `signatures_out` is non-null it receives the deployment metadata
  // (issued day, token length) the database itself does not retain.
  static Database from_artifact(
      std::istream& artifact,
      std::vector<core::DeployedSignature>* signatures_out = nullptr);

  // A database holding this database's entries plus `extra`, with the
  // prefilter rebuilt over the union. Existing patterns are shared, not
  // recompiled — the incremental deployment path (one new signature per
  // release).
  Database extend(Entry extra) const;

  // Applies a delta artifact (core/sigdb.h): tombstones `delta.retired`
  // and appends `delta.added`, compiling ONLY the added patterns (existing
  // compiled programs are shared) plus the prefilter's plan set — the cost
  // is O(changed) pattern compiles, with no automaton unless a shard is
  // dense. Lineage is enforced both ways: throws
  // kizzle::ArtifactError if `delta.base_fingerprint` does not match this
  // database's fingerprint(), or if the applied result does not reproduce
  // `delta.result_fingerprint`. The prefilter is rebuilt over all
  // non-retired entries; retired slots keep their index (events keep
  // meaning "index into the deployed lineage") but can never match again.
  Database extend(const core::DeltaArtifact& delta) const;

  // Lineage fingerprint of this database's signature identity set +
  // tombstones (core::fingerprint-compatible). Computed at construction.
  std::uint64_t fingerprint() const { return fingerprint_; }

  // True for a slot retired by a delta: kept for index stability, skipped
  // by every confirmation loop.
  bool entry_retired(std::size_t index) const {
    return index < retired_.size() && retired_[index] != 0;
  }
  // Entries minus tombstones — the number of signatures that can match.
  std::size_t active_size() const { return entries_.size() - retired_count_; }

  std::size_t size() const { return entries_.size(); }
  const std::string& name(std::size_t index) const;
  const std::string& family(std::size_t index) const;
  const match::Pattern& pattern(std::size_t index) const;
  // Read-only view over all entries; the scan loop indexes it directly
  // after its own bounds check instead of paying the per-field throwing
  // accessors per candidate.
  std::span<const Entry> entries() const { return entries_; }
  const match::LiteralPrefilter& prefilter() const { return prefilter_; }

 private:
  void build_prefilter();
  void refresh_fingerprint();

  std::vector<Entry> entries_;
  match::LiteralPrefilter prefilter_;
  // Tombstone bitmap (parallel to entries_; empty == nothing retired).
  std::vector<unsigned char> retired_;
  std::size_t retired_count_ = 0;
  std::uint64_t fingerprint_ = 0;
};

// ------------------------------- scratch -------------------------------

class Stream;

// Per-thread (or per in-flight document) mutable scan state. Everything a
// scan needs to allocate lives here and is recycled across calls: the
// candidate list, the first stage's hit and hint buffers, the accumulated
// stream text, and the VM's backtracking buffers. A Scratch may be
// used with any number of databases over its lifetime (buffers re-size on
// first contact with a larger database, then stabilize). Not thread-safe:
// one Scratch per concurrent scan.
class Scratch {
 public:
  Scratch() = default;
  Scratch(Scratch&&) noexcept = default;
  Scratch& operator=(Scratch&&) noexcept = default;
  Scratch(const Scratch&) = delete;
  Scratch& operator=(const Scratch&) = delete;

  // The accumulated (normalized) text of the stream currently open on this
  // scratch — identical to the concatenation of every feed() since
  // open_stream(). Valid until the next open_stream()/scan() on this
  // scratch.
  const std::string& stream_text() const { return normalized_; }

  // Counters of the most recent scan()/confirm()/finish() on this scratch.
  const ScanStats& stats() const { return stats_; }

  // The resource envelope every subsequent scan/confirm/stream on this
  // scratch runs under. Copy-in by value (the struct is a handful of
  // words); the default bounds nothing. Changing limits mid-stream is
  // undefined — set them before open_stream().
  void set_limits(const ScanLimits& limits) { limits_ = limits; }
  const ScanLimits& limits() const { return limits_; }

 private:
  friend class Stream;
  friend ScanOutcome scan(const Database&, std::string_view, Scratch&,
                          MatchFn);
  friend ScanOutcome scan(const Database&, std::string_view, Scratch&,
                          CandidateFn, MatchFn);
  friend ScanOutcome confirm(const Database&, std::span<const std::size_t>,
                             std::string_view, Scratch&, MatchFn);
  friend Stream open_stream(const Database&, Scratch&);

  std::vector<std::size_t> candidates_;
  // The Teddy first stage's candidate-position buffer (match/teddy.h):
  // grows to the database/text high-water mark and stays, like every other
  // buffer here, so one-shot scans stay allocation-free in steady state.
  match::teddy::HitBuffer teddy_hits_;
  // Per-id leftmost-literal-occurrence positions from the prefilter's
  // tier-2 confirm (teddy::kNoHint where unknown): confirmation seeds each
  // candidate's anchor search there instead of re-scanning the text.
  std::vector<std::uint32_t> hints_;
  std::string normalized_;  // stream accumulation buffer
  match::VmScratch vm_;
  ScanStats stats_;
  ScanLimits limits_;
  // Stream governance (valid between open_stream() and the next rewind):
  // the armed deadline (epoch = none), whether it has already expired
  // (feeds stop consuming once it does), and bytes dropped by the intake
  // cap — reported as ScanOutcome::truncated_bytes at finish().
  std::chrono::steady_clock::time_point stream_deadline_{};
  bool stream_deadline_hit_ = false;
  std::size_t stream_dropped_ = 0;
};

// ------------------------------- scanning ------------------------------

// One-shot scan of `text`: prefilter pass, then candidate confirmation in
// ascending index order, one MatchEvent per matching signature (first
// match span each) until the callback stops the scan.
ScanOutcome scan(const Database& db, std::string_view text, Scratch& scratch,
                 MatchFn on_match);
// Same, with a pre-confirmation candidate gate.
ScanOutcome scan(const Database& db, std::string_view text, Scratch& scratch,
                 CandidateFn should_confirm, MatchFn on_match);

// Confirms an ascending candidate list (as produced by the prefilter)
// against `text`. scan() == prefilter + confirm(), minus the anchor
// hints the prefilter hands straight to confirmation.
ScanOutcome confirm(const Database& db, std::span<const std::size_t> candidates,
                    std::string_view text, Scratch& scratch, MatchFn on_match);

// Convenience for the ubiquitous first-match shape: the lowest-index
// matching signature, or nullopt. (A scan that only needs a yes/no or a
// single hit should not have to write a callback.) When `outcome` is
// non-null it receives the scan's governance verdict — a first-match
// consumer under ScanLimits (the serve workers) needs the match AND the
// status in one call, since "no match" on a truncated or expired scan is
// not the same answer as "no match" on a complete one.
std::optional<MatchEvent> first_match(const Database& db, std::string_view text,
                                      Scratch& scratch,
                                      ScanOutcome* outcome = nullptr);

// ------------------------------- streams -------------------------------

// Scan over text that arrives in chunks. A Stream is a thin borrowing
// handle: all state lives in the Scratch (and the Database), which must
// both outlive it; one open stream per Scratch at a time. feed() only
// appends — the whole text is scanned once, at finish(), by the same
// first stage and confirmation a one-shot scan runs. finish() is a
// snapshot: feeding may continue afterwards, and a later finish() scans
// everything fed so far.
class Stream {
 public:
  // Appends the next chunk of (already normalized) scan text, subject to
  // the stream's deadline and intake cap.
  void feed(std::string_view normalized_chunk);

  // Scans the accumulated text: identical to scan(db, <all chunks
  // concatenated>, scratch, on_match), stats included, except that the
  // deadline was armed at open_stream() and bytes the intake cap dropped
  // were dropped at feed().
  ScanOutcome finish(MatchFn on_match) const;
  // First-match snapshot; `outcome` (optional) receives the governance
  // verdict, mirroring first_match().
  std::optional<MatchEvent> finish_first(ScanOutcome* outcome = nullptr) const;

  // The accumulated text (== scratch.stream_text()).
  const std::string& text() const { return scratch_->normalized_; }
  std::size_t bytes_fed() const { return scratch_->normalized_.size(); }

 private:
  friend Stream open_stream(const Database&, Scratch&);
  Stream(const Database* db, Scratch* scratch) : db_(db), scratch_(scratch) {}

  const Database* db_;
  Scratch* scratch_;
};

// Arms `scratch` for a new stream over `db` (emptying any previous
// stream's text and arming the stream's deadline) and returns the handle.
Stream open_stream(const Database& db, Scratch& scratch);

// ----------------------------- scratch pool ----------------------------

// A free list of Scratch instances for components that scan from many
// threads (CdnFilter workers, concurrent BrowserGate admissions): acquire
// a warm scratch, scan, return it on handle destruction. Steady state
// serves every worker from recycled scratches — the lock is held only for
// the list pop/push, never during a scan.
class ScratchPool {
 public:
  class Handle {
   public:
    Handle(Handle&& other) noexcept
        : pool_(other.pool_), scratch_(std::move(other.scratch_)) {
      other.pool_ = nullptr;
    }
    Handle& operator=(Handle&&) = delete;
    Handle(const Handle&) = delete;
    Handle& operator=(const Handle&) = delete;
    ~Handle() {
      if (pool_ != nullptr) pool_->release(std::move(scratch_));
    }

    Scratch& operator*() const { return *scratch_; }
    Scratch* operator->() const { return scratch_.get(); }

   private:
    friend class ScratchPool;
    Handle(ScratchPool* pool, std::unique_ptr<Scratch> scratch)
        : pool_(pool), scratch_(std::move(scratch)) {}
    ScratchPool* pool_;
    std::unique_ptr<Scratch> scratch_;
  };

  Handle acquire() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!free_.empty()) {
        std::unique_ptr<Scratch> s = std::move(free_.back());
        free_.pop_back();
        return Handle(this, std::move(s));
      }
    }
    return Handle(this, std::make_unique<Scratch>());
  }

 private:
  void release(std::unique_ptr<Scratch> scratch) {
    std::lock_guard<std::mutex> lock(mu_);
    free_.push_back(std::move(scratch));
  }

  std::mutex mu_;
  std::vector<std::unique_ptr<Scratch>> free_;
};

}  // namespace kizzle::engine
