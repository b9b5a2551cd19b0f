// The signature matching engine: a self-contained regular-expression
// implementation covering exactly the constructs Kizzle signatures use
// (paper Fig 10) plus enough generality for hand-written AV signatures:
//
//   literals (with \-escaping), '.', character classes [..], [^..] with
//   ranges, quantifiers * + ? {m} {m,} {m,n} (greedy), alternation |,
//   anchors ^ $, capturing groups (..), named groups (?<name>..),
//   non-capturing groups (?:..), backreferences \1..\9 and \k<name>.
//
// Matching is a backtracking VM over a compiled program. Backtracking can
// blow up on adversarial patterns, so every search carries a step budget;
// exceeding it reports budget_exceeded instead of hanging — an AV engine
// must never be DoS-able by its own signature database.
//
// Compiled patterns carry a *literal pre-filter*: the longest literal run
// that any match must contain, plus the min/max distance from the match
// start. search() then only attempts matches around memmem hits of that
// literal, which makes scanning large sample streams cheap (Kizzle
// signatures are long and highly literal, see paper §IV).
//
// Prefiltering happens at three levels:
//
//   per-database  match/prefilter.h builds one multi-literal first stage
//                 over the required_literal() of *every* deployed pattern.
//                 A single pass over the text yields the candidate
//                 signature subset. Patterns with no usable literal stay on
//                 an always-check fallback list, so the prefiltered scan is
//                 exactly equivalent to running every pattern.
//   per-pattern   search() memmem-locates this pattern's required_literal()
//                 and only runs the VM around its occurrences; absent
//                 literal → immediate no-match, no VM steps charged.
//   VM gate       confirm_span() on a kRegex pattern first checks all of its
//                 necessary_factors() — every top-level literal run, not
//                 just the longest — with a greedy leftmost find() chain;
//                 a missing factor rejects the candidate before the VM
//                 starts.
//
// engine::scan (and every façade over engine::Database) confirms candidates
// through confirm_span(); search() and search_span() stay ungated and are
// its differential oracle.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace kizzle::match {

class PatternError : public std::runtime_error {
 public:
  PatternError(const std::string& what, std::size_t position)
      : std::runtime_error(what), position_(position) {}
  std::size_t position() const { return position_; }

 private:
  std::size_t position_;
};

struct Capture {
  std::size_t begin;
  std::size_t end;
};

struct MatchResult {
  bool matched = false;
  std::size_t begin = 0;  // valid iff matched
  std::size_t end = 0;
  std::vector<std::optional<Capture>> groups;  // index 0 unused; 1..n
  bool budget_exceeded = false;

  explicit operator bool() const { return matched; }
};

namespace detail {
struct Program;  // compiled form, private to the implementation
struct VmState;  // reusable VM working memory, private to the executor
}

// Confirmation tier, classified at compile() time. The database scan's
// candidate-confirmation path dispatches on this: only kRegex patterns pay
// for the backtracking VM.
enum class ConfirmTier : std::uint8_t {
  kLiteral,           // the whole pattern is one literal: confirm == find()
  kLiteralDominated,  // fixed-width prefix + literal + bounded suffix:
                      // confirm == anchored memcmp + bounded skip-loop
  kRegex,             // anything else: the backtracking VM runs
};

// Span-only search result for the allocation-free scan path: no capture
// group extraction, so confirming a candidate never touches the heap.
struct SpanResult {
  bool matched = false;
  bool budget_exceeded = false;
  // confirm_span() only: a necessary factor is absent, so the kRegex VM
  // never started (matched and budget_exceeded are false).
  bool gated = false;
  std::size_t begin = 0;  // valid iff matched
  std::size_t end = 0;

  explicit operator bool() const { return matched; }
};

// Reusable backtracking-VM working memory (capture slots, progress marks,
// undo log, backtrack stack). One VmScratch per thread/worker: recycling it
// across search_span() calls keeps the steady-state scan path free of heap
// allocation (buffers grow to the database's high-water mark, then stop).
// engine::Scratch owns one; standalone callers may construct their own.
class VmScratch {
 public:
  VmScratch();
  ~VmScratch();
  VmScratch(VmScratch&&) noexcept;
  VmScratch& operator=(VmScratch&&) noexcept;
  VmScratch(const VmScratch&) = delete;
  VmScratch& operator=(const VmScratch&) = delete;

 private:
  friend class Pattern;
  std::unique_ptr<detail::VmState> state_;
};

class Pattern {
 public:
  // "No position" sentinel (confirm_span's anchor_hint).
  static constexpr std::size_t knpos = std::string_view::npos;

  // Compiles `source`; throws PatternError on malformed input.
  static Pattern compile(std::string_view source);

  Pattern(Pattern&&) noexcept;
  Pattern& operator=(Pattern&&) noexcept;
  // Copies share the immutable compiled program (it is never mutated after
  // compile()), so copying a Pattern is O(1) — a signature container and
  // the engine database built from it hold one program between them.
  Pattern(const Pattern&);
  Pattern& operator=(const Pattern&);
  ~Pattern();

  // Unanchored search for the leftmost match at or after `from`.
  // `budget` caps VM steps for the whole search (0 = default budget).
  MatchResult search(std::string_view text, std::size_t from = 0,
                     std::uint64_t budget = 0) const;

  // Anchored attempt: does a match start exactly at `at`?
  MatchResult match_at(std::string_view text, std::size_t at,
                       std::uint64_t budget = 0) const;

  // Allocation-free variant of search(): same semantics (literal
  // quick-reject, budget, leftmost match), but reports only the match span
  // — no capture extraction — and runs the VM out of `scratch` instead of
  // per-call buffers. This is the engine's candidate-confirmation path.
  SpanResult search_span(std::string_view text, VmScratch& scratch,
                         std::size_t from = 0, std::uint64_t budget = 0) const;

  // Which confirmation strategy confirm_span() will take for this pattern.
  ConfirmTier confirm_tier() const;

  // Tier-dispatched equivalent of search_span(): identical results for
  // every pattern, but pure-literal and literal-dominated patterns confirm
  // through their compiled confirm program (a find()/memcmp skip-loop that
  // cannot blow up, so no budget is charged) and only regex-shaped
  // patterns run the VM, and only when the text holds every
  // necessary_factors() entry in order. This is what engine::scan
  // confirms candidates with; the equivalence is pinned by differential
  // tests. The one divergence: where search_span() would exhaust its
  // budget but a factor is absent, this reports a clean no-match.
  //
  // `anchor_hint`, when not npos, promises that the leftmost occurrence of
  // required_literal() in `text` starts exactly there (the prefilter's
  // tier-2 confirm already found it). The compiled tiers then seed their
  // anchor search at the hint instead of re-scanning the text from `from`
  // — the bytes at the hint are still verified, so a wrong hint costs
  // correct-but-slower, never a wrong span, as long as the leftmost
  // promise holds. Patterns whose confirm anchor differs from
  // required_literal() ignore the hint.
  SpanResult confirm_span(std::string_view text, VmScratch& scratch,
                          std::size_t from = 0, std::uint64_t budget = 0,
                          std::size_t anchor_hint = knpos) const;

  // Convenience: true iff the pattern occurs anywhere in `text`.
  bool found_in(std::string_view text) const { return search(text).matched; }

  const std::string& source() const { return source_; }

  // Name of capture group i (empty for unnamed); group_count() excludes the
  // implicit whole-match group.
  std::size_t group_count() const;
  const std::string& group_name(std::size_t index) const;

  // Longest literal every match must contain (pre-filter); empty if the
  // pattern has no usable required literal.
  const std::string& required_literal() const;

  // The ordered top-level literal runs (>= 3 bytes) every match contains,
  // which confirm_span() checks before any VM run. Empty for the compiled
  // tiers, which never run the VM, and for patterns without such runs.
  std::span<const std::string> necessary_factors() const;

  // Read-only view of the compiled program (match/program.h) — the seam
  // the static analyzer (analyze/analyze.h) walks to bound VM behavior.
  // The program is immutable and shared by all copies of this Pattern;
  // the reference stays valid as long as any copy lives.
  const detail::Program& compiled_program() const;

  // Escapes all regex metacharacters in `text` so the result matches it
  // literally. This is what the signature compiler uses for fixed tokens.
  static std::string escape(std::string_view text);

 private:
  Pattern();
  std::string source_;
  std::shared_ptr<const detail::Program> program_;
};

}  // namespace kizzle::match
