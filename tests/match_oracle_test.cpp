// Differential testing of the regex VM against a tiny reference
// implementation, on randomized patterns and subjects.
//
// The reference covers the grammar subset used by generated signatures
// (literals, character classes with bounds, '.', concatenation) with
// straightforward backtracking — trivially correct, hopeless performance.
// The production VM must agree with it everywhere, and so must the
// tiered, factor-gated confirm_span() the engine scans with: on match
// verdicts and on the leftmost-greedy span. Wide bounded repeats
// ({0,300}, {50,400}, {m}) exercise the VM's Run op, whose step charge
// must equal the unrolled form's.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "match/pattern.h"
#include "match/program.h"
#include "support/rng.h"

namespace kizzle::match {
namespace {

// ------------------------- reference matcher -------------------------

struct RefPiece {
  enum class Kind { Literal, Class, Any } kind;
  char literal = 0;
  std::string chars;  // Class: allowed characters
  std::size_t min = 1;
  std::size_t max = 1;
};

bool piece_accepts(const RefPiece& p, char c) {
  switch (p.kind) {
    case RefPiece::Kind::Literal: return c == p.literal;
    case RefPiece::Kind::Class:
      return p.chars.find(c) != std::string::npos;
    case RefPiece::Kind::Any: return c != '\n';
  }
  return false;
}

// Can pieces[i..] match text[pos..] exactly to some end? Returns every
// reachable end position set as a boolean table to keep it simple.
bool ref_match_here(const std::vector<RefPiece>& pieces, std::size_t i,
                    std::string_view text, std::size_t pos) {
  if (i == pieces.size()) return true;
  const RefPiece& p = pieces[i];
  // Consume between min and max characters accepted by this piece.
  std::size_t consumed = 0;
  // first consume the mandatory part
  while (consumed < p.min) {
    if (pos + consumed >= text.size() ||
        !piece_accepts(p, text[pos + consumed])) {
      return false;
    }
    ++consumed;
  }
  for (;;) {
    if (ref_match_here(pieces, i + 1, text, pos + consumed)) return true;
    if (consumed >= p.max || pos + consumed >= text.size() ||
        !piece_accepts(p, text[pos + consumed])) {
      return false;
    }
    ++consumed;
  }
}

bool ref_search(const std::vector<RefPiece>& pieces, std::string_view text) {
  for (std::size_t pos = 0; pos <= text.size(); ++pos) {
    if (ref_match_here(pieces, 0, text, pos)) return true;
  }
  return false;
}

// The span the VM must report: the leftmost start, and from it the first
// success in backtracking priority order (every piece tries its longest
// count first). With no captures, the outcome from (piece, position) never
// depends on how it was reached, so it is memoized — which keeps wide
// repeats tractable.
struct RefSpan {
  bool matched = false;
  std::size_t begin = 0;
  std::size_t end = 0;
};

class RefGreedy {
 public:
  RefGreedy(const std::vector<RefPiece>& pieces, std::string_view text)
      : pieces_(pieces),
        text_(text),
        memo_(pieces.size() * (text.size() + 1), kUnknown) {}

  RefSpan leftmost() {
    for (std::size_t pos = 0; pos <= text_.size(); ++pos) {
      const std::size_t end = end_from(0, pos);
      if (end != kNoMatch) return RefSpan{true, pos, end};
    }
    return {};
  }

 private:
  static constexpr std::size_t kUnknown = SIZE_MAX;
  static constexpr std::size_t kNoMatch = SIZE_MAX - 1;

  std::size_t end_from(std::size_t i, std::size_t pos) {
    if (i == pieces_.size()) return pos;
    std::size_t& memo = memo_[i * (text_.size() + 1) + pos];
    if (memo != kUnknown) return memo;
    const RefPiece& p = pieces_[i];
    std::size_t feasible = 0;
    while (feasible < p.max && pos + feasible < text_.size() &&
           piece_accepts(p, text_[pos + feasible])) {
      ++feasible;
    }
    std::size_t result = kNoMatch;
    for (std::size_t count = feasible + 1; count-- > p.min;) {
      result = end_from(i + 1, pos + count);
      if (result != kNoMatch) break;
    }
    memo = result;
    return result;
  }

  const std::vector<RefPiece>& pieces_;
  std::string_view text_;
  std::vector<std::size_t> memo_;
};

std::string render_atom(const RefPiece& p) {
  switch (p.kind) {
    case RefPiece::Kind::Literal:
      return Pattern::escape(std::string(1, p.literal));
    case RefPiece::Kind::Class:
      return "[" + p.chars + "]";
    case RefPiece::Kind::Any:
      break;
  }
  return ".";
}

// Renders the piece list as a pattern string for Pattern::compile. With
// `unrolled`, every repeated atom is wrapped in a non-capturing group,
// which the compiler unrolls into Splits instead of emitting a Run op.
std::string render(const std::vector<RefPiece>& pieces,
                   bool unrolled = false) {
  std::string out;
  for (const RefPiece& p : pieces) {
    const bool repeated = p.min != 1 || p.max != 1;
    out += repeated && unrolled ? "(?:" + render_atom(p) + ")"
                                : render_atom(p);
    if (!repeated) continue;
    out += p.min == p.max ? "{" + std::to_string(p.min) + "}"
                          : "{" + std::to_string(p.min) + "," +
                                std::to_string(p.max) + "}";
  }
  return out;
}

// Random pattern over a small alphabet (so matches actually happen).
std::vector<RefPiece> random_pattern(Rng& rng) {
  static constexpr std::string_view kAlpha = "abc";
  std::vector<RefPiece> pieces;
  const std::size_t n = 1 + rng.index(5);
  for (std::size_t i = 0; i < n; ++i) {
    RefPiece p;
    switch (rng.index(3)) {
      case 0:
        p.kind = RefPiece::Kind::Literal;
        p.literal = kAlpha[rng.index(kAlpha.size())];
        break;
      case 1: {
        p.kind = RefPiece::Kind::Class;
        // non-empty subset of the alphabet
        do {
          p.chars.clear();
          for (char c : kAlpha) {
            if (rng.chance(0.5)) p.chars.push_back(c);
          }
        } while (p.chars.empty());
        break;
      }
      default:
        p.kind = RefPiece::Kind::Any;
        break;
    }
    if (rng.chance(0.5)) {
      p.min = rng.index(3);
      p.max = p.min + rng.index(3);
    }
    if (p.max == 0) p.max = p.min = 1;  // avoid empty-only pieces mid-test
    pieces.push_back(p);
  }
  return pieces;
}

class OracleSweep : public ::testing::TestWithParam<int> {};

void expect_span(const SpanResult& actual, const RefSpan& expected,
                 const std::string& what) {
  EXPECT_FALSE(actual.budget_exceeded) << what;
  EXPECT_EQ(actual.matched, expected.matched) << what;
  if (actual.matched && expected.matched) {
    EXPECT_EQ(actual.begin, expected.begin) << what;
    EXPECT_EQ(actual.end, expected.end) << what;
  }
}

TEST_P(OracleSweep, VmAgreesWithReference) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 6151 + 17);
  VmScratch scratch;
  for (int trial = 0; trial < 60; ++trial) {
    const auto pieces = random_pattern(rng);
    const std::string source = render(pieces);
    Pattern compiled = Pattern::compile(source);
    for (int t = 0; t < 12; ++t) {
      const std::string text = rng.string_over("abc", rng.index(12));
      const std::string what = "pattern=" + source + " text=\"" + text + "\"";
      const bool expected = ref_search(pieces, text);
      EXPECT_EQ(compiled.found_in(text), expected) << what;
      const RefSpan span = RefGreedy(pieces, text).leftmost();
      EXPECT_EQ(span.matched, expected) << what;  // the references agree
      expect_span(compiled.search_span(text, scratch), span, what);
      expect_span(compiled.confirm_span(text, scratch), span, what);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OracleSweep, ::testing::Range(0, 20));

// Signature-shaped patterns: one wide bounded repeat — {0,300}, {50,400}
// or an exact {m} — on a class, '.' or a literal, among narrow pieces and
// 3-4 byte literal words (the factors confirm_span gates the VM on).
std::vector<RefPiece> random_wide_pattern(Rng& rng) {
  static constexpr std::string_view kAlpha = "abc";
  std::vector<RefPiece> pieces;
  const auto add_word = [&] {
    const std::size_t len = 3 + rng.index(2);
    for (std::size_t i = 0; i < len; ++i) {
      RefPiece p;
      p.kind = RefPiece::Kind::Literal;
      p.literal = kAlpha[rng.index(kAlpha.size())];
      pieces.push_back(p);
    }
  };
  const auto add_narrow = [&] {
    std::vector<RefPiece> one = random_pattern(rng);
    one.resize(1);
    pieces.push_back(one[0]);
  };
  RefPiece wide = random_pattern(rng)[0];
  switch (rng.index(3)) {
    case 0:
      wide.min = 0;
      wide.max = 300;
      break;
    case 1:
      wide.min = 50;
      wide.max = 400;
      break;
    default:
      wide.min = wide.max = 3 + rng.index(120);
      break;
  }
  const std::size_t before = rng.index(3);
  for (std::size_t i = 0; i < before; ++i) {
    rng.chance(0.5) ? add_word() : add_narrow();
  }
  pieces.push_back(wide);
  const std::size_t after = 1 + rng.index(3);
  for (std::size_t i = 0; i < after; ++i) {
    rng.chance(0.5) ? add_word() : add_narrow();
  }
  return pieces;
}

// Texts with long single-byte stretches (so the wide repeats can match),
// random filler and the occasional newline ('.' and negated classes stop
// there).
std::string random_wide_text(Rng& rng) {
  const std::size_t target = rng.chance(0.3) ? rng.index(40) : rng.index(460);
  std::string text;
  while (text.size() < target) {
    if (rng.chance(0.4)) {
      text.append(1 + rng.index(350), "abc"[rng.index(3)]);
    } else {
      text += rng.string_over("abcab\n", 1 + rng.index(20));
    }
  }
  return text.substr(0, target);
}

class WideRepeatSweep : public ::testing::TestWithParam<int> {};

TEST_P(WideRepeatSweep, VmAndConfirmAgreeWithReference) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 3);
  VmScratch scratch;
  int gated = 0;
  int matched = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const auto pieces = random_wide_pattern(rng);
    const std::string source = render(pieces);
    Pattern compiled = Pattern::compile(source);
    for (int t = 0; t < 8; ++t) {
      const std::string text = random_wide_text(rng);
      const std::string what = "pattern=" + source + " text=\"" + text + "\"";
      const RefSpan span = RefGreedy(pieces, text).leftmost();
      expect_span(compiled.search_span(text, scratch), span, what);
      const SpanResult confirmed = compiled.confirm_span(text, scratch);
      expect_span(confirmed, span, what);
      gated += confirmed.gated ? 1 : 0;
      matched += span.matched ? 1 : 0;
    }
  }
  // The sweep reaches both outcomes and the gate's reject path.
  EXPECT_GT(matched, 0);
  EXPECT_GT(gated, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WideRepeatSweep, ::testing::Range(0, 20));

// Across the wide sweep's shapes the Run op charges exactly the unrolled
// form's steps: the smallest budget that completes a search is the same
// for both compilations, so no pattern/text pair exceeds its budget where
// it did not before.
TEST(Oracle, RunOpChargesTheUnrolledSteps) {
  Rng rng(271828);
  VmScratch scratch;
  for (int trial = 0; trial < 40; ++trial) {
    const auto pieces = random_wide_pattern(rng);
    const Pattern run = Pattern::compile(render(pieces));
    const Pattern unrolled = Pattern::compile(render(pieces, true));
    ASSERT_LT(run.compiled_program().code.size(),
              unrolled.compiled_program().code.size());
    for (int t = 0; t < 3; ++t) {
      const std::string text = random_wide_text(rng);
      const std::string what =
          "pattern=" + run.source() + " text=\"" + text + "\"";
      // Steps the unrolled form needs: the least budget it completes with.
      std::uint64_t lo = 1;
      std::uint64_t hi = 1u << 22;
      ASSERT_FALSE(unrolled.search_span(text, scratch, 0, hi).budget_exceeded);
      while (lo < hi) {
        const std::uint64_t mid = lo + (hi - lo) / 2;
        if (unrolled.search_span(text, scratch, 0, mid).budget_exceeded) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      const SpanResult done = run.search_span(text, scratch, 0, lo);
      const SpanResult reference = unrolled.search_span(text, scratch, 0, lo);
      EXPECT_FALSE(done.budget_exceeded) << what;
      EXPECT_EQ(done.matched, reference.matched) << what;
      EXPECT_EQ(done.begin, reference.begin) << what;
      EXPECT_EQ(done.end, reference.end) << what;
      if (lo > 1) {
        EXPECT_TRUE(run.search_span(text, scratch, 0, lo - 1).budget_exceeded)
            << what;
      }
    }
  }
}

// Match spans agree with the reference's leftmost semantics for anchored
// attempts.
TEST(Oracle, AnchoredAgreement) {
  Rng rng(4096);
  for (int trial = 0; trial < 300; ++trial) {
    const auto pieces = random_pattern(rng);
    const std::string source = render(pieces);
    Pattern compiled = Pattern::compile(source);
    const std::string text = rng.string_over("abc", rng.index(10));
    for (std::size_t at = 0; at <= text.size(); ++at) {
      const bool expected = ref_match_here(pieces, 0, text, at);
      const bool actual = compiled.match_at(text, at).matched;
      EXPECT_EQ(actual, expected)
          << "pattern=" << source << " text=\"" << text << "\" at=" << at;
    }
  }
}

}  // namespace
}  // namespace kizzle::match
