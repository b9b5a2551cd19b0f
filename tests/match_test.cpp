#include <gtest/gtest.h>

#include "match/pattern.h"
#include "match/program.h"

namespace kizzle::match {
namespace {

bool found(const std::string& pattern, std::string_view text) {
  return Pattern::compile(pattern).found_in(text);
}

TEST(Pattern, LiteralMatch) {
  EXPECT_TRUE(found("abc", "xxabcxx"));
  EXPECT_FALSE(found("abc", "ab"));
  EXPECT_FALSE(found("abc", "axbxc"));
}

TEST(Pattern, MatchSpan) {
  const auto p = Pattern::compile("bcd");
  const auto r = p.search("abcde");
  ASSERT_TRUE(r.matched);
  EXPECT_EQ(r.begin, 1u);
  EXPECT_EQ(r.end, 4u);
}

TEST(Pattern, Dot) {
  EXPECT_TRUE(found("a.c", "abc"));
  EXPECT_FALSE(found("a.c", "a\nc"));  // '.' does not cross lines
}

TEST(Pattern, EscapedMetachars) {
  EXPECT_TRUE(found("a\\.c", "a.c"));
  EXPECT_FALSE(found("a\\.c", "abc"));
  EXPECT_TRUE(found("\\(\\)", "()"));
  EXPECT_TRUE(found("a\\\\b", "a\\b"));
}

TEST(Pattern, CharClass) {
  EXPECT_TRUE(found("[abc]+", "zzbzz"));
  EXPECT_TRUE(found("[0-9a-f]{4}", "xx1a2bxx"));
  EXPECT_FALSE(found("[0-9]{4}", "12a4"));
}

TEST(Pattern, NegatedClass) {
  EXPECT_TRUE(found("[^0-9]", "a"));
  EXPECT_FALSE(found("[^0-9]", "5"));
}

TEST(Pattern, ClassWithLiteralDash) {
  EXPECT_TRUE(found("[a-]", "-"));
  EXPECT_TRUE(found("[-a]", "-"));
}

TEST(Pattern, ClassWithLeadingBracket) {
  EXPECT_TRUE(found("[]a]+", "]a]"));
}

TEST(Pattern, QuantifierStar) {
  EXPECT_TRUE(found("ab*c", "ac"));
  EXPECT_TRUE(found("ab*c", "abbbc"));
}

TEST(Pattern, QuantifierPlus) {
  EXPECT_FALSE(found("ab+c", "ac"));
  EXPECT_TRUE(found("ab+c", "abc"));
}

TEST(Pattern, QuantifierQuestion) {
  EXPECT_TRUE(found("ab?c", "ac"));
  EXPECT_TRUE(found("ab?c", "abc"));
  EXPECT_FALSE(found("ab?c", "abbc"));
}

TEST(Pattern, BoundedQuantifier) {
  EXPECT_TRUE(found("a{3}", "aaa"));
  EXPECT_FALSE(found("xa{3}x", "xaax"));
  EXPECT_TRUE(found("a{2,4}b", "aaab"));
  EXPECT_FALSE(found("^a{2,4}b$", "ab"));
  EXPECT_TRUE(found("a{2,}b", "aaaaaab"));
}

TEST(Pattern, BraceThatIsNotAQuantifierIsLiteral) {
  EXPECT_TRUE(found("a{x}", "a{x}"));
  EXPECT_TRUE(found("{", "{"));
}

TEST(Pattern, QuantifierGreediness) {
  const auto p = Pattern::compile("a.*b");
  const auto r = p.search("aXbYb");
  ASSERT_TRUE(r.matched);
  EXPECT_EQ(r.end, 5u);  // greedy: matches to the last b
}

TEST(Pattern, Alternation) {
  EXPECT_TRUE(found("cat|dog", "hotdog"));
  EXPECT_TRUE(found("cat|dog", "catalog"));
  EXPECT_FALSE(found("cat|dog", "bird"));
  EXPECT_TRUE(found("a(b|c)d", "acd"));
}

TEST(Pattern, Anchors) {
  EXPECT_TRUE(found("^abc", "abcdef"));
  EXPECT_FALSE(found("^abc", "xabc"));
  EXPECT_TRUE(found("def$", "abcdef"));
  EXPECT_FALSE(found("def$", "defx"));
  EXPECT_TRUE(found("^$", ""));
}

TEST(Pattern, NumberedGroupsAndBackrefs) {
  EXPECT_TRUE(found("(ab)\\1", "abab"));
  EXPECT_FALSE(found("(ab)\\1", "abac"));
  EXPECT_TRUE(found("(a)(b)\\2\\1", "abba"));
}

TEST(Pattern, NamedGroupsAndBackrefs) {
  // The construct Kizzle signatures rely on (Fig 10a): a templatized
  // variable captured once and referenced later.
  const auto p = Pattern::compile(
      "(?<var1>[0-9a-zA-Z]{3,6})=\\[\\k<var1>\\]");
  EXPECT_TRUE(p.found_in("xx abc1=[abc1] yy"));
  EXPECT_FALSE(p.found_in("xx abc1=[abc2] yy"));
}

TEST(Pattern, GroupCaptureContents) {
  const auto p = Pattern::compile("(?<name>[a-z]+)=(?<value>[0-9]+)");
  const auto r = p.search("  width=240;");
  ASSERT_TRUE(r.matched);
  ASSERT_EQ(p.group_count(), 2u);
  EXPECT_EQ(p.group_name(1), "name");
  ASSERT_TRUE(r.groups[1].has_value());
  EXPECT_EQ(r.groups[1]->begin, 2u);
  EXPECT_EQ(r.groups[1]->end, 7u);
}

TEST(Pattern, NonCapturingGroup) {
  const auto p = Pattern::compile("(?:ab)+c");
  EXPECT_TRUE(p.found_in("ababc"));
  EXPECT_EQ(p.group_count(), 0u);
}

TEST(Pattern, UnmatchedGroupBackrefMatchesEmpty) {
  // ECMAScript semantics: backreference to a group that never matched.
  EXPECT_TRUE(found("(a)?\\1b", "b"));
}

TEST(Pattern, EscapeClasses) {
  EXPECT_TRUE(found("\\d+", "abc123"));
  EXPECT_FALSE(found("\\d", "abc"));
  EXPECT_TRUE(found("\\w+", "a_1"));
  EXPECT_TRUE(found("\\s", " "));
  EXPECT_TRUE(found("\\D", "x"));
  EXPECT_FALSE(found("\\S", " \t"));
}

TEST(Pattern, EmptyLoopBodyTerminates) {
  // (a?)* with no 'a' in sight: the progress guard must stop the loop.
  EXPECT_TRUE(found("(a?)*b", "b"));
  EXPECT_TRUE(found("(a*)*b", "aaab"));
  EXPECT_FALSE(found("(a?)*c", "bbbb"));
}

TEST(Pattern, BudgetStopsCatastrophicBacktracking) {
  // (a+)+$ against a long non-matching tail — classic ReDoS shape.
  const auto p = Pattern::compile("(a+)+x");
  const std::string text(64, 'a');
  const auto r = p.search(text, 0, 200000);
  EXPECT_FALSE(r.matched);
  EXPECT_TRUE(r.budget_exceeded);
}

TEST(Pattern, ParseErrors) {
  EXPECT_THROW(Pattern::compile("("), PatternError);
  EXPECT_THROW(Pattern::compile("[a"), PatternError);
  EXPECT_THROW(Pattern::compile("a{3,1}"), PatternError);
  EXPECT_THROW(Pattern::compile("*a"), PatternError);
  EXPECT_THROW(Pattern::compile("\\k<nope>x"), PatternError);
  EXPECT_THROW(Pattern::compile("\\q"), PatternError);
  EXPECT_THROW(Pattern::compile("(?<dup>a)(?<dup>b)"), PatternError);
  EXPECT_THROW(Pattern::compile("\\2(a)"), PatternError);
}

TEST(Pattern, EscapeRoundTrip) {
  const std::string nasty = R"(a.b*c+d?e(f)g[h]i{j}k|l^m$n\o/p-q)";
  const std::string escaped = Pattern::escape(nasty);
  const auto p = Pattern::compile(escaped);
  EXPECT_TRUE(p.found_in("xx" + nasty + "yy"));
  EXPECT_FALSE(p.found_in("a.b*c+d?e(f)g[h]i{j}k|l^m$nXo/p-q"));
}

TEST(Pattern, RequiredLiteralExtraction) {
  const auto p = Pattern::compile("[0-9]{3}hello-world[a-z]+");
  EXPECT_EQ(p.required_literal(), "hello-world");
}

TEST(Pattern, PrefilterAgreesWithNaiveSearch) {
  // Same pattern, text placed at varying offsets — the literal prefilter
  // must find matches wherever they are.
  const auto p = Pattern::compile("[0-9]{2,5}LITERAL[a-z]{3}");
  for (std::size_t pad = 0; pad < 40; ++pad) {
    std::string text = std::string(pad, '.') + "123LITERALabc";
    EXPECT_TRUE(p.found_in(text)) << pad;
  }
  EXPECT_FALSE(p.found_in("123LITERA"));
  EXPECT_FALSE(p.found_in("LITERALabc"));  // missing digits
}

TEST(Pattern, SearchFromOffset) {
  const auto p = Pattern::compile("ab");
  const auto r = p.search("ab..ab", 1);
  ASSERT_TRUE(r.matched);
  EXPECT_EQ(r.begin, 4u);
}

TEST(Pattern, PaperStyleSignature) {
  // A Fig 9-shaped structural signature against normalized text.
  const auto p = Pattern::compile(
      R"((?<var0>[0-9a-zA-Z]{5,6})=this\[(?<var1>[0-9a-zA-Z]{3,5})\]\(.{11}\);)");
  EXPECT_TRUE(p.found_in("Euur1V=this[l9D](ev#333399al);"));
  EXPECT_TRUE(p.found_in("jkb0hA=this[uqA](ev#ccff00al);"));
  EXPECT_TRUE(p.found_in("QB0Xk=this[k3LSC](ev#33cc00al);"));
  // Too few identifier characters before '=': the {5,6} class cannot match.
  EXPECT_FALSE(p.found_in("ab12=this[l9D](ev#333399al);"));
  // Eleven-character wildcard is exact: a longer delimiter breaks it.
  EXPECT_FALSE(p.found_in("Euur1V=this[l9D](ev#3333999999al);"));
}

// ------------------------- confirmation tiers -------------------------

TEST(Pattern, ConfirmTierClassification) {
  // Pure literal (any length, even empty): confirmation is text.find().
  EXPECT_EQ(Pattern::compile("abc").confirm_tier(), ConfirmTier::kLiteral);
  EXPECT_EQ(Pattern::compile("a").confirm_tier(), ConfirmTier::kLiteral);
  EXPECT_EQ(Pattern::compile("").confirm_tier(), ConfirmTier::kLiteral);
  // Literal-dominated: an anchor literal plus fixed-width prefix and
  // bounded suffix steps.
  EXPECT_EQ(Pattern::compile("abc[0-9]{0,8}").confirm_tier(),
            ConfirmTier::kLiteralDominated);
  EXPECT_EQ(Pattern::compile("a.cdef").confirm_tier(),
            ConfirmTier::kLiteralDominated);
  EXPECT_EQ(Pattern::compile("ab[0-9]cd").confirm_tier(),
            ConfirmTier::kLiteralDominated);
  EXPECT_EQ(Pattern::compile("zq[0-9]{3}zq").confirm_tier(),
            ConfirmTier::kLiteralDominated);
  // Everything that breaks linearity or boundedness keeps the VM.
  EXPECT_EQ(Pattern::compile("ab|cd").confirm_tier(), ConfirmTier::kRegex);
  EXPECT_EQ(Pattern::compile("^abc").confirm_tier(), ConfirmTier::kRegex);
  EXPECT_EQ(Pattern::compile("abc$").confirm_tier(), ConfirmTier::kRegex);
  EXPECT_EQ(Pattern::compile("abc[0-9]*").confirm_tier(),
            ConfirmTier::kRegex);  // unbounded repeat
  EXPECT_EQ(Pattern::compile("(ab)\\1").confirm_tier(),
            ConfirmTier::kRegex);  // backreference
  EXPECT_EQ(Pattern::compile("a{0,3}bcd").confirm_tier(),
            ConfirmTier::kRegex);  // variable-width prefix
}

TEST(Pattern, ConfirmSpanAgreesWithVmSearch) {
  // Differential oracle: for every tier, every text, and every start
  // offset, confirm_span must produce exactly search_span's answer.
  const std::vector<std::string> sources = {
      "abc",          "a",           "",
      "abc[0-9]{0,8}", "a.cdef",     "ab[0-9]cd",
      "ab.?cd",       "zq[0-9]{3}zq", "xy[a-z]{2,4}z",
      "ab|cd",        "abc[0-9]*",
  };
  const std::vector<std::string> texts = {
      "",
      "abc",
      "xxabc12345678999 a.cdef abXcd",
      "abxd abcd ab7cd",
      "zq12zq zq123zq xyabz xyabcdz",
      "noise cd noise ab more",
      std::string("abc") + std::string(20, '1'),
  };
  VmScratch scratch;
  for (const std::string& src : sources) {
    const Pattern p = Pattern::compile(src);
    for (const std::string& text : texts) {
      for (std::size_t from = 0; from <= text.size() + 1; ++from) {
        const SpanResult want = p.search_span(text, scratch, from);
        const SpanResult got = p.confirm_span(text, scratch, from);
        ASSERT_EQ(got.matched, want.matched)
            << src << " on \"" << text << "\" from " << from;
        if (want.matched) {
          EXPECT_EQ(got.begin, want.begin) << src << " from " << from;
          EXPECT_EQ(got.end, want.end) << src << " from " << from;
        }
      }
    }
  }
}

std::vector<std::string> factors_of(const std::string& source) {
  const Pattern p = Pattern::compile(source);
  EXPECT_EQ(p.confirm_tier(), ConfirmTier::kRegex) << source;
  const auto f = p.necessary_factors();
  return {f.begin(), f.end()};
}

TEST(Pattern, NecessaryFactorsStopAtAlternationOptionalAndBackref) {
  using V = std::vector<std::string>;
  // Every top-level literal run of >= 3 bytes, in order; groups are
  // transparent and shorter runs are dropped.
  EXPECT_EQ(factors_of("abcd[0-9]+xy[a-z]*(efg)hij[0-9]+"),
            (V{"abcd", "efghij"}));
  // Top-level alternation: no factor from either branch.
  EXPECT_EQ(factors_of("abcdef|ghijkl"), V{});
  EXPECT_EQ(factors_of("abcd(?:efgh|ijkl)mnop"), (V{"abcd", "mnop"}));
  // Optional group: it breaks the run and contributes nothing.
  EXPECT_EQ(factors_of("abcd(?:efgh)?ijkl"), (V{"abcd", "ijkl"}));
  EXPECT_EQ(factors_of("abcd(efgh)*ijkl"), (V{"abcd", "ijkl"}));
  // Backreference: it breaks the run; the group's own text still counts.
  EXPECT_EQ(factors_of("(?<v>abcd)xyz\\k<v>wxyz"), (V{"abcdxyz", "wxyz"}));
  // The compiled tiers never run the VM, so they carry no gate.
  EXPECT_TRUE(Pattern::compile("abcdef").necessary_factors().empty());
  EXPECT_TRUE(
      Pattern::compile("abc[0-9]{0,8}def").necessary_factors().empty());
}

TEST(Pattern, FactorGateNeverHidesAVmMatch) {
  // Gate-shaped patterns against texts holding their factors in and out
  // of order, overlapping and at every start offset: a gated reject
  // requires the ungated VM to find nothing.
  const std::vector<std::string> sources = {
      "abc[0-9]*bcd",           "abc[0-9]+abc",
      "(x+)abc.{0,6}def\\1",  "abcd(?:12|34)?efgh[a-z]{2,9}ijk",
      "^abc[0-9]*def",          "abcab(?:y)?cabd",
  };
  const std::vector<std::string> texts = {
      "",
      "abcd",
      "abc12bcd",
      "bcd abc",
      "abcabc",
      "xxabcdefx",
      "xabc1234defx",
      "abcd34efghzzijk",
      "abcdefghijk abcd12efghqqijk",
      "abcabd abcabcabd",
      "abc9def",
  };
  VmScratch scratch;
  for (const std::string& src : sources) {
    const Pattern p = Pattern::compile(src);
    ASSERT_FALSE(p.necessary_factors().empty()) << src;
    for (const std::string& text : texts) {
      for (std::size_t from = 0; from <= text.size(); ++from) {
        const SpanResult want = p.search_span(text, scratch, from);
        const SpanResult got = p.confirm_span(text, scratch, from);
        ASSERT_FALSE(want.budget_exceeded);
        ASSERT_EQ(got.matched, want.matched)
            << src << " on \"" << text << "\" from " << from;
        if (got.gated) EXPECT_FALSE(want.matched);
        if (want.matched) {
          EXPECT_EQ(got.begin, want.begin) << src << " from " << from;
          EXPECT_EQ(got.end, want.end) << src << " from " << from;
        }
      }
    }
  }
}

TEST(Pattern, FactorGateTurnsBudgetBlowupIntoCleanNoMatch) {
  // The one allowed divergence from search_span(): the required literal
  // "yyyy" is present, so the ungated VM backtracks (x+x+)+ until its
  // budget runs out — but "zzz" never follows, which the gate proves
  // without running the VM.
  const Pattern p = Pattern::compile("(x+x+)+yyyy[0-9]+zzz");
  ASSERT_EQ(p.required_literal(), "yyyy");
  VmScratch scratch;
  const std::string xs(64, 'x');
  for (const std::string& text : {xs + "yyyy12", "zzz" + xs + "yyyy1"}) {
    const SpanResult ungated = p.search_span(text, scratch, 0, 200000);
    EXPECT_TRUE(ungated.budget_exceeded);
    const SpanResult gated = p.confirm_span(text, scratch, 0, 200000);
    EXPECT_TRUE(gated.gated);
    EXPECT_FALSE(gated.matched);
    EXPECT_FALSE(gated.budget_exceeded);
  }
  // With every factor in order the VM runs as before.
  const SpanResult ran =
      p.confirm_span("xxyyyy12zzz", scratch, 0, 200000);
  EXPECT_FALSE(ran.gated);
  EXPECT_TRUE(ran.matched);
}

TEST(Pattern, BoundedByteRepeatCompilesToOneRunOp) {
  // A Nuclear-style payload run: unrolled it would be ~19k instructions.
  const Pattern p = Pattern::compile("abc[0-9a-z]{12312,15672}\\.def");
  EXPECT_LT(p.compiled_program().code.size(), 16u);
  const std::string run(13000, 'q');
  VmScratch scratch;
  const SpanResult hit =
      p.search_span("xx abc" + run + ".def", scratch);
  ASSERT_TRUE(hit.matched);
  EXPECT_EQ(hit.begin, 3u);
  EXPECT_EQ(hit.end, 3u + 3 + run.size() + 4);
  // Greedy, then give back: the run stops short of the longest stretch
  // when only that leaves room for what follows.
  const Pattern tail = Pattern::compile("a[ab]{2,6}bc");
  const MatchResult r = tail.search("xaabbbbbcx");
  ASSERT_TRUE(r.matched);
  EXPECT_EQ(r.begin, 1u);
  EXPECT_EQ(r.end, 9u);
  EXPECT_FALSE(p.search_span("abc" + std::string(12311, 'q') + ".def",
                             scratch).matched);
  EXPECT_FALSE(p.search_span("abc" + std::string(15673, 'q') + ".def",
                             scratch).matched);
}

TEST(Pattern, CopySemantics) {
  auto a = Pattern::compile("ab+c");
  Pattern b = a;  // copy
  EXPECT_TRUE(b.found_in("xabbcx"));
  Pattern c = std::move(a);
  EXPECT_TRUE(c.found_in("xabcx"));
}

}  // namespace
}  // namespace kizzle::match
