#include <gtest/gtest.h>

#include "support/interner.h"
#include "text/abstraction.h"
#include "text/lexer.h"

namespace kizzle::text {
namespace {

std::vector<std::uint32_t> abstract(std::string_view src, Abstraction level,
                                    Interner& in) {
  const auto tokens = lex(src);
  return abstract_tokens(tokens, level, in);
}

TEST(Abstraction, IdentifierRandomizationIsInvisible) {
  // The whole point (§III.A): randomized variable names must not change
  // the abstract stream.
  Interner in;
  const auto a = abstract("var Euur1V = this[\"l9D\"](\"ev#333399al\");",
                          Abstraction::KeywordsAndPunct, in);
  const auto b = abstract("var jkb0hA = this[\"uqA\"](\"ev#ccff00al\");",
                          Abstraction::KeywordsAndPunct, in);
  EXPECT_EQ(a, b);
}

TEST(Abstraction, KeywordsRemainDistinct) {
  Interner in;
  const auto a = abstract("var x", Abstraction::KeywordsAndPunct, in);
  const auto b = abstract("return x", Abstraction::KeywordsAndPunct, in);
  EXPECT_NE(a, b);
}

TEST(Abstraction, PunctuatorsRemainDistinct) {
  Interner in;
  const auto a = abstract("a + b", Abstraction::KeywordsAndPunct, in);
  const auto b = abstract("a - b", Abstraction::KeywordsAndPunct, in);
  EXPECT_NE(a, b);
}

TEST(Abstraction, ClassOnlyMergesKeywords) {
  Interner in;
  const auto a = abstract("var x", Abstraction::ClassOnly, in);
  const auto b = abstract("return y", Abstraction::ClassOnly, in);
  EXPECT_EQ(a, b);
}

TEST(Abstraction, ClassOnlyKeepsClassesApart) {
  Interner in;
  const auto a = abstract("x", Abstraction::ClassOnly, in);
  const auto b = abstract("\"x\"", Abstraction::ClassOnly, in);
  const auto c = abstract("42", Abstraction::ClassOnly, in);
  EXPECT_NE(a[0], b[0]);
  EXPECT_NE(b[0], c[0]);
}

TEST(Abstraction, FullTextSeparatesEverything) {
  Interner in;
  const auto a = abstract("alpha", Abstraction::FullText, in);
  const auto b = abstract("beta", Abstraction::FullText, in);
  EXPECT_NE(a, b);
}

TEST(Abstraction, ClassTagCannotCollideWithRealToken) {
  // An identifier literally named "Identifier" must not merge with the
  // class tag for identifiers.
  Interner in;
  const auto tagged = abstract("someIdent", Abstraction::KeywordsAndPunct, in);
  const auto named = abstract("Identifier", Abstraction::FullText, in);
  EXPECT_NE(tagged[0], named[0]);
}

TEST(Abstraction, StreamLengthMatchesTokenCount) {
  Interner in;
  const auto tokens = lex("var a = 1 + 2;");
  const auto stream =
      abstract_tokens(tokens, Abstraction::KeywordsAndPunct, in);
  EXPECT_EQ(stream.size(), tokens.size());
}

TEST(Abstraction, SharedInternerIsStableAcrossCalls) {
  Interner in;
  const auto a1 = abstract("var x = \"s\";", Abstraction::KeywordsAndPunct, in);
  abstract("totally different tokens ( ) { }", Abstraction::KeywordsAndPunct,
           in);
  const auto a2 = abstract("var y = \"t\";", Abstraction::KeywordsAndPunct, in);
  EXPECT_EQ(a1, a2);
}

PendingStream pending(std::string_view src, Abstraction level,
                      const Interner& in) {
  PendingAbstraction abstraction(level, in);
  for (const Token& t : lex(src)) abstraction.add(t);
  return abstraction.take();
}

// Parallel ingest abstracts every sample against the interner as it stood
// before the batch, then commits the samples in order: the ids must be the
// ones serial interning assigns, misses shared between samples included.
TEST(Abstraction, PendingThenCommitInOrderMatchesSerialInterning) {
  const std::vector<std::string> sources = {
      "var a = \"s\"; a += 1;",
      "function f(x) { return x * 2; } /re+/g",
      "var b = f(3) + 1; while (b) { b--; } f(/re+/g)",
      "return;",
  };
  for (const Abstraction level :
       {Abstraction::ClassOnly, Abstraction::KeywordsAndPunct,
        Abstraction::FullText}) {
    Interner serial;
    Interner batched;
    for (Interner* in : {&serial, &batched}) abstract("if (q) {}", level, *in);

    std::vector<std::vector<std::uint32_t>> expected;
    for (const std::string& src : sources) {
      expected.push_back(abstract(src, level, serial));
    }
    std::vector<PendingStream> streams;
    for (const std::string& src : sources) {
      streams.push_back(pending(src, level, batched));
    }
    for (std::size_t i = 0; i < sources.size(); ++i) {
      EXPECT_EQ(commit_pending(std::move(streams[i]), batched), expected[i])
          << "sample " << i << " level " << static_cast<int>(level);
    }
    EXPECT_EQ(batched.size(), serial.size());
  }
}

TEST(Abstraction, PendingKeepsEachMissingSymbolOnce) {
  Interner in;
  abstract("x", Abstraction::FullText, in);
  const PendingStream p = pending("x y y x z y", Abstraction::FullText, in);
  EXPECT_EQ(p.missing, (std::vector<std::string>{"y", "z"}));
  EXPECT_EQ(p.misses, (std::vector<std::uint32_t>{0, 0, 1, 0}));
  EXPECT_EQ(p.ids[0], in.find("x"));
  EXPECT_EQ(in.size(), 1u);  // nothing interned before the commit
}

}  // namespace
}  // namespace kizzle::text
