#include <gtest/gtest.h>

#include "text/lexer.h"

namespace kizzle::text {
namespace {

std::vector<Token> strict(std::string_view src) {
  return lex(src, LexOptions{.tolerant = false});
}

TEST(Lexer, Fig8TokenizationExample) {
  // The paper's Fig 8: var Euur1V = this["l9D"]("ev#333399al");
  const auto tokens = strict(R"(var Euur1V = this["l9D"]("ev#333399al");)");
  ASSERT_EQ(tokens.size(), 11u);
  EXPECT_EQ(tokens[0].cls, TokenClass::Keyword);
  EXPECT_EQ(tokens[0].text, "var");
  EXPECT_EQ(tokens[1].cls, TokenClass::Identifier);
  EXPECT_EQ(tokens[1].text, "Euur1V");
  EXPECT_EQ(tokens[2].cls, TokenClass::Punctuator);
  EXPECT_EQ(tokens[3].cls, TokenClass::Keyword);  // this
  EXPECT_EQ(tokens[4].cls, TokenClass::Punctuator);
  EXPECT_EQ(tokens[5].cls, TokenClass::String);
  EXPECT_EQ(tokens[5].text, "\"l9D\"");
  EXPECT_EQ(tokens[8].cls, TokenClass::String);
  EXPECT_EQ(tokens[8].text, "\"ev#333399al\"");
}

TEST(Lexer, KeywordsVsIdentifiers) {
  const auto tokens = strict("var varx function functions");
  EXPECT_EQ(tokens[0].cls, TokenClass::Keyword);
  EXPECT_EQ(tokens[1].cls, TokenClass::Identifier);
  EXPECT_EQ(tokens[2].cls, TokenClass::Keyword);
  EXPECT_EQ(tokens[3].cls, TokenClass::Identifier);
}

TEST(Lexer, NullTrueFalseAreKeywords) {
  const auto tokens = strict("null true false");
  for (const auto& t : tokens) EXPECT_EQ(t.cls, TokenClass::Keyword);
}

TEST(Lexer, DollarAndUnderscoreIdentifiers) {
  const auto tokens = strict("$x _y $ _");
  ASSERT_EQ(tokens.size(), 4u);
  for (const auto& t : tokens) EXPECT_EQ(t.cls, TokenClass::Identifier);
}

TEST(Lexer, StringEscapes) {
  const auto tokens = strict(R"("a\"b" 'c\'d')");
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0].text, R"("a\"b")");
  EXPECT_EQ(tokens[1].text, R"('c\'d')");
}

TEST(Lexer, UnterminatedStringStrictThrows) {
  EXPECT_THROW(strict("\"abc"), LexError);
}

TEST(Lexer, UnterminatedStringTolerated) {
  const auto tokens = lex("\"abc");
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].cls, TokenClass::String);
}

TEST(Lexer, Numbers) {
  const auto tokens = strict("0 47 3.14 0x1F 1e3 2.5e-2 .5");
  ASSERT_EQ(tokens.size(), 7u);
  for (const auto& t : tokens) {
    EXPECT_EQ(t.cls, TokenClass::Number) << t.text;
  }
  EXPECT_EQ(tokens[3].text, "0x1F");
  EXPECT_EQ(tokens[6].text, ".5");
}

TEST(Lexer, NumberFollowedByIdentStartingWithE) {
  // "3e" with no exponent digits: the 'e' belongs to an identifier.
  const auto tokens = strict("3 ex");
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0].cls, TokenClass::Number);
  EXPECT_EQ(tokens[1].cls, TokenClass::Identifier);
}

TEST(Lexer, CommentsAreSkipped) {
  const auto tokens = strict("a // line comment\nb /* block */ c");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0].text, "a");
  EXPECT_EQ(tokens[2].text, "c");
}

TEST(Lexer, UnterminatedBlockCommentStrictThrows) {
  EXPECT_THROW(strict("a /* never ends"), LexError);
}

TEST(Lexer, MultiCharPunctuators) {
  const auto tokens = strict("a===b !== c >>>= d += e");
  std::vector<std::string> punct;
  for (const auto& t : tokens) {
    if (t.cls == TokenClass::Punctuator) punct.push_back(t.text);
  }
  EXPECT_EQ(punct, (std::vector<std::string>{"===", "!==", ">>>=", "+="}));
}

TEST(Lexer, RegexLiteralAfterPunctuator) {
  const auto tokens = strict("x = /ab+c/g;");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[2].cls, TokenClass::Regex);
  EXPECT_EQ(tokens[2].text, "/ab+c/g");
}

TEST(Lexer, DivisionAfterIdentifier) {
  const auto tokens = strict("a / b");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[1].cls, TokenClass::Punctuator);
  EXPECT_EQ(tokens[1].text, "/");
}

TEST(Lexer, RegexWithClassContainingSlash) {
  const auto tokens = strict("x = /[/]/;");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[2].cls, TokenClass::Regex);
}

TEST(Lexer, RegexAfterKeyword) {
  const auto tokens = strict("return /x/");
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[1].cls, TokenClass::Regex);
}

TEST(Lexer, NoRegexAfterThis) {
  const auto tokens = strict("this / that");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[1].cls, TokenClass::Punctuator);
}

TEST(Lexer, OffsetsPointIntoSource) {
  const std::string src = "var  abc = 1;";
  const auto tokens = strict(src);
  for (const auto& t : tokens) {
    EXPECT_EQ(src.substr(t.offset, t.text.size()), t.text);
  }
}

TEST(Lexer, ToleratesGarbageBytes) {
  const auto tokens = lex("a @ b \x01 c");
  // '@' and '\x01' become single-char punctuators in tolerant mode.
  ASSERT_EQ(tokens.size(), 5u);
  EXPECT_EQ(tokens[1].cls, TokenClass::Punctuator);
}

TEST(Lexer, StrictRejectsGarbageBytes) {
  EXPECT_THROW(strict("a @ b"), LexError);
}

TEST(Lexer, EmptyInput) {
  EXPECT_TRUE(strict("").empty());
  EXPECT_TRUE(strict("   \n\t ").empty());
}

TEST(Lexer, NormalizedTextStripsQuotes) {
  const auto tokens = strict(R"("ev#333399al" 'x' notstring)");
  EXPECT_EQ(normalized_text(tokens[0]), "ev#333399al");
  EXPECT_EQ(normalized_text(tokens[1]), "x");
  EXPECT_EQ(normalized_text(tokens[2]), "notstring");
}

TEST(Lexer, TokenClassNames) {
  EXPECT_EQ(token_class_name(TokenClass::Keyword), "Keyword");
  EXPECT_EQ(token_class_name(TokenClass::Punctuator), "Punctuation");
  EXPECT_EQ(token_class_name(TokenClass::String), "String");
}

// Larger script smoke: a realistic packer body lexes fully.
TEST(Lexer, PackerBodySmoke) {
  const char* src = R"JS(
var buffer="";
var delim="y6";
function collect(text) { buffer += text; }
collect("47 y642y6100y6");
pieces = buffer.split(delim);
screlem = document.createElement("script");
for (var i=0; i<pieces.length; i++) {
  screlem.text += String.fromCharCode(pieces[i]);
}
document.body.appendChild(screlem);
)JS";
  const auto tokens = strict(src);
  EXPECT_GT(tokens.size(), 60u);
}

TEST(Lexer, LexEachStreamsExactlyWhatLexReturns) {
  for (const char* src :
       {"a / b / c", "x = /re[/]x/g.test(y)", "this / 2", "f() / 3",
        "'unterminated", "var s = \"q\"; /* c */ z++ / 1", "\x01 @ #", ""}) {
    std::vector<Token> streamed;
    lex_each(src, LexOptions{.tolerant = true},
             [&](const Token& t) { streamed.push_back(t); });
    EXPECT_EQ(streamed, lex(src)) << src;
  }
}

}  // namespace
}  // namespace kizzle::text
