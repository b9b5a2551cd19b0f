// JavaScript token model (paper Fig 8).
//
// Kizzle abstracts concrete JavaScript into a stream of classified tokens;
// clustering runs on the abstracted stream while signature generation needs
// the concrete text at each token offset. Token keeps both.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace kizzle::text {

enum class TokenClass : std::uint8_t {
  Keyword,     // var, function, return, ...
  Identifier,  // Euur1V, document, ...
  Punctuator,  // = [ ] ( ) ; += ...
  String,      // "ev#333399al" (text includes the quotes)
  Number,      // 47, 0x1F, 1.5e3
  Regex,       // /ab+c/g (regex literal, including flags)
};
inline constexpr std::size_t kTokenClasses =
    static_cast<std::size_t>(TokenClass::Regex) + 1;

// Short stable name for a token class ("Keyword", "Identifier", ...).
std::string_view token_class_name(TokenClass cls);

struct Token {
  TokenClass cls;
  std::string text;    // exact source slice
  std::size_t offset;  // byte offset in the source

  bool operator==(const Token&) const = default;
};

// The concrete text a token contributes to AV-normalized output: strings
// lose their surrounding quote characters (paper Fig 9: "quotation marks
// ... are automatically removed by AV scanners in a normalization step"),
// everything else passes through unchanged.
std::string_view normalized_text(const Token& t);

}  // namespace kizzle::text
