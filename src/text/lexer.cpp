#include "text/lexer.h"

#include <array>
#include <unordered_set>

namespace kizzle::text {

std::string_view token_class_name(TokenClass cls) {
  switch (cls) {
    case TokenClass::Keyword: return "Keyword";
    case TokenClass::Identifier: return "Identifier";
    case TokenClass::Punctuator: return "Punctuation";
    case TokenClass::String: return "String";
    case TokenClass::Number: return "Number";
    case TokenClass::Regex: return "Regex";
  }
  return "?";
}

std::string_view normalized_text(const Token& t) {
  if (t.cls == TokenClass::String && t.text.size() >= 2) {
    const char q = t.text.front();
    if ((q == '"' || q == '\'') && t.text.back() == q) {
      return std::string_view(t.text).substr(1, t.text.size() - 2);
    }
  }
  return t.text;
}

bool is_keyword(std::string_view word) {
  static const std::unordered_set<std::string_view> kKeywords = {
      "break",      "case",     "catch",   "continue", "debugger",
      "default",    "delete",   "do",      "else",     "finally",
      "for",        "function", "if",      "in",       "instanceof",
      "new",        "return",   "switch",  "this",     "throw",
      "try",        "typeof",   "var",     "void",     "while",
      "with",       "class",    "const",   "enum",     "export",
      "extends",    "import",   "super",   "let",      "static",
      "yield",      "null",     "true",    "false",
  };
  return kKeywords.contains(word);
}

namespace {

bool is_id_start(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
         c == '$' || static_cast<unsigned char>(c) >= 0x80;
}

bool is_id_part(char c) {
  return is_id_start(c) || (c >= '0' && c <= '9');
}

bool is_digit(char c) { return c >= '0' && c <= '9'; }

bool is_hex_digit(char c) {
  return is_digit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F');
}

bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' ||
         c == '\v';
}

// Multi-character punctuators, longest first so greedy matching works.
constexpr std::array<std::string_view, 34> kPunctuators = {
    ">>>=", "===",  "!==", ">>>", "<<=", ">>=", "**=", "...", "=>",
    "==",   "!=",   "<=",  ">=",  "&&",  "||",  "++",  "--",  "<<",
    ">>",   "+=",   "-=",  "*=",  "/=",  "%=",  "&=",  "|=",  "^=",
    "**",   "?.",   "??",  // ES2020-era, tolerated
    "+",    "-",    "*",   "%",
};

// Hands each token to `emit` (a callable taking Token&&) as soon as it is
// scanned, so callers choose whether tokens are collected or consumed.
template <typename Emit>
class Lexer {
 public:
  Lexer(std::string_view src, const LexOptions& opts, Emit& emit)
      : src_(src), opts_(opts), emit_(emit) {}

  void run() {
    while (skip_trivia(), pos_ < src_.size()) {
      const std::size_t start = pos_;
      const char c = src_[pos_];
      if (is_id_start(c)) {
        lex_identifier(start);
      } else if (is_digit(c) || (c == '.' && pos_ + 1 < src_.size() &&
                                 is_digit(src_[pos_ + 1]))) {
        lex_number(start);
      } else if (c == '"' || c == '\'') {
        lex_string(start, c);
      } else if (c == '/' && regex_allowed()) {
        lex_regex(start);
      } else {
        lex_punctuator(start);
      }
    }
  }

 private:
  void fail(const std::string& what, std::size_t offset) {
    throw LexError(what, offset);
  }

  void skip_trivia() {
    for (;;) {
      while (pos_ < src_.size() && is_space(src_[pos_])) ++pos_;
      if (pos_ + 1 < src_.size() && src_[pos_] == '/' &&
          src_[pos_ + 1] == '/') {
        pos_ += 2;
        while (pos_ < src_.size() && src_[pos_] != '\n') ++pos_;
        continue;
      }
      if (pos_ + 1 < src_.size() && src_[pos_] == '/' &&
          src_[pos_ + 1] == '*') {
        const std::size_t start = pos_;
        pos_ += 2;
        for (;;) {
          if (pos_ + 1 >= src_.size()) {
            if (!opts_.tolerant) fail("unterminated block comment", start);
            pos_ = src_.size();
            break;
          }
          if (src_[pos_] == '*' && src_[pos_ + 1] == '/') {
            pos_ += 2;
            break;
          }
          ++pos_;
        }
        continue;
      }
      return;
    }
  }

  void lex_identifier(std::size_t start) {
    while (pos_ < src_.size() && is_id_part(src_[pos_])) ++pos_;
    std::string text(src_.substr(start, pos_ - start));
    const TokenClass cls =
        is_keyword(text) ? TokenClass::Keyword : TokenClass::Identifier;
    emit(Token{cls, std::move(text), start});
  }

  void lex_number(std::size_t start) {
    if (src_[pos_] == '0' && pos_ + 1 < src_.size() &&
        (src_[pos_ + 1] == 'x' || src_[pos_ + 1] == 'X')) {
      pos_ += 2;
      while (pos_ < src_.size() && is_hex_digit(src_[pos_])) ++pos_;
    } else {
      while (pos_ < src_.size() && is_digit(src_[pos_])) ++pos_;
      if (pos_ < src_.size() && src_[pos_] == '.') {
        ++pos_;
        while (pos_ < src_.size() && is_digit(src_[pos_])) ++pos_;
      }
      if (pos_ < src_.size() && (src_[pos_] == 'e' || src_[pos_] == 'E')) {
        std::size_t save = pos_;
        ++pos_;
        if (pos_ < src_.size() && (src_[pos_] == '+' || src_[pos_] == '-')) {
          ++pos_;
        }
        if (pos_ < src_.size() && is_digit(src_[pos_])) {
          while (pos_ < src_.size() && is_digit(src_[pos_])) ++pos_;
        } else {
          pos_ = save;  // 'e' belongs to a following identifier
        }
      }
    }
    emit(Token{TokenClass::Number,
               std::string(src_.substr(start, pos_ - start)), start});
  }

  void lex_string(std::size_t start, char quote) {
    ++pos_;
    while (pos_ < src_.size()) {
      const char c = src_[pos_];
      if (c == '\\') {
        pos_ += 2;
        continue;
      }
      if (c == quote) {
        ++pos_;
        emit(Token{TokenClass::String,
                   std::string(src_.substr(start, pos_ - start)), start});
        return;
      }
      if (c == '\n' && !opts_.tolerant) {
        fail("unterminated string literal", start);
      }
      ++pos_;
    }
    if (!opts_.tolerant) fail("unterminated string literal", start);
    emit(Token{TokenClass::String,
               std::string(src_.substr(start, pos_ - start)), start});
  }

  // Standard heuristic: '/' starts a regex literal unless the previous
  // significant token can end an expression (identifier, literal, ')', ']',
  // '}', or the keywords this/true/false/null).
  bool regex_allowed() const {
    if (!has_prev_) return true;
    switch (prev_cls_) {
      case TokenClass::Identifier:
      case TokenClass::Number:
      case TokenClass::String:
      case TokenClass::Regex:
        return false;
      case TokenClass::Keyword:
        return !(prev_text_ == "this" || prev_text_ == "true" ||
                 prev_text_ == "false" || prev_text_ == "null");
      case TokenClass::Punctuator:
        return !(prev_text_ == ")" || prev_text_ == "]" || prev_text_ == "}" ||
                 prev_text_ == "++" || prev_text_ == "--");
    }
    return true;
  }

  // Every token's text is the source slice at its offset, so the previous
  // token is remembered as a view into the source.
  void emit(Token&& t) {
    has_prev_ = true;
    prev_cls_ = t.cls;
    prev_text_ = src_.substr(t.offset, t.text.size());
    emit_(std::move(t));
  }

  void lex_regex(std::size_t start) {
    ++pos_;  // consume '/'
    bool in_class = false;
    for (;;) {
      if (pos_ >= src_.size() || src_[pos_] == '\n') {
        if (!opts_.tolerant) fail("unterminated regex literal", start);
        break;
      }
      const char c = src_[pos_];
      if (c == '\\') {
        pos_ += 2;
        continue;
      }
      if (c == '[') in_class = true;
      if (c == ']') in_class = false;
      if (c == '/' && !in_class) {
        ++pos_;
        break;
      }
      ++pos_;
    }
    while (pos_ < src_.size() && is_id_part(src_[pos_])) ++pos_;  // flags
    emit(Token{TokenClass::Regex,
               std::string(src_.substr(start, pos_ - start)), start});
  }

  void lex_punctuator(std::size_t start) {
    for (std::string_view p : kPunctuators) {
      if (src_.substr(pos_).substr(0, p.size()) == p) {
        pos_ += p.size();
        emit(Token{TokenClass::Punctuator, std::string(p), start});
        return;
      }
    }
    const char c = src_[pos_];
    static constexpr std::string_view kSingle = "{}()[];,<>=!?:&|^~./";
    if (kSingle.find(c) == std::string_view::npos && !opts_.tolerant) {
      fail("unexpected character", pos_);
    }
    ++pos_;
    emit(Token{TokenClass::Punctuator, std::string(1, c), start});
  }

  std::string_view src_;
  LexOptions opts_;
  Emit& emit_;
  std::size_t pos_ = 0;
  bool has_prev_ = false;
  TokenClass prev_cls_ = TokenClass::Punctuator;
  std::string_view prev_text_;
};

}  // namespace

std::vector<Token> lex(std::string_view source, const LexOptions& opts) {
  std::vector<Token> out;
  out.reserve(source.size() / 4 + 8);
  auto collect = [&out](Token&& t) { out.push_back(std::move(t)); };
  Lexer(source, opts, collect).run();
  return out;
}

void lex_each(std::string_view source, const LexOptions& opts,
              const std::function<void(const Token&)>& sink) {
  auto forward = [&sink](Token&& t) { sink(t); };
  Lexer(source, opts, forward).run();
}

}  // namespace kizzle::text
