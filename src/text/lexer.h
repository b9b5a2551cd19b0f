// A self-contained JavaScript (ES5-level) lexer.
//
// Kizzle tokenizes every incoming sample, so the lexer is built for
// throughput and for resilience: drive-by malware is frequently malformed,
// so the default mode is tolerant — unterminated literals are clipped and
// unexpected bytes become single-character punctuators instead of failures.
// Strict mode (tolerant=false) throws LexError and is used in tests and by
// the unpackers, where malformed input indicates a wrong format guess.
#pragma once

#include <cstddef>
#include <functional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "text/token.h"

namespace kizzle::text {

class LexError : public std::runtime_error {
 public:
  LexError(const std::string& what, std::size_t offset)
      : std::runtime_error(what), offset_(offset) {}
  std::size_t offset() const { return offset_; }

 private:
  std::size_t offset_;
};

struct LexOptions {
  bool tolerant = true;
};

// Tokenizes JavaScript source. Comments and whitespace are consumed and do
// not appear in the output. Regex literals are recognized with the standard
// prev-token heuristic (a '/' starts a regex unless the previous significant
// token can end an expression).
std::vector<Token> lex(std::string_view source, const LexOptions& opts = {});

// The tokens lex() returns, handed to `sink` one at a time and in order
// without collecting them: the pipeline's ingest consumes each token as
// it is scanned and keeps none.
void lex_each(std::string_view source, const LexOptions& opts,
              const std::function<void(const Token&)>& sink);

// True if `word` is a JavaScript keyword / reserved word (ES5 set plus
// null/true/false literals, which the paper's tokenizer treats as keywords).
bool is_keyword(std::string_view word);

}  // namespace kizzle::text
