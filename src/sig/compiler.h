// The signature compiler (paper §III.C): packed samples of a malicious
// cluster in, one AV-deployable regular-expression signature out.
//
// Pipeline:
//   1. tokenize each sample, abstract to the clustering alphabet;
//   2. find the longest common token window (<= 200 tokens) unique in
//      every sample (common_window.h);
//   3. align samples on the window and collect the distinct concrete
//      values at every token offset (quotes stripped, per AV
//      normalization);
//   4. emit, token by token: a literal when all samples agree, a named
//      group over a synthesized character class when they differ, and a
//      backreference when a column repeats an earlier column's values in
//      every sample (the paper's templatized variable names, Fig 10a);
//   5. verify the compiled signature matches every input sample
//      (soundness check) before releasing it.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "text/abstraction.h"
#include "text/token.h"

namespace kizzle::sig {

struct CompilerParams {
  std::size_t max_tokens = 200;  // paper's cap
  std::size_t min_tokens = 10;   // "short sequences are discarded"
  text::Abstraction abstraction = text::Abstraction::KeywordsAndPunct;
  bool verify = true;  // check the signature matches its own samples
  // Length slack for synthesized classes (see synthesis.h). 0 reproduces
  // the paper's exact Fig 9 output; production pipelines with small
  // clusters should use ~0.1-0.15.
  double length_slack = 0.0;
  // Literal columns longer than this are converted to character classes
  // (with slack-widened length bounds): multi-kilobyte encoded-payload
  // strings would otherwise dominate the signature and break on every
  // payload churn. SIZE_MAX disables the conversion (paper-exact).
  std::size_t max_literal_run = SIZE_MAX;
};

struct Column {
  bool is_literal = false;
  std::string literal;                // valid when is_literal
  std::vector<std::string> values;    // distinct values when variable
  int group = -1;                     // named group index (varN), -1 none
  int backref_of = -1;                // column index this one repeats
};

struct Signature {
  bool ok = false;
  std::string failure;        // reason when !ok
  std::string pattern;        // regex source (the deployable signature)
  std::size_t token_length = 0;
  std::vector<Column> columns;

  // Length in characters — the quantity Fig 12 plots over time.
  std::size_t length() const { return pattern.size(); }
};

// Compiles a signature from the tokenized packed samples of one cluster.
// At least two samples are required (a single sample would yield a fully
// literal signature; callers may still pass one and get exactly that).
Signature compile_signature(
    std::span<const std::vector<text::Token>> samples,
    const CompilerParams& params = {});

// Builds a signature from an explicitly aligned window: `positions[s]` is
// the window start (token index) in sample s, `length` the window size in
// tokens. This is the column-analysis + emission half of the compiler,
// exposed for the multi-fragment extension (multi_fragment.h). Verification
// against the samples is the caller's responsibility (params.verify is
// ignored here).
Signature compile_window_signature(
    std::span<const std::vector<text::Token>> samples,
    std::span<const std::size_t> positions, std::size_t length,
    const CompilerParams& params);

// Convenience overload: raw script texts, tokenized internally (tolerant).
Signature compile_signature_from_sources(std::span<const std::string> sources,
                                         const CompilerParams& params = {});

// The normalized text a signature is matched against, for one script
// source: concatenation of normalized token texts. Exposed so tests and
// the evaluation harness share the exact definition with the compiler.
std::string normalized_token_text(std::span<const text::Token> tokens);

// One token's share of normalized_token_text, appended to `out`.
void append_normalized_token_text(const text::Token& t, std::string& out);

}  // namespace kizzle::sig
