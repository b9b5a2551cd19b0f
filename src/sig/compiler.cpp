#include "sig/compiler.h"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "match/pattern.h"
#include "sig/common_window.h"
#include "sig/synthesis.h"
#include "support/interner.h"
#include "text/lexer.h"
#include "text/normalize.h"

namespace kizzle::sig {

void append_normalized_token_text(const text::Token& t, std::string& out) {
  for (char c : text::normalized_text(t)) {
    switch (c) {
      case ' ':
      case '\t':
      case '\r':
      case '\n':
      case '\f':
      case '\v':
      case '"':
      case '\'':
        break;
      default:
        out.push_back(c);
    }
  }
}

std::string normalized_token_text(std::span<const text::Token> tokens) {
  std::string out;
  for (const text::Token& t : tokens) append_normalized_token_text(t, out);
  return out;
}

namespace {

// Normalized concrete value of one token (quotes and whitespace stripped).
std::string column_value(const text::Token& t) {
  std::string out;
  append_normalized_token_text(t, out);
  return out;
}

}  // namespace

Signature compile_window_signature(
    std::span<const std::vector<text::Token>> samples,
    std::span<const std::size_t> positions, std::size_t length,
    const CompilerParams& params) {
  Signature sig;
  if (samples.empty() || positions.size() != samples.size() || length == 0) {
    sig.failure = "bad window";
    return sig;
  }
  sig.token_length = length;

  // Collect per-column values across samples.
  const std::size_t n_samples = samples.size();
  std::vector<std::vector<std::string>> col_values(length);
  for (std::size_t j = 0; j < length; ++j) {
    col_values[j].reserve(n_samples);
    for (std::size_t s = 0; s < n_samples; ++s) {
      const text::Token& t = samples[s][positions[s] + j];
      col_values[j].push_back(column_value(t));
    }
  }

  // Columns: literal when all values agree; otherwise variable, possibly a
  // backreference of an earlier variable column with identical values in
  // every sample.
  std::map<std::vector<std::string>, std::size_t> first_with_values;
  int next_group = 0;
  sig.columns.resize(length);
  for (std::size_t j = 0; j < length; ++j) {
    Column& col = sig.columns[j];
    const auto& vals = col_values[j];
    const bool uniform =
        std::all_of(vals.begin(), vals.end(),
                    [&](const std::string& v) { return v == vals[0]; });
    if (uniform && vals[0].size() <= params.max_literal_run) {
      col.is_literal = true;
      col.literal = vals[0];
      continue;
    }
    auto [it, inserted] = first_with_values.emplace(vals, j);
    if (!inserted) {
      col.backref_of = static_cast<int>(it->second);
      continue;
    }
    col.group = next_group++;
    // Distinct values, first-seen order, for the class synthesis.
    for (const std::string& v : vals) {
      if (std::find(col.values.begin(), col.values.end(), v) ==
          col.values.end()) {
        col.values.push_back(v);
      }
    }
  }

  // Emit the pattern.
  std::string pattern;
  for (std::size_t j = 0; j < length; ++j) {
    const Column& col = sig.columns[j];
    if (col.is_literal) {
      pattern += escape_literal(col.literal);
    } else if (col.backref_of >= 0) {
      const Column& ref =
          sig.columns[static_cast<std::size_t>(col.backref_of)];
      pattern += "\\k<var" + std::to_string(ref.group) + ">";
    } else {
      // Converted long literals always get slack (their length drifts with
      // payload churn even though one day's samples agree exactly).
      const bool converted_literal =
          col.values.size() == 1 && col.values[0].size() > params.max_literal_run;
      const double slack = converted_literal
                               ? std::max(params.length_slack, 0.10)
                               : params.length_slack;
      // Character floor from the column's token class (only with slack:
      // slack == 0 is the paper-exact mode of Fig 9).
      std::string_view floor_chars;
      if (slack > 0.0) {
        const text::Token& t = samples[0][positions[0] + j];
        switch (t.cls) {
          case text::TokenClass::Identifier:
            floor_chars =
                "0123456789abcdefghijklmnopqrstuvwxyz"
                "ABCDEFGHIJKLMNOPQRSTUVWXYZ_$";
            break;
          case text::TokenClass::Number:
            floor_chars = "0123456789abcdefABCDEFxX.";
            break;
          default:
            break;  // strings/regex: content is arbitrary, rely on '.'
        }
      }
      const std::string cls = synthesize_class(col.values, slack, floor_chars);
      if (cls.empty()) continue;  // all values empty at this offset
      pattern +=
          "(?<var" + std::to_string(col.group) + ">" + cls + ")";
    }
  }
  if (pattern.empty()) {
    sig.failure = "window produced an empty pattern";
    return sig;
  }
  sig.pattern = std::move(pattern);
  sig.ok = true;
  return sig;
}

Signature compile_signature(std::span<const std::vector<text::Token>> samples,
                            const CompilerParams& params) {
  Signature sig;
  if (samples.empty()) {
    sig.failure = "no samples";
    return sig;
  }
  // Abstract all samples with a compiler-local interner.
  Interner interner;
  std::vector<std::vector<std::uint32_t>> streams;
  streams.reserve(samples.size());
  for (const auto& toks : samples) {
    streams.push_back(abstract_tokens(toks, params.abstraction, interner));
  }

  const CommonWindow window =
      find_common_window(streams, params.min_tokens, params.max_tokens);
  if (!window.found) {
    sig.failure = "no common unique token window of at least " +
                  std::to_string(params.min_tokens) + " tokens";
    return sig;
  }
  sig = compile_window_signature(samples, window.position, window.length,
                                 params);
  if (!sig.ok) return sig;

  if (params.verify) {
    match::Pattern compiled = match::Pattern::compile(sig.pattern);
    for (std::size_t s = 0; s < samples.size(); ++s) {
      const std::string text = normalized_token_text(samples[s]);
      if (!compiled.search(text).matched) {
        sig.ok = false;
        sig.failure = "verification failed on sample " + std::to_string(s);
        sig.pattern.clear();
        return sig;
      }
    }
  }
  return sig;
}

Signature compile_signature_from_sources(std::span<const std::string> sources,
                                         const CompilerParams& params) {
  std::vector<std::vector<text::Token>> tokenized;
  tokenized.reserve(sources.size());
  for (const std::string& src : sources) {
    tokenized.push_back(text::lex(src));
  }
  return compile_signature(tokenized, params);
}

}  // namespace kizzle::sig
