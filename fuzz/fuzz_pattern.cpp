// Fuzz target: the signature regex compiler and its two confirmation
// paths, differentially.
//
// Input: a pattern source, then '\n', then the text to scan (without a
// '\n' the whole input is both). Contract under test:
//
//   * every source either compiles or throws match::PatternError;
//   * confirm_span() — the tiered, factor-gated path engine scans
//     confirm with — equals search_span(), the ungated VM, whenever
//     search_span() stays within its budget;
//   * a factor-gated reject never hides a VM match, and on the VM tier
//     confirm_span() never matches where search_span() does not. (When the
//     VM runs out of budget on a compiled-tier pattern there is no oracle
//     answer to compare with; those compiled tiers are exact by
//     construction and charge no budget.)
//
// Any violation aborts.
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string_view>

#include "match/pattern.h"

namespace {

// Well below the production default: keeps a mutated catastrophic
// pattern from stalling the sweep; the contract holds at any budget.
constexpr std::uint64_t kBudget = 1u << 20;

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  using kizzle::match::ConfirmTier;
  using kizzle::match::Pattern;
  using kizzle::match::SpanResult;
  const std::string_view input(reinterpret_cast<const char*>(data), size);
  const std::size_t cut = input.find('\n');
  const std::string_view source = input.substr(0, cut);
  const std::string_view text =
      cut == std::string_view::npos ? input : input.substr(cut + 1);

  std::optional<Pattern> compiled;
  try {
    compiled.emplace(Pattern::compile(source));
  } catch (const kizzle::match::PatternError&) {
    return 0;  // typed rejection of a malformed source
  }
  kizzle::match::VmScratch scratch;
  const SpanResult want = compiled->search_span(text, scratch, 0, kBudget);
  const SpanResult got = compiled->confirm_span(text, scratch, 0, kBudget);

  if (got.gated && (want.matched || got.matched || got.budget_exceeded)) {
    std::abort();  // the gate rejected a real match
  }
  if (!want.budget_exceeded) {
    if (got.matched != want.matched || got.budget_exceeded) std::abort();
    if (got.matched && (got.begin != want.begin || got.end != want.end)) {
      std::abort();
    }
  } else if (compiled->confirm_tier() == ConfirmTier::kRegex) {
    // Same VM, same budget: it runs out again unless the gate stopped it.
    if (got.matched || !(got.budget_exceeded || got.gated)) std::abort();
  }
  return 0;
}
