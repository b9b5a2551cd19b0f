// Test-only brute-force scanner, the oracle one tier above the reference
// automaton (reference_automaton.h).
//
// scan_brute_force runs every signature's own Pattern::search over the
// whole text: no literal first stage, no factor gate, no confirm tiers.
// It shares only the compiled patterns with the product path, so
// engine::scan must deliver exactly its hits, in the same ascending index
// order, and count the same VM budget overruns in
// ScanOutcome::budget_exceeded. scan_all collects engine::scan's
// all-matches result in the same shape for the comparison.
#pragma once

#include <cstddef>
#include <string_view>
#include <vector>

#include "engine/engine.h"

namespace kizzle::testing {

struct ScanHit {
  std::size_t sig_index = 0;
  std::size_t begin = 0;  // match span in the scanned text
  std::size_t end = 0;
  bool operator==(const ScanHit&) const = default;
};

struct ScanHits {
  std::vector<ScanHit> hits;        // ascending sig_index
  std::size_t budget_exceeded = 0;  // signatures skipped on VM budget
};

// Pattern::search of each non-retired entry of `db`, in index order. A
// search that exceeds its step budget is counted, not reported.
ScanHits scan_brute_force(const engine::Database& db, std::string_view text);

// engine::scan with all-matches delivery: every event as a hit, plus the
// outcome's budget_exceeded count.
ScanHits scan_all(const engine::Database& db, std::string_view text,
                  engine::Scratch& scratch);

}  // namespace kizzle::testing
