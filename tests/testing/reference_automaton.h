// Test-only reference oracle for the literal prefilter (match/prefilter.h).
//
// ReferenceAutomaton is a textbook byte-at-a-time Aho–Corasick automaton:
// a map-based trie with fail links, walked one byte at a time with no
// reduced alphabet, no SIMD, no shards and no dense routing. It shares no
// code with the product first stage, which is exactly what makes it a
// differential oracle: every route LiteralPrefilter can take (Teddy,
// hybrid dense shards, all-dense, sliced texts) must return its candidate
// set byte for byte; engine streams run the same routes over their
// accumulated text at finish. It sits next to the brute-force
// scanner (brute_force.h), the oracle one tier up.
//
// PrefilterTestPeer is the seam into the prefilter's private slicing
// route: it forces the slicer, with a small slice size, on texts the
// product would scan whole.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "match/prefilter.h"

namespace kizzle::testing {

class ReferenceAutomaton {
 public:
  ReferenceAutomaton() = default;
  // Mirrors `pf`'s registrations (literal ids and fallback ids).
  explicit ReferenceAutomaton(const match::LiteralPrefilter& pf);

  // Same registration contract as LiteralPrefilter::add: an empty literal
  // puts `id` on the always-candidate fallback list.
  void add(std::size_t id, std::string_view literal);

  // Every id whose literal occurs in `text`, merged with the fallback ids;
  // sorted ascending, deduplicated.
  std::vector<std::size_t> candidates(std::string_view text) const;

  // Start of the leftmost occurrence of each literal id found in `text`.
  std::map<std::size_t, std::size_t> leftmost_starts(
      std::string_view text) const;

 private:
  struct Node {
    std::map<unsigned char, std::size_t> next;
    std::size_t fail = 0;
    // (id, literal length) of the literals ending exactly here, and of
    // every literal ending here including those along the fail chain.
    std::vector<std::pair<std::size_t, std::size_t>> own, out;
  };

  void link() const;  // (re)computes fail links and `out`

  mutable std::vector<Node> nodes_ = std::vector<Node>(1);
  mutable bool linked_ = true;
  std::vector<std::size_t> fallback_;
};

}  // namespace kizzle::testing

namespace kizzle::match {

struct PrefilterTestPeer {
  // candidates_into's result when every text longer than `slice` takes
  // the route of texts past 4 GiB: the SIMD pass over overlapping
  // `slice`-byte views of the text. `hints` as in candidates_into.
  static std::vector<std::size_t> candidates_sliced(
      const LiteralPrefilter& pf, std::string_view text, std::size_t slice,
      std::vector<std::uint32_t>* hints = nullptr) {
    std::vector<std::size_t> out;
    teddy::HitBuffer hits;
    pf.collect(text, out, hits, nullptr, hints, slice);
    return out;
  }
};

}  // namespace kizzle::match
