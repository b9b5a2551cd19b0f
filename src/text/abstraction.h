// Token abstraction (paper §III.A).
//
// Clustering runs on an *abstracted* token stream so that randomized
// identifiers, per-response strings and numeric noise do not separate
// samples of the same kit. Keywords and punctuators are concrete by nature
// (the token *is* its text); identifiers/strings/numbers collapse to their
// class. Three levels are provided:
//
//   ClassOnly        every token becomes its class tag
//   KeywordsAndPunct keywords/punctuators keep their text, the rest
//                    collapse to class tags            (paper's scheme)
//   FullText         every token keeps its text (useful for debugging and
//                    for exact-duplicate detection)
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "support/interner.h"
#include "text/token.h"

namespace kizzle::text {

enum class Abstraction {
  ClassOnly,
  KeywordsAndPunct,
  FullText,
};

// Maps tokens to interned symbol ids under the given abstraction. All
// streams that are to be compared must share the same Interner.
std::vector<std::uint32_t> abstract_tokens(std::span<const Token> tokens,
                                           Abstraction level,
                                           Interner& interner);

// The same abstraction against an Interner that is only read (find), so
// many threads can abstract at once while nobody interns. Symbols the
// interner lacks are kept, each distinct one once, in first-seen order;
// their slots in `ids` hold Interner::kNone until commit_pending.
struct PendingStream {
  std::vector<std::uint32_t> ids;
  std::vector<std::string> missing;   // distinct unknown symbols
  std::vector<std::uint32_t> misses;  // per kNone slot, index into missing
};

// Builds one sample's PendingStream a token at a time, so tokens can be
// consumed as they are lexed (text::lex_each): add() the sample's tokens
// in order, then take() its stream. The interner must not change in
// between.
class PendingAbstraction {
 public:
  PendingAbstraction(Abstraction level, const Interner& interner);
  void add(const Token& t);
  PendingStream take() { return std::move(pending_); }

 private:
  Abstraction level_;
  const Interner& interner_;
  std::array<Interner::Id, kTokenClasses> tag_ids_;  // kNone = not found yet
  // missing symbol -> its index in pending_.missing
  std::unordered_map<std::string, std::uint32_t, StringViewHash,
                     std::equal_to<>>
      seen_;
  PendingStream pending_;
};

// Interns `pending.missing` in order and fills the kNone slots. Committing
// the streams of several samples in sample order, against the interner
// they were abstracted with, yields exactly the ids abstract_tokens would
// have assigned calling it on each sample in that order.
std::vector<std::uint32_t> commit_pending(PendingStream pending,
                                          Interner& interner);

}  // namespace kizzle::text
