#include "text/abstraction.h"

#include <string>

namespace kizzle::text {

namespace {

// Class tags use a '\x01' prefix so they can never collide with real token
// text (no JavaScript token starts with a control character). Built once:
// abstraction runs over every token of every sample.
std::string_view class_tag(TokenClass cls) {
  static const std::array<std::string, kTokenClasses> tags = [] {
    std::array<std::string, kTokenClasses> out;
    for (std::size_t c = 0; c < kTokenClasses; ++c) {
      out[c] = "\x01";
      out[c].append(token_class_name(static_cast<TokenClass>(c)));
    }
    return out;
  }();
  return tags[static_cast<std::size_t>(cls)];
}

bool keeps_text(TokenClass cls, Abstraction level) {
  switch (level) {
    case Abstraction::ClassOnly:
      return false;
    case Abstraction::KeywordsAndPunct:
      return cls == TokenClass::Keyword || cls == TokenClass::Punctuator;
    case Abstraction::FullText:
      return true;
  }
  return true;
}

// The id of `t`'s symbol through `lookup` (string_view -> id). A class
// tag's id is remembered in `tag_ids` after its first successful lookup,
// which keeps first-seen order; a kNone result is looked up again on the
// next use.
template <typename Lookup>
Interner::Id symbol_id(const Token& t, Abstraction level,
                       std::array<Interner::Id, kTokenClasses>& tag_ids,
                       Lookup&& lookup) {
  if (keeps_text(t.cls, level)) return lookup(std::string_view(t.text));
  Interner::Id& id = tag_ids[static_cast<std::size_t>(t.cls)];
  if (id == Interner::kNone) id = lookup(class_tag(t.cls));
  return id;
}

}  // namespace

std::vector<std::uint32_t> abstract_tokens(std::span<const Token> tokens,
                                           Abstraction level,
                                           Interner& interner) {
  std::vector<std::uint32_t> out;
  out.reserve(tokens.size());
  std::array<Interner::Id, kTokenClasses> tag_ids;
  tag_ids.fill(Interner::kNone);
  const auto intern = [&interner](std::string_view symbol) {
    return interner.intern(symbol);
  };
  for (const Token& t : tokens) {
    out.push_back(symbol_id(t, level, tag_ids, intern));
  }
  return out;
}

PendingAbstraction::PendingAbstraction(Abstraction level,
                                       const Interner& interner)
    : level_(level), interner_(interner) {
  tag_ids_.fill(Interner::kNone);
}

void PendingAbstraction::add(const Token& t) {
  pending_.ids.push_back(
      symbol_id(t, level_, tag_ids_, [this](std::string_view symbol) {
        const Interner::Id id = interner_.find(symbol);
        if (id != Interner::kNone) return id;
        auto it = seen_.find(symbol);
        if (it == seen_.end()) {
          it = seen_.emplace(std::string(symbol),
                             static_cast<std::uint32_t>(pending_.missing.size()))
                   .first;
          pending_.missing.emplace_back(symbol);
        }
        pending_.misses.push_back(it->second);
        return Interner::kNone;
      }));
}

std::vector<std::uint32_t> commit_pending(PendingStream pending,
                                          Interner& interner) {
  if (pending.missing.empty()) return std::move(pending.ids);
  std::vector<Interner::Id> resolved;
  resolved.reserve(pending.missing.size());
  for (const std::string& symbol : pending.missing) {
    resolved.push_back(interner.intern(symbol));
  }
  auto miss = pending.misses.begin();
  for (std::uint32_t& id : pending.ids) {
    if (id == Interner::kNone) id = resolved[*miss++];
  }
  return std::move(pending.ids);
}

}  // namespace kizzle::text
