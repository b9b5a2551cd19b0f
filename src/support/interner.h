// String interning: maps strings to dense 32-bit ids and back.
//
// Token streams are compared millions of times during clustering; interning
// turns token comparison into integer comparison and shrinks the working set.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace kizzle {

// Transparent hash for std::string-keyed unordered containers (paired with
// std::equal_to<>): lookups by string_view build no temporary std::string.
// Abstraction looks up every token of every sample.
struct StringViewHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const {
    return std::hash<std::string_view>{}(s);
  }
};

class Interner {
 public:
  using Id = std::uint32_t;

  Interner() = default;

  // Returns the id for `s`, creating one if unseen. Ids are dense, starting
  // at 0, in first-seen order.
  Id intern(std::string_view s);

  // Returns the id for `s` if present, or kNone.
  static constexpr Id kNone = UINT32_MAX;
  Id find(std::string_view s) const;

  // The string for an id. Throws std::out_of_range for unknown ids.
  const std::string& text(Id id) const;

  std::size_t size() const { return strings_.size(); }

 private:
  std::unordered_map<std::string, Id, StringViewHash, std::equal_to<>> map_;
  std::vector<std::string> strings_;
};

}  // namespace kizzle
