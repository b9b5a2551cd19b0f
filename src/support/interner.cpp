#include "support/interner.h"

#include <stdexcept>

namespace kizzle {

Interner::Id Interner::intern(std::string_view s) {
  auto it = map_.find(s);
  if (it != map_.end()) return it->second;
  const Id id = static_cast<Id>(strings_.size());
  if (id == kNone) throw std::length_error("Interner: id space exhausted");
  strings_.emplace_back(s);
  map_.emplace(strings_.back(), id);
  return id;
}

Interner::Id Interner::find(std::string_view s) const {
  auto it = map_.find(s);
  return it == map_.end() ? kNone : it->second;
}

const std::string& Interner::text(Id id) const {
  if (id >= strings_.size()) {
    throw std::out_of_range("Interner::text: unknown id");
  }
  return strings_[id];
}

}  // namespace kizzle
