#include "testing/reference_automaton.h"

#include <algorithm>
#include <deque>

namespace kizzle::testing {

ReferenceAutomaton::ReferenceAutomaton(const match::LiteralPrefilter& pf) {
  for (const auto& reg : pf.registrations()) add(reg.id, reg.literal);
  link();  // up front, so concurrent candidates() calls only read
}

void ReferenceAutomaton::add(std::size_t id, std::string_view literal) {
  if (literal.empty()) {
    fallback_.push_back(id);
    return;
  }
  std::size_t s = 0;
  for (const char c : literal) {
    const auto b = static_cast<unsigned char>(c);
    auto it = nodes_[s].next.find(b);
    if (it == nodes_[s].next.end()) {
      nodes_.emplace_back();
      it = nodes_[s].next.emplace(b, nodes_.size() - 1).first;
    }
    s = it->second;
  }
  nodes_[s].own.emplace_back(id, literal.size());
  linked_ = false;
}

void ReferenceAutomaton::link() const {
  if (linked_) return;
  std::deque<std::size_t> bfs;
  nodes_[0].out = nodes_[0].own;
  bfs.push_back(0);
  while (!bfs.empty()) {
    const std::size_t s = bfs.front();
    bfs.pop_front();
    for (const auto& [b, t] : nodes_[s].next) {
      std::size_t f = nodes_[s].fail;
      if (s == 0) {
        f = 0;
      } else {
        while (f != 0 && nodes_[f].next.count(b) == 0) f = nodes_[f].fail;
        const auto it = nodes_[f].next.find(b);
        f = it != nodes_[f].next.end() ? it->second : 0;
      }
      nodes_[t].fail = f;
      // BFS order: the fail target (shallower) is already complete.
      nodes_[t].out = nodes_[t].own;
      nodes_[t].out.insert(nodes_[t].out.end(), nodes_[f].out.begin(),
                           nodes_[f].out.end());
      bfs.push_back(t);
    }
  }
  linked_ = true;
}

std::map<std::size_t, std::size_t> ReferenceAutomaton::leftmost_starts(
    std::string_view text) const {
  link();
  std::map<std::size_t, std::size_t> first;
  std::size_t s = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const auto b = static_cast<unsigned char>(text[i]);
    while (s != 0 && nodes_[s].next.count(b) == 0) s = nodes_[s].fail;
    const auto it = nodes_[s].next.find(b);
    s = it != nodes_[s].next.end() ? it->second : 0;
    for (const auto& [id, len] : nodes_[s].out) {
      const auto [it, fresh] = first.emplace(id, i + 1 - len);
      if (!fresh) it->second = std::min(it->second, i + 1 - len);
    }
  }
  return first;
}

std::vector<std::size_t> ReferenceAutomaton::candidates(
    std::string_view text) const {
  std::vector<std::size_t> out = fallback_;
  for (const auto& [id, start] : leftmost_starts(text)) out.push_back(id);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace kizzle::testing
