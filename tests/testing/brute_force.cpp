#include "testing/brute_force.h"

namespace kizzle::testing {

ScanHits scan_brute_force(const engine::Database& db, std::string_view text) {
  ScanHits out;
  const auto entries = db.entries();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (db.entry_retired(i)) continue;
    const match::MatchResult r = entries[i].pattern.search(text);
    if (r.budget_exceeded) {
      ++out.budget_exceeded;
    } else if (r.matched) {
      out.hits.push_back(ScanHit{i, r.begin, r.end});
    }
  }
  return out;
}

ScanHits scan_all(const engine::Database& db, std::string_view text,
                  engine::Scratch& scratch) {
  ScanHits out;
  out.budget_exceeded =
      engine::scan(db, text, scratch,
                   [&out](const engine::MatchEvent& event) {
                     out.hits.push_back(
                         ScanHit{event.sig_index, event.begin, event.end});
                     return engine::ScanDecision::Continue;
                   })
          .budget_exceeded;
  return out;
}

}  // namespace kizzle::testing
