#include "av/av_engine.h"

#include <algorithm>
#include <stdexcept>

namespace kizzle::av {

void ManualAvEngine::schedule(AvRelease release) {
  if (release.literal.empty()) {
    throw std::invalid_argument("ManualAvEngine: empty signature literal");
  }
  db_ = db_.extend(engine::Database::Entry{
      release.name, std::string(kitgen::family_name(release.family)),
      match::Pattern::compile(match::Pattern::escape(release.literal))});
  releases_.push_back(std::move(release));
}

std::optional<AvRelease> ManualAvEngine::match(
    int day, std::string_view normalized) const {
  // Each literal release is an escaped-literal pattern in the engine
  // database. Events arrive in ascending insertion order, matching the
  // brute-force first-match semantics; the release-day gate runs as the
  // pre-confirmation candidate filter, so signatures not yet deployed on
  // `day` never even reach confirmation.
  auto scratch = scratches_.acquire();
  std::optional<std::size_t> hit;
  engine::scan(
      db_, normalized, *scratch,
      [this, day](std::size_t i) { return releases_[i].day <= day; },
      [&hit](const engine::MatchEvent& event) {
        hit = event.sig_index;
        return engine::ScanDecision::Stop;
      });
  if (!hit) return std::nullopt;
  return releases_[*hit];
}

std::vector<AvRelease> ManualAvEngine::releases_for(
    kitgen::KitFamily family) const {
  std::vector<AvRelease> out;
  for (const AvRelease& r : releases_) {
    if (r.family == family) out.push_back(r);
  }
  std::sort(out.begin(), out.end(),
            [](const AvRelease& a, const AvRelease& b) { return a.day < b.day; });
  return out;
}

}  // namespace kizzle::av
