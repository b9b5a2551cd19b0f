// The simulated commercial AV baseline.
//
// The paper compares Kizzle against an anonymized commercial AV engine
// whose signatures are written by human analysts and released with a lag
// of days after each kit change (Fig 12's red call-outs; Fig 6's window of
// vulnerability). We model that engine as a set of literal substring
// signatures over AV-normalized text, each with a release day. Literal
// matching is what makes the baseline brittle against the kits' per-sample
// feature randomization — the asymmetry Kizzle's structural signatures
// remove.
//
// Like every other matching surface, the release set is deployed through
// the unified scan engine (engine/engine.h): schedule() appends each
// literal to an engine::Database with Database::extend (the same path
// KizzlePipeline releases take), so match() is one literal first-stage
// pass plus candidate confirmation, with the release-day gate applied as
// the engine's pre-confirmation candidate filter. schedule() is not safe
// to call concurrently with anything; once the release set is loaded,
// concurrent match() calls are safe (per-worker scratches come from a
// pool).
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "engine/engine.h"
#include "kitgen/kit.h"

namespace kizzle::av {

struct AvRelease {
  int day = 0;                 // first day the signature is deployed
  kitgen::KitFamily family;
  std::string name;            // e.g. "NEK.sig3"
  std::string literal;         // substring of AV-normalized text
};

class ManualAvEngine {
 public:
  void schedule(AvRelease release);

  // First deployed signature matching `normalized` as of `day`.
  std::optional<AvRelease> match(int day,
                                 std::string_view normalized) const;

  bool detects(int day, std::string_view normalized) const {
    return match(day, normalized).has_value();
  }

  const std::vector<AvRelease>& releases() const { return releases_; }

  // Releases for one family, sorted by day (Fig 12 annotations).
  std::vector<AvRelease> releases_for(kitgen::KitFamily family) const;

 private:
  std::vector<AvRelease> releases_;
  engine::Database db_;  // entry i is releases_[i]
  mutable engine::ScratchPool scratches_;
};

}  // namespace kizzle::av
