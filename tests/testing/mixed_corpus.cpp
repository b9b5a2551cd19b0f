#include "testing/mixed_corpus.h"

#include "kitgen/families.h"
#include "kitgen/packers.h"
#include "kitgen/payload.h"
#include "match/pattern.h"
#include "support/rng.h"
#include "text/normalize.h"

namespace kizzle::testing {

std::vector<std::string> mixed_kitgen_samples() {
  Rng rng(0xC0FFEE);
  std::vector<std::string> samples;
  for (int i = 0; i < 6; ++i) {
    kitgen::PayloadSpec spec;
    spec.family = kitgen::KitFamily::Nuclear;
    spec.cves = kitgen::kit_info(kitgen::KitFamily::Nuclear).cves;
    spec.av_check = true;
    spec.urls = {kitgen::make_landing_url(rng)};
    samples.push_back(text::normalize_raw(
        pack_nuclear(payload_text(spec), kitgen::NuclearPackerState{}, rng)));
    spec.family = kitgen::KitFamily::Rig;
    spec.cves = kitgen::kit_info(kitgen::KitFamily::Rig).cves;
    samples.push_back(text::normalize_raw(
        pack_rig(payload_text(spec), kitgen::RigPackerState{}, rng)));
    spec.family = kitgen::KitFamily::Angler;
    spec.cves = kitgen::kit_info(kitgen::KitFamily::Angler).cves;
    samples.push_back(text::normalize_raw(
        pack_angler(payload_text(spec), kitgen::AnglerPackerState{}, rng)));
  }
  return samples;
}

std::vector<engine::Database::Spec> mixed_signature_specs(
    const std::vector<std::string>& samples) {
  Rng rng(0xBEEF);
  std::vector<engine::Database::Spec> specs;
  for (const std::string& text : samples) {
    for (int k = 0; k < 4; ++k) {
      const std::size_t len = 16 + rng.index(32);
      if (text.size() <= len) continue;
      const std::size_t at = rng.index(text.size() - len);
      specs.push_back({"chunk" + std::to_string(specs.size()), "mixed",
                       match::Pattern::escape(text.substr(at, len))});
    }
  }
  specs.push_back({"classes", "mixed", "[0-9]+[a-z]+[0-9]+"});
  specs.push_back({"short", "mixed", "ev"});
  specs.push_back({"mixed", "mixed", "fromCharCode[0-9a-z]*"});
  specs.push_back({"absent", "mixed", "never_going_to_show_up_anywhere"});
  return specs;
}

}  // namespace kizzle::testing
