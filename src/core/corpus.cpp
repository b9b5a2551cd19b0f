#include "core/corpus.h"

#include <algorithm>
#include <stdexcept>

namespace kizzle::core {

LabeledCorpus::LabeledCorpus(winnow::Params params, std::size_t max_per_family)
    : params_(params), max_per_family_(max_per_family) {
  if (max_per_family_ == 0) {
    throw std::invalid_argument("LabeledCorpus: max_per_family == 0");
  }
}

void LabeledCorpus::add_family(const std::string& family, double threshold) {
  if (find(family) != nullptr) {
    throw std::invalid_argument("LabeledCorpus: duplicate family " + family);
  }
  families_.push_back(Family{family, threshold, {}});
}

const LabeledCorpus::Family* LabeledCorpus::find(
    const std::string& family) const {
  for (const Family& f : families_) {
    if (f.name == family) return &f;
  }
  return nullptr;
}

void LabeledCorpus::add_sample(const std::string& family,
                               const std::string& text) {
  for (Family& f : families_) {
    if (f.name == family) {
      f.entries.push_back(winnow::FingerprintSet::of_text(text, params_));
      if (f.entries.size() > max_per_family_) {
        f.entries.pop_front();
        ++f.first;
      }
      return;
    }
  }
  throw std::invalid_argument("LabeledCorpus: unknown family " + family);
}

double LabeledCorpus::containment(const winnow::FingerprintSet& prototype,
                                  const std::string& family) const {
  const Family* f = find(family);
  if (f == nullptr) {
    throw std::invalid_argument("LabeledCorpus: unknown family " + family);
  }
  double best = 0.0;
  for (const auto& entry : f->entries) {
    best = std::max(best, prototype.containment(entry));
  }
  return best;
}

LabelScore LabeledCorpus::label(
    const winnow::FingerprintSet& prototype) const {
  return label(prototype, EntryScores{});
}

EntryScores LabeledCorpus::score_entries(
    const winnow::FingerprintSet& prototype) const {
  EntryScores scores;
  scores.families.reserve(families_.size());
  for (const Family& f : families_) {
    EntryScores::Family& out = scores.families.emplace_back();
    out.first = f.first;
    out.containment.reserve(f.entries.size());
    for (const auto& entry : f.entries) {
      out.containment.push_back(prototype.containment(entry));
    }
  }
  return scores;
}

LabelScore LabeledCorpus::label(const winnow::FingerprintSet& prototype,
                                const EntryScores& earlier) const {
  LabelScore score;
  double best_eligible = 0.0;
  for (std::size_t fi = 0; fi < families_.size(); ++fi) {
    const Family& f = families_[fi];
    const EntryScores::Family* then =
        fi < earlier.families.size() ? &earlier.families[fi] : nullptr;
    double best = 0.0;
    for (std::size_t e = 0; e < f.entries.size(); ++e) {
      // Entries only leave from the front, so a present entry scored
      // earlier sits at its sequence number's offset from then->first.
      const std::uint64_t seq = f.first + e;
      const bool scored = then != nullptr && seq >= then->first &&
                          seq - then->first < then->containment.size();
      best = std::max(best, scored ? then->containment[seq - then->first]
                                   : prototype.containment(f.entries[e]));
    }
    score.overlap = std::max(score.overlap, best);
    if (best >= f.threshold && best > best_eligible) {
      best_eligible = best;
      score.family = f.name;
    }
  }
  return score;
}

std::vector<std::string> LabeledCorpus::families() const {
  std::vector<std::string> out;
  out.reserve(families_.size());
  for (const Family& f : families_) out.push_back(f.name);
  return out;
}

std::size_t LabeledCorpus::size(const std::string& family) const {
  const Family* f = find(family);
  return f == nullptr ? 0 : f->entries.size();
}

}  // namespace kizzle::core
