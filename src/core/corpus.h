// The labeled corpus of known unpacked malware (paper §III.B).
//
// Kizzle is seeded with unpacked samples of the kits it tracks; every
// cluster prototype that labeling accepts is folded back in, so the corpus
// follows each kit's drift. Entries are stored as winnow fingerprint sets;
// labeling compares a prototype's fingerprints against every entry of
// every family and takes the best containment.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "winnow/winnow.h"

namespace kizzle::core {

struct LabelScore {
  std::string family;   // empty when nothing reaches its threshold
  double overlap = 0.0; // best containment across all families
};

// The containment of one prototype in every entry of every family, as the
// corpus stood when score_entries ran. Entries are identified by a
// per-family sequence number (the n-th sample ever added to the family),
// so a later label() can tell which of today's entries it already scored:
// entries added since are the ones past the end of `containment`, entries
// evicted since are the ones before the family's current first.
struct EntryScores {
  struct Family {
    std::uint64_t first = 0;          // sequence number of containment[0]
    std::vector<double> containment;  // per entry, oldest first
  };
  std::vector<Family> families;  // in add_family order
};

class LabeledCorpus {
 public:
  explicit LabeledCorpus(winnow::Params params = {}, std::size_t max_per_family = 40);

  // Registers a family with its labeling threshold (thresholds are
  // family-specific, §III.B).
  void add_family(const std::string& family, double threshold);

  // Adds a known unpacked sample for the family (normalized text).
  // The per-family history is capped; oldest entries fall off.
  void add_sample(const std::string& family, const std::string& text);

  // Best-matching family whose containment threshold is met, together
  // with the overall best overlap (even when below threshold).
  LabelScore label(const winnow::FingerprintSet& prototype) const;

  // Scores `prototype` against every current entry. Read-only, so many
  // prototypes may be scored concurrently while nothing is added.
  EntryScores score_entries(const winnow::FingerprintSet& prototype) const;

  // label(prototype) against the corpus as it stands now, reusing the
  // scores `earlier` took of entries still present: only entries added
  // since (and families registered since) are compared afresh. The result
  // equals label(prototype) exactly, whatever was added or evicted.
  LabelScore label(const winnow::FingerprintSet& prototype,
                   const EntryScores& earlier) const;

  // Max containment of `prototype` against one family's entries.
  double containment(const winnow::FingerprintSet& prototype,
                     const std::string& family) const;

  const winnow::Params& params() const { return params_; }
  std::vector<std::string> families() const;
  std::size_t size(const std::string& family) const;

 private:
  struct Family {
    std::string name;
    double threshold;
    std::deque<winnow::FingerprintSet> entries;
    std::uint64_t first = 0;  // sequence number of entries.front()
  };
  const Family* find(const std::string& family) const;

  winnow::Params params_;
  std::size_t max_per_family_;
  std::vector<Family> families_;
};

}  // namespace kizzle::core
