#include <gtest/gtest.h>

#include "core/corpus.h"
#include "support/rng.h"

namespace kizzle::core {
namespace {

winnow::FingerprintSet fps(const std::string& text) {
  return winnow::FingerprintSet::of_text(text, winnow::Params{});
}

std::string random_text(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  return rng.string_over("abcdefghijklmnop(){};=.,+", n);
}

TEST(Corpus, LabelsExactMatchAtFullOverlap) {
  LabeledCorpus corpus;
  corpus.add_family("Nuclear", 0.7);
  const std::string payload = random_text(1, 2000);
  corpus.add_sample("Nuclear", payload);
  const LabelScore score = corpus.label(fps(payload));
  EXPECT_EQ(score.family, "Nuclear");
  EXPECT_DOUBLE_EQ(score.overlap, 1.0);
}

TEST(Corpus, RejectsBelowThreshold) {
  LabeledCorpus corpus;
  corpus.add_family("Nuclear", 0.7);
  corpus.add_sample("Nuclear", random_text(1, 2000));
  const LabelScore score = corpus.label(fps(random_text(2, 2000)));
  EXPECT_TRUE(score.family.empty());
  EXPECT_LT(score.overlap, 0.1);
}

TEST(Corpus, PicksBestFamily) {
  LabeledCorpus corpus;
  corpus.add_family("A", 0.5);
  corpus.add_family("B", 0.5);
  const std::string a_text = random_text(10, 2000);
  const std::string b_text = random_text(20, 2000);
  corpus.add_sample("A", a_text);
  corpus.add_sample("B", b_text);
  // Probe: mostly B with a dash of A.
  const std::string probe = b_text + a_text.substr(0, 300);
  EXPECT_EQ(corpus.label(fps(probe)).family, "B");
}

TEST(Corpus, FamilySpecificThresholds) {
  LabeledCorpus corpus;
  corpus.add_family("strict", 0.9);
  corpus.add_family("lax", 0.4);
  const std::string base = random_text(30, 2000);
  corpus.add_sample("strict", base);
  corpus.add_sample("lax", base);
  // A probe with ~60% overlap: below strict's bar, above lax's. Note both
  // families hold the same entry, so raw containment is equal — only the
  // thresholds differ.
  const std::string probe = base.substr(0, 1200) + random_text(31, 800);
  const LabelScore score = corpus.label(fps(probe));
  EXPECT_EQ(score.family, "lax");
}

TEST(Corpus, HistoryIsCapped) {
  LabeledCorpus corpus(winnow::Params{}, 3);
  corpus.add_family("A", 0.5);
  const std::string first = random_text(50, 1500);
  corpus.add_sample("A", first);
  for (int i = 0; i < 5; ++i) {
    corpus.add_sample("A", random_text(100 + i, 1500));
  }
  EXPECT_EQ(corpus.size("A"), 3u);
  // The first entry fell off: an exact probe of it no longer matches 1.0.
  EXPECT_LT(corpus.containment(fps(first), "A"), 0.5);
}

TEST(Corpus, DriftTrackingThroughAccumulation) {
  // The corpus follows gradual drift: day-2 text matches because day-1
  // text was added, even though it is far from the seed.
  LabeledCorpus corpus;
  corpus.add_family("A", 0.6);
  std::string v0 = random_text(60, 2000);
  corpus.add_sample("A", v0);
  std::string v1 = v0.substr(0, 1400) + random_text(61, 600);  // 70% of v0
  ASSERT_EQ(corpus.label(fps(v1)).family, "A");
  corpus.add_sample("A", v1);
  std::string v2 = v1.substr(600) + random_text(62, 600);  // 70% of v1
  EXPECT_EQ(corpus.label(fps(v2)).family, "A");
}

// Labeling against an earlier entry snapshot must equal a fresh label()
// after every kind of change since: entries added, entries evicted (the
// prototype's exact twin among them) and families registered.
TEST(Corpus, LabelFromEarlierScoresTracksAddsAndEvictions) {
  LabeledCorpus corpus(winnow::Params{}, 2);
  corpus.add_family("A", 0.5);
  corpus.add_family("B", 0.5);
  const std::string proto = random_text(1, 2000);
  const auto p = fps(proto);
  corpus.add_sample("A", proto);
  corpus.add_sample("A", random_text(2, 2000));
  corpus.add_sample("B", random_text(3, 2000));
  const EntryScores earlier = corpus.score_entries(p);
  ASSERT_EQ(earlier.families.size(), 2u);
  EXPECT_EQ(earlier.families[0].containment.size(), 2u);

  const auto expect_same = [&](const std::string& family) {
    const LabelScore fresh = corpus.label(p);
    const LabelScore reused = corpus.label(p, earlier);
    EXPECT_EQ(reused.family, fresh.family);
    EXPECT_EQ(reused.overlap, fresh.overlap);
    EXPECT_EQ(fresh.family, family);
  };
  expect_same("A");
  corpus.add_sample("A", random_text(4, 2000));  // evicts A's twin
  expect_same("");
  corpus.add_sample("B", proto);  // a twin arrives after the snapshot
  expect_same("B");
  corpus.add_sample("B", random_text(5, 2000));
  corpus.add_sample("B", random_text(6, 2000));  // and is evicted again
  expect_same("");
  corpus.add_family("C", 0.5);
  corpus.add_sample("C", proto);
  expect_same("C");
}

TEST(Corpus, UnknownFamilyThrows) {
  LabeledCorpus corpus;
  EXPECT_THROW(corpus.add_sample("nope", "text"), std::invalid_argument);
  EXPECT_THROW(corpus.containment(fps("x"), "nope"), std::invalid_argument);
}

TEST(Corpus, DuplicateFamilyThrows) {
  LabeledCorpus corpus;
  corpus.add_family("A", 0.5);
  EXPECT_THROW(corpus.add_family("A", 0.6), std::invalid_argument);
}

TEST(Corpus, ZeroCapRejected) {
  EXPECT_THROW(LabeledCorpus(winnow::Params{}, 0), std::invalid_argument);
}

TEST(Corpus, EmptyPrototypeNeverLabels) {
  LabeledCorpus corpus;
  corpus.add_family("A", 0.5);
  corpus.add_sample("A", random_text(70, 2000));
  EXPECT_TRUE(corpus.label(winnow::FingerprintSet{}).family.empty());
}

}  // namespace
}  // namespace kizzle::core
