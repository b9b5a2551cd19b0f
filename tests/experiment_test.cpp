#include <gtest/gtest.h>

#include "eval/experiment.h"

namespace kizzle::eval {
namespace {

// A 20-day mini campaign at reduced volume: fast enough for CI, long
// enough to cover the Angler window of vulnerability (8/13-8/19, Fig 6)
// and several packer changes.
ExperimentConfig mini_config() {
  ExperimentConfig cfg;
  cfg.stream.volume_scale = 0.2;
  cfg.stream.start_day = kitgen::kAug1;
  cfg.stream.end_day = kitgen::day_from_date(8, 20);
  cfg.pipeline.partitions = 4;
  cfg.pipeline.threads = 4;
  return cfg;
}

class ExperimentWeek : public ::testing::Test {
 protected:
  static const ExperimentResult& result() {
    static const ExperimentResult r = [] {
      MonthlyExperiment experiment(mini_config());
      return experiment.run();
    }();
    return r;
  }
};

TEST_F(ExperimentWeek, RunsAllDays) {
  EXPECT_EQ(result().days.size(), 20u);
  for (const DayMetrics& m : result().days) {
    EXPECT_GT(m.n_benign, 0u);
    EXPECT_GT(m.n_malicious, 0u);
  }
}

// The run is seeded and deterministic, so the paper's outcome (§IV,
// Figs 13/14: FP/FN per family against the manual-AV baseline) is pinned
// exactly. A change that moves any of these numbers changes which samples
// Kizzle flags; re-baseline only with a stated reason.
TEST_F(ExperimentWeek, PaperOutcomeIsPinned) {
  EXPECT_EQ(result().total_benign, 8885u);
  EXPECT_EQ(result().total_malicious, 384u);
  EXPECT_EQ(result().kizzle_signatures.size(), 17u);

  const FamilyTotals sum = result().sum();
  EXPECT_EQ(sum.kizzle_fp, 20u);
  EXPECT_EQ(sum.kizzle_fn, 25u);
  EXPECT_EQ(sum.av_fp, 18u);
  EXPECT_EQ(sum.av_fn, 59u);

  struct Expected {
    kitgen::KitFamily family;
    std::size_t ground_truth, kizzle_fp, kizzle_fn, av_fp, av_fn;
  };
  const Expected expected[] = {
      {kitgen::KitFamily::Nuclear, 61, 13, 9, 0, 20},
      {kitgen::KitFamily::SweetOrange, 99, 0, 2, 0, 0},
      {kitgen::KitFamily::Angler, 212, 0, 2, 18, 39},
      {kitgen::KitFamily::Rig, 12, 7, 12, 0, 0},
  };
  for (const Expected& e : expected) {
    const FamilyTotals& t = result().totals[kitgen::family_index(e.family)];
    SCOPED_TRACE(std::string(kitgen::family_name(e.family)));
    EXPECT_EQ(t.ground_truth, e.ground_truth);
    EXPECT_EQ(t.kizzle_fp, e.kizzle_fp);
    EXPECT_EQ(t.kizzle_fn, e.kizzle_fn);
    EXPECT_EQ(t.av_fp, e.av_fp);
    EXPECT_EQ(t.av_fn, e.av_fn);
  }
}

TEST_F(ExperimentWeek, KizzleBeatsAvOnFalseNegatives) {
  // The window includes Angler's 8/13 evasion; AV pays for six days of it
  // (Fig 6) while Kizzle re-signs the same day.
  const FamilyTotals sum = result().sum();
  EXPECT_LT(sum.kizzle_fn, sum.av_fn);
}

TEST_F(ExperimentWeek, AnglerWindowOfVulnerabilityVisible) {
  const std::size_t ang = kitgen::family_index(kitgen::KitFamily::Angler);
  double peak_av_fn = 0.0;
  for (const DayMetrics& m : result().days) {
    if (m.day < kitgen::day_from_date(8, 14) ||
        m.day > kitgen::day_from_date(8, 18)) {
      continue;
    }
    if (m.family[ang].total == 0) continue;
    peak_av_fn = std::max(
        peak_av_fn, static_cast<double>(m.family[ang].av_fn) /
                        static_cast<double>(m.family[ang].total));
  }
  EXPECT_GT(peak_av_fn, 0.3);
}

TEST_F(ExperimentWeek, SignaturesWereIssued) {
  EXPECT_GE(result().kizzle_signatures.size(), 4u);
  std::set<std::string> families;
  for (const auto& s : result().kizzle_signatures) {
    families.insert(s.family);
  }
  EXPECT_GE(families.size(), 3u);
}

TEST_F(ExperimentWeek, AvReleasesIncludeInitialSet) {
  EXPECT_GE(result().av_releases.size(), 7u);
}

TEST_F(ExperimentWeek, SimilarityTrackedAfterFirstDay) {
  // From day 2 on, kits with labeled clusters report Fig 11 similarity.
  int tracked = 0;
  for (std::size_t d = 1; d < result().days.size(); ++d) {
    for (const auto& fam : result().days[d].family) {
      if (fam.similarity >= 0.0) {
        ++tracked;
        EXPECT_LE(fam.similarity, 1.0);
      }
    }
  }
  EXPECT_GT(tracked, 5);
}

TEST_F(ExperimentWeek, NuclearSimilarityIsHigh) {
  // Fig 11(a): Nuclear's unpacked core barely changes.
  const std::size_t nk =
      kitgen::family_index(kitgen::KitFamily::Nuclear);
  for (std::size_t d = 1; d < result().days.size(); ++d) {
    const double sim = result().days[d].family[nk].similarity;
    if (sim >= 0.0) {
      EXPECT_GT(sim, 0.9);
    }
  }
}

TEST_F(ExperimentWeek, SigLengthsReported) {
  bool any = false;
  for (const auto& m : result().days) {
    for (const auto& fam : m.family) {
      if (fam.sig_length > 0) any = true;
    }
  }
  EXPECT_TRUE(any);
}

TEST_F(ExperimentWeek, GroundTruthAccounting) {
  // Per-family totals must sum to the malicious total.
  const FamilyTotals sum = result().sum();
  EXPECT_EQ(sum.ground_truth, result().total_malicious);
}

TEST(Experiment, DayMetricsRates) {
  DayMetrics m;
  m.n_benign = 1000;
  m.n_malicious = 50;
  m.kizzle_fp = 1;
  m.kizzle_fn = 2;
  EXPECT_DOUBLE_EQ(m.kizzle_fp_rate(), 0.001);
  EXPECT_DOUBLE_EQ(m.kizzle_fn_rate(), 0.04);
  DayMetrics empty;
  EXPECT_DOUBLE_EQ(empty.kizzle_fp_rate(), 0.0);
}

TEST(Experiment, ThresholdLookup) {
  ExperimentConfig cfg;
  EXPECT_DOUBLE_EQ(family_threshold(cfg, kitgen::KitFamily::Rig),
                   cfg.threshold_rig);
  EXPECT_DOUBLE_EQ(family_threshold(cfg, kitgen::KitFamily::Nuclear),
                   cfg.threshold_nuclear);
}

}  // namespace
}  // namespace kizzle::eval
