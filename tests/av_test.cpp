#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "av/analyst.h"
#include "av/av_engine.h"
#include "kitgen/stream.h"
#include "text/normalize.h"

namespace kizzle::av {
namespace {

TEST(AvEngine, ReleaseDayGatesDetection) {
  ManualAvEngine engine;
  engine.schedule(
      AvRelease{10, kitgen::KitFamily::Rig, "RIG.sig1", "=y6;function"});
  EXPECT_FALSE(engine.detects(9, "var q==y6;functionf(t){}"));
  EXPECT_TRUE(engine.detects(10, "var q==y6;functionf(t){}"));
  EXPECT_TRUE(engine.detects(25, "var q==y6;functionf(t){}"));
}

TEST(AvEngine, MatchReturnsTheRelease) {
  ManualAvEngine engine;
  engine.schedule(AvRelease{1, kitgen::KitFamily::Angler, "ANG.sig1", "abc"});
  engine.schedule(AvRelease{1, kitgen::KitFamily::Rig, "RIG.sig1", "xyz"});
  const auto hit = engine.match(5, "zzzxyzzz");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->name, "RIG.sig1");
  EXPECT_EQ(hit->family, kitgen::KitFamily::Rig);
}

TEST(AvEngine, EmptyLiteralRejected) {
  ManualAvEngine engine;
  EXPECT_THROW(
      engine.schedule(AvRelease{1, kitgen::KitFamily::Rig, "bad", ""}),
      std::invalid_argument);
}

TEST(AvEngine, ReleasesForFamilySorted) {
  ManualAvEngine engine;
  engine.schedule(AvRelease{9, kitgen::KitFamily::Rig, "RIG.sig2", "b"});
  engine.schedule(AvRelease{2, kitgen::KitFamily::Rig, "RIG.sig1", "a"});
  engine.schedule(AvRelease{5, kitgen::KitFamily::Angler, "ANG.sig1", "c"});
  const auto rig = engine.releases_for(kitgen::KitFamily::Rig);
  ASSERT_EQ(rig.size(), 2u);
  EXPECT_EQ(rig[0].name, "RIG.sig1");
  EXPECT_EQ(rig[1].name, "RIG.sig2");
}

TEST(Analyst, InitialSignaturesDetectInitialKits) {
  kitgen::StreamConfig cfg;
  cfg.volume_scale = 0.1;
  kitgen::StreamSimulator sim(cfg);
  ManualAvEngine engine;
  Analyst analyst;
  analyst.install_initial_signatures(sim, engine);
  EXPECT_GE(engine.releases().size(), 7u);  // 4 features + marker + 2 structural

  // Day-1 samples of every kit are (mostly) detected.
  const auto batch = sim.generate_day(kitgen::kAug1);
  std::size_t detected = 0;
  std::size_t malicious = 0;
  for (const auto& s : batch.samples) {
    if (s.truth == kitgen::Truth::Benign) continue;
    ++malicious;
    if (engine.detects(kitgen::kAug1, text::normalize_raw(s.html))) {
      ++detected;
    }
  }
  ASSERT_GT(malicious, 0u);
  EXPECT_GE(detected * 100, malicious * 85);
}

TEST(Analyst, ReactsToKitEventsWithLag) {
  kitgen::StreamConfig cfg;
  cfg.volume_scale = 0.05;
  kitgen::StreamSimulator sim(cfg);
  ManualAvEngine engine;
  AnalystConfig acfg;
  acfg.lag_rig = 4;
  Analyst analyst(acfg);
  const std::size_t before = engine.releases().size();
  // Walk to the RIG delimiter change on 8/5.
  for (int day = kitgen::kAug1; day <= kitgen::day_from_date(8, 5); ++day) {
    sim.generate_day(day);
    analyst.observe_day(day, sim, engine);
  }
  ASSERT_GT(engine.releases().size(), before);
  // The new release is scheduled at event day + lag.
  const auto rig = engine.releases_for(kitgen::KitFamily::Rig);
  bool found = false;
  for (const auto& r : rig) {
    if (r.day == kitgen::day_from_date(8, 5) + 4) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(Analyst, AnglerWindowOfVulnerability) {
  // The Fig 6 story end-to-end: after 8/13 the new Angler version evades
  // all deployed AV signatures until the 8/19 release.
  kitgen::StreamConfig cfg;
  cfg.volume_scale = 0.3;
  kitgen::StreamSimulator sim(cfg);
  ManualAvEngine engine;
  Analyst analyst;  // lag_angler = 6 -> release on 8/19
  analyst.install_initial_signatures(sim, engine);

  // Average FN over multi-day phases to smooth small-sample noise.
  std::size_t totals[3] = {0, 0, 0};  // before / during / after
  std::size_t missed[3] = {0, 0, 0};
  for (int day = kitgen::kAug1; day <= kitgen::day_from_date(8, 26); ++day) {
    const auto batch = sim.generate_day(day);
    analyst.observe_day(day, sim, engine);
    int phase = -1;
    if (day >= kitgen::day_from_date(8, 7) &&
        day <= kitgen::day_from_date(8, 12)) {
      phase = 0;
    } else if (day >= kitgen::day_from_date(8, 14) &&
               day <= kitgen::day_from_date(8, 18)) {
      phase = 1;
    } else if (day >= kitgen::day_from_date(8, 20) &&
               day <= kitgen::day_from_date(8, 26)) {
      phase = 2;
    }
    if (phase < 0) continue;
    for (const auto& s : batch.samples) {
      if (s.truth != kitgen::Truth::Angler) continue;
      ++totals[phase];
      if (!engine.detects(day, text::normalize_raw(s.html))) {
        ++missed[phase];
      }
    }
  }
  for (int phase = 0; phase < 3; ++phase) ASSERT_GT(totals[phase], 0u);
  const double fn_before = static_cast<double>(missed[0]) / totals[0];
  const double fn_during = static_cast<double>(missed[1]) / totals[1];
  const double fn_after = static_cast<double>(missed[2]) / totals[2];
  EXPECT_LT(fn_before, 0.15);
  EXPECT_GT(fn_during, 0.35);  // the window: ~55% of samples on the new version
  EXPECT_LT(fn_after, 0.15);   // closed by the 8/19 release
}

// av_engine.h promises that concurrent match() calls are safe once the
// releases are loaded. Four threads over the full month's release set must
// answer exactly as a sequential pass (run under ThreadSanitizer in CI).
TEST(AvEngine, ConcurrentMatchEqualsSequentialPass) {
  kitgen::StreamConfig cfg;
  cfg.volume_scale = 0.1;
  kitgen::StreamSimulator sim(cfg);
  ManualAvEngine engine;
  Analyst analyst;
  analyst.install_initial_signatures(sim, engine);
  std::vector<std::string> docs;
  for (int day = kitgen::kAug1; day <= kitgen::day_from_date(8, 31); ++day) {
    const auto batch = sim.generate_day(day);
    analyst.observe_day(day, sim, engine);
    if (day != kitgen::kAug1) continue;
    for (const auto& s : batch.samples) {
      docs.push_back(text::normalize_raw(s.html));
    }
  }
  ASSERT_GE(engine.releases().size(), 15u);
  ASSERT_FALSE(docs.empty());

  // Each document as of three days: before, inside and after the Fig 6
  // window, so the release-day gate admits different subsets.
  const std::vector<int> days = {kitgen::kAug1, kitgen::day_from_date(8, 15),
                                 kitgen::day_from_date(8, 31)};
  using Answers = std::vector<std::optional<std::string>>;
  const auto answer_all = [&] {
    Answers out;
    for (const int day : days) {
      for (const std::string& doc : docs) {
        const auto hit = engine.match(day, doc);
        out.push_back(hit ? std::optional<std::string>(hit->name)
                          : std::nullopt);
      }
    }
    return out;
  };
  const Answers sequential = answer_all();
  ASSERT_NE(std::count(sequential.begin(), sequential.end(), std::nullopt),
            static_cast<std::ptrdiff_t>(sequential.size()));
  std::vector<Answers> concurrent(4);
  std::vector<std::thread> threads;
  for (Answers& answers : concurrent) {
    threads.emplace_back([&answer_all, &answers] { answers = answer_all(); });
  }
  for (std::thread& t : threads) t.join();
  for (const Answers& answers : concurrent) EXPECT_EQ(answers, sequential);
}

}  // namespace
}  // namespace kizzle::av
