#include <gtest/gtest.h>

#include <functional>
#include <sstream>

#include "core/pipeline.h"
#include "kitgen/stream.h"
#include "text/normalize.h"

namespace kizzle::core {
namespace {

// One pipeline + one small simulated day, shared across assertions.
class PipelineIntegration : public ::testing::Test {
 protected:
  static constexpr double kScale = 0.25;

  void SetUp() override {
    kitgen::StreamConfig scfg;
    scfg.volume_scale = kScale;
    sim_ = std::make_unique<kitgen::StreamSimulator>(scfg);

    PipelineConfig pcfg;
    pcfg.partitions = 4;
    pcfg.threads = 4;
    pipeline_ = std::make_unique<KizzlePipeline>(pcfg, 12345);
    for (const auto& [family, payload] : sim_->seed_corpus()) {
      pipeline_->seed_family(std::string(kitgen::family_name(family)), 0.60,
                             payload);
    }
  }

  kitgen::DailyBatch day(int d) { return sim_->generate_day(d); }

  static std::vector<std::string> htmls(const kitgen::DailyBatch& batch) {
    std::vector<std::string> out;
    for (const auto& s : batch.samples) out.push_back(s.html);
    return out;
  }

  std::unique_ptr<kitgen::StreamSimulator> sim_;
  std::unique_ptr<KizzlePipeline> pipeline_;
};

TEST_F(PipelineIntegration, FullDayEndToEnd) {
  const auto batch = day(kitgen::kAug1);
  const DayReport report = pipeline_->process_day(kitgen::kAug1, htmls(batch));

  EXPECT_EQ(report.n_samples, batch.samples.size());
  EXPECT_GT(report.n_clusters, 5u);

  // Every kit present in volume should produce at least one labeled
  // cluster, and labeled clusters should carry signatures.
  std::set<std::string> labeled;
  for (const ClusterReport& cr : report.clusters) {
    if (!cr.label.empty()) labeled.insert(cr.label);
  }
  EXPECT_TRUE(labeled.contains("Nuclear"));
  EXPECT_TRUE(labeled.contains("Angler"));
  EXPECT_TRUE(labeled.contains("Sweet Orange"));
  EXPECT_FALSE(pipeline_->signatures().empty());

  // Labeled clusters must be actual kit samples (no benign leakage in
  // this small run — the engineered confusers are rare at this scale).
  for (const ClusterReport& cr : report.clusters) {
    if (cr.label.empty()) continue;
    std::size_t right = 0;
    for (std::size_t idx : cr.samples) {
      if (std::string(kitgen::truth_name(batch.samples[idx].truth)) ==
          cr.label) {
        ++right;
      }
    }
    EXPECT_GE(right * 10, cr.samples.size() * 9)
        << cr.label << " cluster purity";
  }

  // Signatures must match the samples they were compiled from.
  for (const ClusterReport& cr : report.clusters) {
    if (!cr.issued_signature) continue;
    std::size_t sig_idx = SIZE_MAX;
    for (std::size_t i = 0; i < pipeline_->signatures().size(); ++i) {
      if (pipeline_->signatures()[i].name == cr.signature_name) sig_idx = i;
    }
    ASSERT_NE(sig_idx, SIZE_MAX);
    const auto pattern =
        match::Pattern::compile(pipeline_->signatures()[sig_idx].pattern);
    std::size_t matched = 0;
    for (std::size_t idx : cr.samples) {
      if (pattern.found_in(text::normalize_raw(batch.samples[idx].html))) {
        ++matched;
      }
    }
    EXPECT_GE(matched * 10, cr.samples.size() * 9) << cr.signature_name;
  }
}

TEST_F(PipelineIntegration, UnpackersFireOnKitClusters) {
  const auto batch = day(kitgen::kAug1);
  const DayReport report = pipeline_->process_day(kitgen::kAug1, htmls(batch));
  std::set<std::string> unpackers_used;
  for (const ClusterReport& cr : report.clusters) {
    if (cr.unpacked) unpackers_used.insert(cr.unpacker);
  }
  EXPECT_TRUE(unpackers_used.contains("nuclear"));
  EXPECT_TRUE(unpackers_used.contains("angler"));
  EXPECT_TRUE(unpackers_used.contains("sweet_orange"));
}

TEST_F(PipelineIntegration, SecondDayDoesNotReissueForStableKits) {
  pipeline_->process_day(kitgen::kAug1, htmls(day(kitgen::kAug1)));
  std::size_t nuclear_sigs_day1 = 0;
  for (const auto& s : pipeline_->signatures()) {
    if (s.family == "Nuclear") ++nuclear_sigs_day1;
  }
  pipeline_->process_day(kitgen::kAug1 + 3, htmls(day(kitgen::kAug1 + 3)));
  std::size_t nuclear_sigs_day2 = 0;
  for (const auto& s : pipeline_->signatures()) {
    if (s.family == "Nuclear") ++nuclear_sigs_day2;
  }
  // Nuclear's packer is unchanged Aug 1 -> Aug 4, so at most one extra
  // signature may appear (a one-time adaptation when the first day's
  // cluster happened to contain no AV-evading minor variant and the second
  // day's did). Re-issuing every day would be a regression.
  EXPECT_LE(nuclear_sigs_day2, nuclear_sigs_day1 + 1);
}

TEST_F(PipelineIntegration, ScanAsOfRespectsIssueDay) {
  const auto batch = day(kitgen::kAug1);
  pipeline_->process_day(kitgen::kAug1, htmls(batch));
  ASSERT_FALSE(pipeline_->signatures().empty());
  // Find a malicious sample the full signature set matches.
  for (const auto& s : batch.samples) {
    if (s.truth == kitgen::Truth::Benign) continue;
    const std::string norm = text::normalize_raw(s.html);
    const auto hit = pipeline_->scan(norm);
    if (!hit) continue;
    // Its signature was issued today (kAug1), so scanning "as of
    // yesterday" must miss.
    EXPECT_FALSE(
        pipeline_->scan_as_of(norm, kitgen::kAug1 - 1, true).has_value());
    EXPECT_TRUE(
        pipeline_->scan_as_of(norm, kitgen::kAug1, true).has_value());
    return;
  }
  FAIL() << "no detected malicious sample found";
}

TEST(Pipeline, EmptyDay) {
  KizzlePipeline pipeline(PipelineConfig{}, 1);
  const DayReport report = pipeline.process_day(0, {});
  EXPECT_EQ(report.n_samples, 0u);
  EXPECT_EQ(report.n_clusters, 0u);
}

TEST(Pipeline, UnknownSamplesStayUnlabeled) {
  KizzlePipeline pipeline(PipelineConfig{}, 1);
  pipeline.seed_family("Nuclear", 0.7, "function nk(){return 1}");
  std::vector<std::string> docs;
  for (int i = 0; i < 6; ++i) {
    docs.push_back("<html><script>var q=" + std::to_string(i) +
                   ";function benignthing(a){return a*2}</script></html>");
  }
  const DayReport report = pipeline.process_day(0, docs);
  for (const auto& cr : report.clusters) {
    EXPECT_TRUE(cr.label.empty());
  }
  EXPECT_TRUE(pipeline.signatures().empty());
}

// ---------------------------------------- thread-count differential --

// Everything a campaign produces, timing excluded.
struct CampaignOutput {
  std::vector<std::pair<std::string, std::string>> seeds;  // family, payload
  std::vector<DayReport> reports;
  std::vector<DeployedSignature> signatures;
  std::string artifact;
  std::string delta;  // increment over the first day
};

// Low enough that many clusters of one family are labeled on the same day
// (about six Nuclear clusters on the third), so the corpus entries a
// family gains or evicts during a day decide later labels of that day.
constexpr double kCampaignThreshold = 0.10;

CampaignOutput run_campaign(PipelineConfig cfg, std::size_t threads) {
  constexpr int kDays = 3;
  kitgen::StreamConfig scfg;
  scfg.volume_scale = 0.2;
  kitgen::StreamSimulator sim(scfg);
  cfg.partitions = 4;
  cfg.threads = threads;
  KizzlePipeline pipeline(cfg, 777);
  CampaignOutput out;
  for (const auto& [family, payload] : sim.seed_corpus()) {
    out.seeds.emplace_back(kitgen::family_name(family), payload);
    pipeline.seed_family(out.seeds.back().first, kCampaignThreshold, payload);
  }
  for (int day = kitgen::kAug1; day < kitgen::kAug1 + kDays; ++day) {
    std::vector<std::string> htmls;
    for (const auto& sample : sim.generate_day(day).samples) {
      htmls.push_back(sample.html);
    }
    out.reports.push_back(pipeline.process_day(day, htmls));
  }
  out.signatures = pipeline.signatures();
  std::ostringstream artifact;
  pipeline.export_artifact(artifact);
  out.artifact = artifact.str();
  std::ostringstream delta;
  pipeline.export_delta(delta, kitgen::kAug1);
  out.delta = delta.str();
  return out;
}

void expect_same_dbscan_counts(const cluster::DbscanStats& a,
                               const cluster::DbscanStats& b) {
  EXPECT_EQ(a.pairs_considered, b.pairs_considered);
  EXPECT_EQ(a.pairs_pruned_length, b.pairs_pruned_length);
  EXPECT_EQ(a.pairs_pruned_histogram, b.pairs_pruned_histogram);
  EXPECT_EQ(a.pairs_pruned_sketch, b.pairs_pruned_sketch);
  EXPECT_EQ(a.dp_computations, b.dp_computations);
}

void expect_same_report(const DayReport& a, const DayReport& b) {
  EXPECT_EQ(a.day, b.day);
  EXPECT_EQ(a.n_samples, b.n_samples);
  EXPECT_EQ(a.n_clusters, b.n_clusters);
  EXPECT_EQ(a.n_noise_samples, b.n_noise_samples);
  expect_same_dbscan_counts(a.cluster_stats.map, b.cluster_stats.map);
  expect_same_dbscan_counts(a.cluster_stats.reduce, b.cluster_stats.reduce);
  EXPECT_EQ(a.cluster_stats.clusters_before_merge,
            b.cluster_stats.clusters_before_merge);
  EXPECT_EQ(a.cluster_stats.clusters_after_merge,
            b.cluster_stats.clusters_after_merge);
  ASSERT_EQ(a.clusters.size(), b.clusters.size());
  for (std::size_t c = 0; c < a.clusters.size(); ++c) {
    SCOPED_TRACE("cluster " + std::to_string(c));
    const ClusterReport& x = a.clusters[c];
    const ClusterReport& y = b.clusters[c];
    EXPECT_EQ(x.samples, y.samples);
    EXPECT_EQ(x.label, y.label);
    EXPECT_EQ(x.overlap, y.overlap);  // bit-identical, not approximately
    EXPECT_EQ(x.unpacked, y.unpacked);
    EXPECT_EQ(x.unpacker, y.unpacker);
    EXPECT_EQ(x.prototype_text, y.prototype_text);
    EXPECT_EQ(x.issued_signature, y.issued_signature);
    EXPECT_EQ(x.signature_name, y.signature_name);
    EXPECT_EQ(x.signature_failure, y.signature_failure);
    EXPECT_EQ(x.coverage, y.coverage);
  }
}

// Labeling oracle: replays every day's labeling decisions in cluster order
// against a corpus that is updated as it goes and scored from scratch,
// as a serial loop labels. process_day labels from scores taken before
// the day's first label, so this pins that reuse as exact, evictions
// included; a threads=1 run cannot, since it reuses scores the same way.
void expect_serial_labeling(const PipelineConfig& cfg,
                            const CampaignOutput& out) {
  LabeledCorpus corpus(cfg.winnow, cfg.corpus_max_per_family);
  for (const auto& [family, payload] : out.seeds) {
    corpus.add_family(family, kCampaignThreshold);
    corpus.add_sample(family, text::normalize_js(payload));
  }
  for (const DayReport& r : out.reports) {
    for (const ClusterReport& cr : r.clusters) {
      const LabelScore score = corpus.label(
          winnow::FingerprintSet::of_text(cr.prototype_text, cfg.winnow));
      EXPECT_EQ(cr.label, score.family) << "day " << r.day;
      EXPECT_EQ(cr.overlap, score.overlap) << "day " << r.day;
      if (!score.family.empty()) {
        corpus.add_sample(score.family, cr.prototype_text);
      }
    }
  }
}

struct ThreadCountVariant {
  const char* name;
  std::function<void(PipelineConfig&)> adjust;
};

class ThreadCountDifferential
    : public ::testing::TestWithParam<ThreadCountVariant> {};

// process_day fans ingest and the cluster prologues out over the pool but
// keeps interning, labeling and issue in order: one worker and four must
// produce the same reports, signatures and artifact bytes.
TEST_P(ThreadCountDifferential, OneAndFourThreadsProduceIdenticalOutput) {
  PipelineConfig cfg;
  GetParam().adjust(cfg);
  const CampaignOutput serial = run_campaign(cfg, 1);
  const CampaignOutput parallel = run_campaign(cfg, 4);

  std::size_t labeled = 0;
  for (const DayReport& r : serial.reports) {
    for (const ClusterReport& cr : r.clusters) labeled += !cr.label.empty();
  }
  EXPECT_GT(labeled, 0u) << "the campaign must exercise labeling";

  ASSERT_EQ(serial.reports.size(), parallel.reports.size());
  for (std::size_t d = 0; d < serial.reports.size(); ++d) {
    SCOPED_TRACE("day index " + std::to_string(d));
    expect_same_report(serial.reports[d], parallel.reports[d]);
  }
  ASSERT_EQ(serial.signatures.size(), parallel.signatures.size());
  for (std::size_t i = 0; i < serial.signatures.size(); ++i) {
    const DeployedSignature& x = serial.signatures[i];
    const DeployedSignature& y = parallel.signatures[i];
    EXPECT_EQ(x.name, y.name);
    EXPECT_EQ(x.family, y.family);
    EXPECT_EQ(x.issued_day, y.issued_day);
    EXPECT_EQ(x.pattern, y.pattern);
    EXPECT_EQ(x.token_length, y.token_length);
  }
  EXPECT_TRUE(serial.artifact == parallel.artifact) << "artifact bytes differ";
  EXPECT_TRUE(serial.delta == parallel.delta) << "delta bytes differ";
  expect_serial_labeling(cfg, parallel);
}

INSTANTIATE_TEST_SUITE_P(
    Pipeline, ThreadCountDifferential,
    ::testing::Values(
        ThreadCountVariant{"Default", [](PipelineConfig&) {}},
        // Every labeled prototype evicts the family's previous entry, so
        // labeling must account for entries gone since the prologue.
        ThreadCountVariant{"EvictEveryAdd",
                           [](PipelineConfig& c) {
                             c.corpus_max_per_family = 1;
                           }},
        // Every identifier is its own symbol: interner misses every day.
        ThreadCountVariant{"FullText",
                           [](PipelineConfig& c) {
                             c.abstraction = text::Abstraction::FullText;
                           }}),
    [](const ::testing::TestParamInfo<ThreadCountVariant>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace kizzle::core
