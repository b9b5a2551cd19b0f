// Streaming scan + bundle artifact tests (the deployment channels):
// StreamingMatcher must be byte-identical to one-shot candidates() — and
// to the reference automaton (tests/testing) — over every chunking of a
// corpus, a recycled matcher must equal a fresh one whatever prefilter it
// moves to, and a database loaded from the `.kpf` artifact must give the
// verdicts of one compiled from the same signatures.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "core/sigdb.h"
#include "engine/engine.h"
#include "kitgen/families.h"
#include "kitgen/packers.h"
#include "kitgen/payload.h"
#include "kitgen/stream.h"
#include "match/pattern.h"
#include "match/prefilter.h"
#include "support/rng.h"
#include "testing/reference_automaton.h"
#include "text/normalize.h"

namespace kizzle::match {
namespace {

// ----------------------------- corpus setup -----------------------------

std::vector<std::string> kitgen_corpus() {
  Rng rng(0xFEED5EED);
  std::vector<std::string> samples;
  for (int i = 0; i < 4; ++i) {
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
  }
  samples.push_back("");                      // empty document
  samples.push_back("no literals here at all");
  return samples;
}

// A prefilter shaped like a deployed database: literal chunks cut from the
// corpus (most from *other* samples), shared literals, and fallback ids.
LiteralPrefilter corpus_prefilter(const std::vector<std::string>& corpus) {
  LiteralPrefilter pf;
  Rng rng(0xAB);
  std::size_t id = 0;
  for (const std::string& text : corpus) {
    if (text.size() < 64) continue;
    for (int k = 0; k < 3; ++k) {
      const std::size_t len = 12 + rng.index(24);
      const std::size_t at = rng.index(text.size() - len);
      pf.add(id++, text.substr(at, len));
    }
  }
  pf.add(id++, "fromCharCode");
  pf.add(id++, "fromCharCode");  // shared literal
  pf.add(id++, "");              // fallback
  pf.add(id++, "");
  pf.build();
  return pf;
}

std::vector<std::size_t> chunk_sizes_for(std::size_t n) {
  std::vector<std::size_t> sizes = {1, 7, 4096};
  sizes.push_back(std::max<std::size_t>(n, 1));  // whole text in one chunk
  return sizes;
}

// ------------------------- chunking oracle tests -------------------------

TEST(StreamingMatcher, EveryChunkingMatchesOneShotCandidates) {
  const auto corpus = kitgen_corpus();
  const LiteralPrefilter pf = corpus_prefilter(corpus);
  const testing::ReferenceAutomaton ref(pf);
  for (const std::string& text : corpus) {
    const auto expect = pf.candidates(text);
    ASSERT_EQ(expect, ref.candidates(text));
    for (const std::size_t chunk : chunk_sizes_for(text.size())) {
      StreamingMatcher m(pf);
      for (std::size_t at = 0; at < text.size(); at += chunk) {
        m.feed(std::string_view(text).substr(at, chunk));
      }
      EXPECT_EQ(m.finish(), expect)
          << "text size " << text.size() << " chunk " << chunk;
      EXPECT_EQ(m.bytes_fed(), text.size());
    }
  }
}

TEST(StreamingMatcher, LiteralStraddlingEveryChunkBoundaryIsFound) {
  LiteralPrefilter pf;
  pf.add(0, "straddle");
  pf.add(1, "xyz");
  pf.build();
  const std::string text = "aa straddle bb xyz cc";
  const auto expect = pf.candidates(text);
  ASSERT_EQ(expect, (std::vector<std::size_t>{0, 1}));
  // Split at every position: each literal straddles some split.
  for (std::size_t split = 0; split <= text.size(); ++split) {
    StreamingMatcher m(pf);
    m.feed(std::string_view(text).substr(0, split));
    m.feed(std::string_view(text).substr(split));
    EXPECT_EQ(m.finish(), expect) << "split at " << split;
  }
}

TEST(StreamingMatcher, FinishIsASnapshotAndResetRewinds) {
  LiteralPrefilter pf;
  pf.add(0, "alpha");
  pf.add(1, "beta");
  pf.add(2, "");
  pf.build();
  StreamingMatcher m(pf);
  m.feed("has alp");
  EXPECT_EQ(m.finish(), (std::vector<std::size_t>{2}));
  m.feed("ha only");  // completes "alpha" across the two feeds
  EXPECT_EQ(m.finish(), (std::vector<std::size_t>{0, 2}));
  m.feed(" and beta");
  EXPECT_EQ(m.finish(), (std::vector<std::size_t>{0, 1, 2}));
  m.reset();
  EXPECT_EQ(m.bytes_fed(), 0u);
  EXPECT_EQ(m.finish(), (std::vector<std::size_t>{2}));
  m.feed("beta");
  EXPECT_EQ(m.finish(), (std::vector<std::size_t>{1, 2}));
}

TEST(StreamingMatcher, RequiresBuiltPrefilter) {
  LiteralPrefilter pf;
  pf.add(0, "abc");
  EXPECT_THROW(StreamingMatcher{pf}, std::logic_error);
}

TEST(StreamingMatcher, FallbackOnlyPrefilterYieldsFallbackIds) {
  LiteralPrefilter pf;
  pf.add(0, "");
  pf.add(1, "");
  pf.build();
  StreamingMatcher m(pf);
  m.feed("anything at all");
  EXPECT_EQ(m.finish(), (std::vector<std::size_t>{0, 1}));
}

// ------------------------------ recycling ------------------------------

// A recycled matcher (engine::Scratch keeps one) rebinds across
// prefilters whose ids swap between literal, fallback and dense-shard
// roles, in both directions of id-space growth, mid-document included:
// every result must equal a fresh matcher's on the same prefilter.
TEST(StreamingMatcher, RebindAcrossPrefiltersEqualsFreshMatcher) {
  constexpr std::string_view kAlpha = "abcdefghijklmnopqrstuvwxyz0123456789";
  LiteralPrefilter a, b;
  a.add(0, "needle");
  a.add(1, "");
  b.add(0, "");
  b.add(1, "needle");
  for (std::size_t i = 0; i < 512; ++i) {
    std::string lit(1, kAlpha[i % kAlpha.size()]);
    if (i % 7 != 0) lit.push_back(kAlpha[(i / kAlpha.size()) % kAlpha.size()]);
    b.add(2 + i, lit);  // a dense shard in `b`; `a` stops at id 1
  }
  a.build();
  b.build();
  ASSERT_GT(b.dense_shard_count(), 0u);

  const std::string text = "xx needle yy q7 zz 0a" + std::string(300, '.') +
                           "needle";
  StreamingMatcher recycled(a);
  for (const LiteralPrefilter* pf : {&a, &b, &a, &b}) {
    recycled.feed(std::string_view(text).substr(0, 9));  // abandoned
    recycled.rebind(*pf);
    StreamingMatcher fresh(*pf);
    for (std::size_t at = 0; at < text.size(); at += 13) {
      recycled.feed(std::string_view(text).substr(at, 13));
      fresh.feed(std::string_view(text).substr(at, 13));
    }
    const auto expect = pf->candidates(text);
    EXPECT_EQ(fresh.finish(), expect);
    EXPECT_EQ(recycled.finish(), expect);
    recycled.reset();
    recycled.feed(text);
    EXPECT_EQ(recycled.finish(), expect);
  }
}

}  // namespace
}  // namespace kizzle::match

// ------------------------- bundle artifact tests -------------------------

namespace kizzle::core {
namespace {

// Index of the first matching signature, or nullopt.
std::optional<std::size_t> first_index(const engine::Database& db,
                                       std::string_view text) {
  engine::Scratch scratch;
  const auto hit = engine::first_match(db, text, scratch);
  if (!hit) return std::nullopt;
  return hit->sig_index;
}

std::vector<DeployedSignature> artifact_signatures() {
  const std::vector<std::string> patterns = {
      "landingpage[0-9]+", "fromCharCode", "[0-9]+[a-z]+",  // fallback
      "substrabc\\(\\)",   "fromCharCode",                  // duplicate literal
  };
  std::vector<DeployedSignature> sigs;
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    DeployedSignature s;
    s.name = "KZ.T." + std::to_string(i);
    s.family = "Test";
    s.issued_day = static_cast<int>(i);
    s.token_length = 10 + i;
    s.pattern = patterns[i];
    sigs.push_back(s);
  }
  return sigs;
}

TEST(BundleArtifact, RoundTripPreservesSignaturesAndLineage) {
  const auto sigs = artifact_signatures();
  std::stringstream blob(std::ios::in | std::ios::out | std::ios::binary);
  save_artifact(blob, sigs);
  const BundleArtifact loaded = load_artifact(blob);
  ASSERT_EQ(loaded.signatures.size(), sigs.size());
  for (std::size_t i = 0; i < sigs.size(); ++i) {
    EXPECT_EQ(loaded.signatures[i].name, sigs[i].name);
    EXPECT_EQ(loaded.signatures[i].pattern, sigs[i].pattern);
    EXPECT_EQ(loaded.signatures[i].issued_day, sigs[i].issued_day);
    EXPECT_EQ(loaded.signatures[i].token_length, sigs[i].token_length);
  }
  EXPECT_EQ(loaded.fingerprint, fingerprint(sigs));

  // The database compiled at load has the candidates of a fresh compile.
  std::stringstream again(blob.str());
  const engine::Database db = engine::Database::from_artifact(again);
  const engine::Database fresh = engine::Database::compile(sigs);
  EXPECT_EQ(db.fingerprint(), loaded.fingerprint);
  const std::vector<std::string> texts = {
      "xx landingpage42", "xx fromCharCode yy", "123abc456", "substrabc()",
      "nothing", ""};
  for (const std::string& t : texts) {
    EXPECT_EQ(db.prefilter().candidates(t),
              fresh.prefilter().candidates(t))
        << t;
  }
}

TEST(BundleArtifact, ArtifactLoadedDatabaseMatchesFreshDatabase) {
  const auto sigs = artifact_signatures();
  std::stringstream blob(std::ios::in | std::ios::out | std::ios::binary);
  save_artifact(blob, sigs);
  std::vector<DeployedSignature> loaded;
  const engine::Database from_artifact =
      engine::Database::from_artifact(blob, &loaded);
  const engine::Database fresh = engine::Database::compile(sigs);
  ASSERT_EQ(from_artifact.size(), fresh.size());
  ASSERT_EQ(loaded.size(), sigs.size());
  EXPECT_EQ(loaded.front().issued_day, sigs.front().issued_day);
  const std::vector<std::string> texts = {
      "xx landingpage42", "xx fromCharCode yy", "123abc456", "substrabc()",
      "nothing", ""};
  for (const std::string& t : texts) {
    EXPECT_EQ(first_index(from_artifact, t), first_index(fresh, t)) << t;
  }
}

TEST(BundleArtifact, RejectsBadMagicAndTruncation) {
  std::stringstream blob(std::ios::in | std::ios::out | std::ios::binary);
  save_artifact(blob, artifact_signatures());
  const std::string good = blob.str();
  {
    std::string bad = good;
    bad[0] = 'x';
    std::istringstream is(bad);
    EXPECT_THROW(load_artifact(is), std::runtime_error);
  }
  {
    std::istringstream is(good.substr(0, good.size() - 9));
    EXPECT_THROW(load_artifact(is), std::runtime_error);
  }
}

TEST(BundleArtifact, PipelineExportLoadsIntoEquivalentBundle) {
  // Run the real pipeline for a couple of simulated days, export the
  // artifact at release time, and check a deployment process loading it
  // scans identically to one rebuilding from the signature list.
  kitgen::StreamConfig scfg;
  scfg.volume_scale = 0.10;
  kitgen::StreamSimulator sim(scfg);
  KizzlePipeline pipeline(PipelineConfig{}, 20140801);
  for (const auto& [family, payload] : sim.seed_corpus()) {
    pipeline.seed_family(std::string(kitgen::family_name(family)), 0.55,
                         payload);
  }
  std::vector<std::string> scan_texts;
  for (int day = kitgen::kAug1; day < kitgen::kAug1 + 2; ++day) {
    const auto batch = sim.generate_day(day);
    std::vector<std::string> htmls;
    for (const auto& s : batch.samples) htmls.push_back(s.html);
    pipeline.process_day(day, htmls);
    for (std::size_t i = 0; i < htmls.size(); i += 7) {
      scan_texts.push_back(text::normalize_raw(htmls[i]));
    }
  }
  ASSERT_FALSE(pipeline.signatures().empty());

  std::stringstream blob(std::ios::in | std::ios::out | std::ios::binary);
  pipeline.export_artifact(blob);
  const engine::Database from_artifact = engine::Database::from_artifact(blob);
  const engine::Database fresh =
      engine::Database::compile(pipeline.signatures());
  ASSERT_EQ(from_artifact.size(), pipeline.signatures().size());
  for (const std::string& t : scan_texts) {
    EXPECT_EQ(first_index(from_artifact, t), first_index(fresh, t));
  }
}

TEST(BundleArtifact, EmptyPipelineExportsLoadableArtifact) {
  KizzlePipeline pipeline(PipelineConfig{}, 1);
  std::stringstream blob(std::ios::in | std::ios::out | std::ios::binary);
  pipeline.export_artifact(blob);
  const engine::Database db = engine::Database::from_artifact(blob);
  EXPECT_EQ(db.size(), 0u);
  EXPECT_FALSE(first_index(db, "anything").has_value());
}

// ----------------- chunked channel scans vs one-shot -----------------

TEST(BundleArtifact, StreamFirstMatchEqualsOneShotOverAllChunkings) {
  const engine::Database db =
      engine::Database::compile(artifact_signatures());
  engine::Scratch scratch;
  const std::vector<std::string> texts = {
      "xx landingpage42", "xx fromCharCode yy", "123abc456", "substrabc()",
      "nothing", std::string(9000, 'a') + "landingpage7" + std::string(5000, 'b'),
      ""};
  for (const std::string& t : texts) {
    const auto expect = first_index(db, t);
    for (const std::size_t chunk :
         std::vector<std::size_t>{1, 7, 4096, std::max<std::size_t>(t.size(), 1)}) {
      engine::Stream stream = engine::open_stream(db, scratch);
      for (std::size_t at = 0; at < t.size(); at += chunk) {
        stream.feed(std::string_view(t).substr(at, chunk));
      }
      const auto got = stream.finish_first();
      ASSERT_EQ(got.has_value(), expect.has_value()) << "chunk " << chunk;
      if (got) EXPECT_EQ(got->sig_index, *expect) << "chunk " << chunk;
      EXPECT_EQ(stream.text(), t);
    }
  }
}

}  // namespace
}  // namespace kizzle::core
