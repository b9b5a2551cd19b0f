// Chunked-scan + bundle artifact tests (the deployment channels): an
// engine::Stream accumulates its feeds and scans them once at finish(),
// so every finish — including a snapshot taken mid-stream — must deliver
// exactly the events and stats of a one-shot scan of everything fed so
// far, open_stream() must rewind, and a database loaded from the `.kpf`
// artifact must give the verdicts of one compiled from the same
// signatures. (Every chunking and split of the kitgen corpus is diffed
// against one-shot scans in tests/engine_test.cpp.)
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
#include "kitgen/stream.h"
#include "text/normalize.h"

namespace kizzle::engine {
namespace {

std::vector<std::size_t> event_indices(const Database& db,
                                       std::string_view text,
                                       Scratch& scratch) {
  std::vector<std::size_t> out;
  scan(db, text, scratch, [&out](const MatchEvent& event) {
    out.push_back(event.sig_index);
    return ScanDecision::Continue;
  });
  return out;
}

std::vector<std::size_t> finish_indices(const Stream& stream) {
  std::vector<std::size_t> out;
  stream.finish([&out](const MatchEvent& event) {
    out.push_back(event.sig_index);
    return ScanDecision::Continue;
  });
  return out;
}

// finish() is a snapshot: feeding may continue and every finish scans all
// bytes fed so far — a literal completed by a later feed is found then.
// open_stream() rewinds: nothing of the previous stream carries over, not
// even a literal prefix at its end.
TEST(EngineStream, FinishIsASnapshotAndOpenStreamRewinds) {
  const Database db = Database::compile(std::vector<Database::Spec>{
      {"alpha", "T", "alpha"},
      {"beta", "T", "beta"},
      {"word", "T", "[a-z]{3}"},  // no usable literal: always a candidate
  });
  ASSERT_EQ(db.prefilter().fallback_ids(), (std::vector<std::size_t>{2}));
  Scratch scratch;
  Scratch oneshot;
  Stream stream = open_stream(db, scratch);
  std::string fed;
  const auto feed_and_check = [&](std::string_view chunk,
                                  const std::vector<std::size_t>& want) {
    stream.feed(chunk);
    fed += chunk;
    EXPECT_EQ(finish_indices(stream), want) << fed;
    EXPECT_EQ(event_indices(db, fed, oneshot), want) << fed;
    EXPECT_EQ(stream.text(), fed);
    EXPECT_EQ(stream.bytes_fed(), fed.size());
  };
  feed_and_check("has alp", {2});
  feed_and_check("ha only", {0, 2});  // "alpha" across the two feeds
  feed_and_check(" and beta", {0, 1, 2});

  stream = open_stream(db, scratch);
  EXPECT_EQ(stream.bytes_fed(), 0u);
  EXPECT_TRUE(stream.text().empty());
  EXPECT_TRUE(finish_indices(stream).empty());
  fed.clear();
  feed_and_check("beta", {1, 2});

  // A literal prefix at the end of an abandoned stream does not complete
  // across the rewind.
  stream = open_stream(db, scratch);
  stream.feed("alp");
  stream = open_stream(db, scratch);
  fed.clear();
  feed_and_check("ha", {});
}

// A database whose patterns have no usable literal never runs the first
// stage: every signature is a candidate, streamed or not, and the stream's
// stats say so.
TEST(EngineStream, DatabaseWithNoUsableLiteralStreamsLikeOneShot) {
  const Database db = Database::compile(std::vector<Database::Spec>{
      {"zq", "T", "zq[0-9]{3}zq"},
      {"mix", "T", "[0-9]+[a-z]+"},
  });
  ASSERT_EQ(db.prefilter().fallback_count(), db.size());
  const std::vector<std::string> texts = {"xx zq123zq yy", "42abc", "zq12zq",
                                          ""};
  Scratch scratch;
  Scratch oneshot;
  for (const std::string& text : texts) {
    const auto want = event_indices(db, text, oneshot);
    for (const std::size_t chunk : {std::size_t{1}, std::size_t{3},
                                     std::max<std::size_t>(text.size(), 1)}) {
      Stream stream = open_stream(db, scratch);
      for (std::size_t at = 0; at < text.size(); at += chunk) {
        stream.feed(std::string_view(text).substr(at, chunk));
      }
      EXPECT_EQ(finish_indices(stream), want) << text << " / " << chunk;
      EXPECT_EQ(scratch.stats().prefilter.fallback,
                match::PrefilterFallback::kNoLiterals);
      EXPECT_EQ(scratch.stats().candidates, db.size());
    }
  }
}

}  // namespace
}  // namespace kizzle::engine

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
