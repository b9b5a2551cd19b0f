// Release artifact tests (core/sigdb.h, engine/engine.h, serve/server.h):
// the `.kpf` v3 bundle — signatures plus lineage, every matcher structure
// derived at load — through the load, serve and lint paths, the refusal
// of the retired v1/v2 layouts, plus KZDELTA delta artifacts end to end:
// save / load / apply / retire, lineage-fingerprint enforcement, the
// serve deploy_delta gate, and the watcher's partial-write debounce. The
// pinned-stream test only bites under ASan: a stream outliving its
// epoch's database has no crash signature in a plain build.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/deploy.h"
#include "core/pipeline.h"
#include "core/sigdb.h"
#include "engine/engine.h"
#include "serve/loadgen.h"
#include "serve/server.h"
#include "support/errors.h"

namespace kizzle {
namespace {

// One pipeline-built fixture per process (a real kitgen day: corpus docs,
// the deployed database, artifact bytes for the swap paths).
const serve::ServeFixture& fixture() {
  static const serve::ServeFixture fx = [] {
    serve::FixtureConfig cfg;
    cfg.max_docs = 64;
    return serve::make_fixture(cfg);
  }();
  return fx;
}

std::string write_temp(const std::string& bytes, const std::string& tag) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("kizzle_artifact_v3_" + tag + "_" + std::to_string(::getpid())))
          .string();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
  return path;
}

void expect_same_signatures(const std::vector<core::DeployedSignature>& a,
                            const std::vector<core::DeployedSignature>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].family, b[i].family);
    EXPECT_EQ(a[i].issued_day, b[i].issued_day);
    EXPECT_EQ(a[i].pattern, b[i].pattern);
    EXPECT_EQ(a[i].token_length, b[i].token_length);
  }
}

// --------------------------- bundle v3 ---------------------------

TEST(ArtifactV3, IstreamRoundTripPreservesSignatures) {
  const serve::ServeFixture& fx = fixture();
  std::istringstream is(fx.artifact);
  std::vector<core::DeployedSignature> loaded;
  const engine::Database db = engine::Database::from_artifact(is, &loaded);
  expect_same_signatures(loaded, fx.signatures);
  EXPECT_EQ(db.size(), fx.signatures.size());
  EXPECT_EQ(db.fingerprint(), fx.database->fingerprint());
}

// The layout carries nothing derived: header, the signature text, the
// lineage fingerprint and the seal — so its size is the text's plus 40.
TEST(ArtifactV3, ArtifactIsSignaturesPlusLineageOnly) {
  const serve::ServeFixture& fx = fixture();
  const std::string text = core::save_signatures(fx.signatures);
  ASSERT_EQ(fx.artifact.size(), 24 + text.size() + 16);
  EXPECT_EQ(fx.artifact.compare(24, text.size(), text), 0);
  std::uint64_t fp = 0;
  std::memcpy(&fp, fx.artifact.data() + 24 + text.size(), sizeof fp);
  EXPECT_EQ(fp, core::fingerprint(fx.signatures));
  std::istringstream is(fx.artifact);
  EXPECT_EQ(core::load_artifact(is).fingerprint, fp);
}

// Loading compiles deterministically: two loads of one artifact derive
// identical first stages, and the loaded database scans exactly like the
// pipeline's own incrementally maintained one over a kitgen corpus.
TEST(ArtifactV3, LoadedDatabaseScansLikeTheCompiledOne) {
  const serve::ServeFixture& fx = fixture();
  std::istringstream is1(fx.artifact), is2(fx.artifact);
  const engine::Database a = engine::Database::from_artifact(is1);
  const engine::Database b = engine::Database::from_artifact(is2);
  EXPECT_EQ(a.prefilter().dense_shard_flags(),
            b.prefilter().dense_shard_flags());
  const auto regs_a = a.prefilter().registrations();
  const auto regs_b = b.prefilter().registrations();
  ASSERT_EQ(regs_a.size(), regs_b.size());
  for (std::size_t i = 0; i < regs_a.size(); ++i) {
    EXPECT_EQ(regs_a[i].literal, regs_b[i].literal);
    EXPECT_EQ(regs_a[i].id, regs_b[i].id);
  }

  engine::Scratch s1, s2;
  std::size_t matched = 0;
  for (const serve::CorpusDoc& doc : fx.docs) {
    EXPECT_EQ(a.prefilter().candidates(doc.text),
              fx.database->prefilter().candidates(doc.text));
    const auto x = engine::first_match(a, doc.text, s1);
    const auto y = engine::first_match(*fx.database, doc.text, s2);
    ASSERT_EQ(x.has_value(), y.has_value()) << "verdicts diverge";
    if (x) {
      EXPECT_EQ(x->sig_index, y->sig_index);
      ++matched;
    }
  }
  EXPECT_GT(matched, 0u) << "oracle corpus never matched — vacuous test";
}

// Bundles of the retired layouts (committed as released, under
// fuzz/regressions/load_artifact/) are refused everywhere with a typed
// error, and a serving epoch is never replaced by one.
TEST(ArtifactV3, RetiredLayoutsAreRefusedEverywhere) {
  const serve::ServeFixture& fx = fixture();
  serve::ScanServer server(fx.database, serve::ServerConfig{});
  const std::uint64_t epoch0 = server.epoch();
  const std::filesystem::path dir = std::filesystem::path(KIZZLE_FUZZ_DIR) /
                                    "regressions" / "load_artifact";
  std::size_t checked = 0;
  for (const char* name : {"v1_tiny.kpf", "v2_demo.kpf", "kzpf_tiny.kzpf"}) {
    std::ifstream in(dir / name, std::ios::binary);
    ASSERT_TRUE(in) << name;
    const std::string bytes{std::istreambuf_iterator<char>(in),
                            std::istreambuf_iterator<char>()};
    std::istringstream is(bytes);
    EXPECT_THROW(engine::Database::from_artifact(is), ArtifactError) << name;
    std::istringstream serve_in(bytes);
    const auto swap = server.deploy_artifact(serve_in);
    EXPECT_FALSE(swap.accepted) << name;
    EXPECT_FALSE(swap.reason.empty()) << name;
    ++checked;
  }
  EXPECT_EQ(checked, 3u);
  EXPECT_EQ(server.epoch(), epoch0);
  EXPECT_EQ(server.database(), fx.database);
  server.stop();
}

// A stream pinned to an epoch keeps that epoch's database alive across a
// hot swap that retires it: the stream must finish on its opening
// database reading valid memory (ASan catches the alternative).
TEST(ArtifactV3, PinnedStreamSurvivesSwapAwayFromItsEpoch) {
  const serve::ServeFixture& fx = fixture();
  std::istringstream is(fx.artifact);
  auto loaded = std::make_shared<const engine::Database>(
      engine::Database::from_artifact(is));

  serve::ServerConfig cfg;
  cfg.workers = 1;
  serve::ScanServer server(std::move(loaded), cfg);
  const std::uint64_t epoch0 = server.epoch();

  // Pick a doc the original database matches, so the verdict proves the
  // pinned tables were actually walked.
  const serve::CorpusDoc* target = nullptr;
  {
    engine::Scratch scratch;
    for (const serve::CorpusDoc& doc : fx.docs) {
      if (engine::first_match(*fx.database, doc.text, scratch)) {
        target = &doc;
        break;
      }
    }
  }
  ASSERT_NE(target, nullptr);

  serve::ScanServer::Stream stream = server.open_stream();
  EXPECT_EQ(stream.epoch(), epoch0);
  const std::size_t half = target->text.size() / 2;
  ASSERT_EQ(stream.feed(target->text.substr(0, half)),
            serve::RequestStatus::kOk);

  // Swap the serving database away: the server drops its reference to the
  // loaded epoch; only the pinned stream still holds it.
  std::istringstream art(fx.swap_artifact);
  ASSERT_TRUE(server.deploy_artifact(art).accepted);

  ASSERT_EQ(stream.feed(target->text.substr(half)),
            serve::RequestStatus::kOk);
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  serve::ScanResponse resp;
  ASSERT_EQ(stream.finish([&](serve::ScanResponse r) {
              std::lock_guard<std::mutex> lock(mu);
              resp = std::move(r);
              done = true;
              cv.notify_one();
            }),
            serve::RequestStatus::kOk);
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done; });
  }
  EXPECT_EQ(resp.status, serve::RequestStatus::kOk);
  EXPECT_EQ(resp.epoch, epoch0);
  EXPECT_TRUE(resp.matched);
  server.stop();
}

// ------------------------------ deltas ---------------------------------

core::DeployedSignature canary_signature(std::size_t base_size) {
  core::DeployedSignature canary;
  canary.name = "KZ.DeltaCanary." + std::to_string(base_size);
  canary.family = "DeltaCanary";
  canary.issued_day = 99;
  canary.pattern = "kzdeltacanaryliteralzz";
  canary.token_length = canary.pattern.size();
  return canary;
}

TEST(DeltaArtifact, SaveLoadRoundTrip) {
  const serve::ServeFixture& fx = fixture();
  core::DeltaArtifact delta;
  delta.base_fingerprint = core::fingerprint(fx.signatures);
  delta.retired = {0};
  delta.added = {canary_signature(fx.signatures.size())};
  std::vector<core::DeployedSignature> result = fx.signatures;
  result.push_back(delta.added[0]);
  delta.result_fingerprint = core::fingerprint(result, delta.retired);

  std::ostringstream os;
  core::save_delta(os, delta);
  std::istringstream is(os.str());
  const core::DeltaArtifact loaded = core::load_delta(is);
  EXPECT_EQ(loaded.base_fingerprint, delta.base_fingerprint);
  EXPECT_EQ(loaded.result_fingerprint, delta.result_fingerprint);
  EXPECT_EQ(loaded.retired, delta.retired);
  expect_same_signatures(loaded.added, delta.added);
}

TEST(DeltaArtifact, CorruptedPayloadIsRefusedByChecksum) {
  core::DeltaArtifact delta;
  delta.added = {canary_signature(0)};
  delta.result_fingerprint =
      core::fingerprint(delta.added, delta.retired);
  std::ostringstream os;
  core::save_delta(os, delta);
  std::string bytes = os.str();
  bytes[32] ^= 0x01;  // one payload bit
  std::istringstream is(bytes);
  EXPECT_THROW(core::load_delta(is), ArtifactError);

  std::istringstream truncated(os.str().substr(0, os.str().size() - 9));
  EXPECT_THROW(core::load_delta(truncated), Error);
}

TEST(DeltaArtifact, ExtendAppliesAddsAndTombstones) {
  const serve::ServeFixture& fx = fixture();
  const engine::Database base = engine::Database::compile(fx.signatures);
  ASSERT_EQ(base.fingerprint(), core::fingerprint(fx.signatures));

  core::DeltaArtifact delta;
  delta.base_fingerprint = base.fingerprint();
  delta.retired = {0};
  delta.added = {canary_signature(fx.signatures.size())};
  std::vector<core::DeployedSignature> result = fx.signatures;
  result.push_back(delta.added[0]);
  delta.result_fingerprint = core::fingerprint(result, delta.retired);

  const engine::Database next = base.extend(delta);
  EXPECT_EQ(next.size(), fx.signatures.size() + 1);
  EXPECT_EQ(next.active_size(), fx.signatures.size());
  EXPECT_TRUE(next.entry_retired(0));
  EXPECT_FALSE(next.entry_retired(1));
  EXPECT_EQ(next.fingerprint(), delta.result_fingerprint);

  // The added signature matches; the tombstoned slot never does again.
  engine::Scratch scratch;
  const auto hit = engine::first_match(
      next, "prefix kzdeltacanaryliteralzz suffix", scratch);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->sig_index, fx.signatures.size());
  for (const serve::CorpusDoc& doc : fx.docs) {
    const auto m = engine::first_match(next, doc.text, scratch);
    if (m) EXPECT_NE(m->sig_index, 0u) << "retired slot produced a match";
  }
}

TEST(DeltaArtifact, LineageMismatchesAreRefused) {
  const serve::ServeFixture& fx = fixture();
  const engine::Database base = engine::Database::compile(fx.signatures);

  core::DeltaArtifact wrong_base;
  wrong_base.base_fingerprint = base.fingerprint() ^ 1;
  EXPECT_THROW(base.extend(wrong_base), ArtifactError);

  core::DeltaArtifact wrong_result;
  wrong_result.base_fingerprint = base.fingerprint();
  wrong_result.added = {canary_signature(fx.signatures.size())};
  wrong_result.result_fingerprint = 0xDEAD;
  EXPECT_THROW(base.extend(wrong_result), ArtifactError);

  core::DeltaArtifact bad_retire;
  bad_retire.base_fingerprint = base.fingerprint();
  bad_retire.retired = {fx.signatures.size() + 100};
  EXPECT_THROW(base.extend(bad_retire), ArtifactError);
}

TEST(DeltaArtifact, EmptyPipelineExportsSelfConsistentDelta) {
  core::KizzlePipeline pipeline(core::PipelineConfig{}, 1);
  std::ostringstream os;
  pipeline.export_delta(os, 0);
  std::istringstream is(os.str());
  const core::DeltaArtifact delta = core::load_delta(is);
  EXPECT_EQ(delta.base_fingerprint, core::fingerprint({}));
  EXPECT_EQ(delta.result_fingerprint, core::fingerprint({}));
  EXPECT_TRUE(delta.retired.empty());
  EXPECT_TRUE(delta.added.empty());
}

// --------------------------- serve delta gate ---------------------------

std::string good_delta_bytes(const serve::ServeFixture& fx) {
  core::DeltaArtifact delta;
  delta.base_fingerprint = core::fingerprint(fx.signatures);
  delta.added = {canary_signature(fx.signatures.size())};
  std::vector<core::DeployedSignature> result = fx.signatures;
  result.push_back(delta.added[0]);
  delta.result_fingerprint = core::fingerprint(result);
  std::ostringstream os;
  core::save_delta(os, delta);
  return os.str();
}

TEST(ScanServerDelta, DeployDeltaSwapsAndRefusalsKeepEpoch) {
  const serve::ServeFixture& fx = fixture();
  serve::ScanServer server(fx.database, serve::ServerConfig{});
  const std::uint64_t epoch0 = server.epoch();
  const std::string good = good_delta_bytes(fx);

  // Corrupted delta: typed refusal, serving epoch untouched.
  std::string bad = good;
  bad[40] ^= 0x01;
  std::istringstream bad_is(bad);
  const auto refused = server.deploy_delta(bad_is);
  EXPECT_FALSE(refused.accepted);
  EXPECT_FALSE(refused.reason.empty());
  EXPECT_EQ(server.epoch(), epoch0);
  EXPECT_EQ(server.database(), fx.database);

  // The real delta applies incrementally.
  std::istringstream good_is(good);
  const auto accepted = server.deploy_delta(good_is);
  EXPECT_TRUE(accepted.accepted) << accepted.reason;
  EXPECT_EQ(server.epoch(), epoch0 + 1);
  EXPECT_EQ(server.database()->size(), fx.signatures.size() + 1);

  // Replaying the same delta is now a lineage mismatch: the serving set
  // already moved past its base. Typed refusal, epoch untouched.
  std::istringstream replay(good);
  const auto stale = server.deploy_delta(replay);
  EXPECT_FALSE(stale.accepted);
  EXPECT_FALSE(stale.reason.empty());
  EXPECT_EQ(server.epoch(), epoch0 + 1);

  const serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.epoch_swaps, 1u);
  EXPECT_EQ(stats.swaps_rejected, 2u);
  server.stop();
}

// ------------------------ watcher debounce -----------------------------

// A release process writing the artifact non-atomically: the watcher must
// never deploy a half-written file (every partial prefix fails the
// checksum, so any rejection here is a debounce failure), then pick up
// the complete artifact once the file stops changing.
TEST(ArtifactWatcherDelta, DebounceSkipsPartialWritesThenDeploys) {
  const serve::ServeFixture& fx = fixture();
  const std::string path = write_temp(fx.artifact, "debounce");
  serve::ScanServer server(fx.database, serve::ServerConfig{});
  const std::uint64_t epoch0 = server.epoch();
  {
    serve::ArtifactWatcher watcher(server, path,
                                   std::chrono::milliseconds(10),
                                   std::chrono::milliseconds(30));
    std::this_thread::sleep_for(std::chrono::milliseconds(60));  // prime

    // Rewrite the file as a slow writer would: truncate, then grow in
    // small chunks with the file identity changing the whole time.
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      const std::string& next = fx.swap_artifact;
      for (std::size_t at = 0; at < next.size(); at += 4096) {
        out.write(next.data() + at,
                  static_cast<std::streamsize>(
                      std::min<std::size_t>(4096, next.size() - at)));
        out.flush();
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }

    // Once the writer stops, the settled file deploys through the gate.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (server.epoch() == epoch0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_EQ(server.epoch(), epoch0 + 1);
    EXPECT_GE(watcher.stats().swaps, 1u);
    EXPECT_EQ(watcher.stats().rejected, 0u)
        << "watcher deployed a half-written artifact";
    watcher.stop();
  }
  server.stop();
  std::remove(path.c_str());
}

// Deltas ride the same watch path: a KZDELTA renamed over the watched
// file is sniffed by magic and applied incrementally.
TEST(ArtifactWatcherDelta, WatcherRoutesDeltaByMagic) {
  const serve::ServeFixture& fx = fixture();
  const std::string path = write_temp(fx.artifact, "route");
  serve::ScanServer server(fx.database, serve::ServerConfig{});
  const std::uint64_t epoch0 = server.epoch();
  {
    serve::ArtifactWatcher watcher(server, path,
                                   std::chrono::milliseconds(10));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));  // prime

    const std::string tmp = write_temp(good_delta_bytes(fx), "route_tmp");
    ASSERT_EQ(std::rename(tmp.c_str(), path.c_str()), 0);

    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (server.epoch() == epoch0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_EQ(server.epoch(), epoch0 + 1);
    EXPECT_GE(watcher.stats().swaps, 1u);
    EXPECT_EQ(server.database()->size(), fx.signatures.size() + 1);
    watcher.stop();
  }
  server.stop();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace kizzle
