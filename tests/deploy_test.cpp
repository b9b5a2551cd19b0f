#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <sstream>
#include <thread>

#include "core/deploy.h"
#include "core/pipeline.h"
#include "engine/engine.h"
#include "kitgen/families.h"
#include "kitgen/kit.h"
#include "kitgen/packers.h"
#include "kitgen/payload.h"
#include "match/pattern.h"
#include "sig/compiler.h"
#include "support/rng.h"
#include "testing/mixed_corpus.h"
#include "text/normalize.h"

namespace kizzle::core {
namespace {

// A database with one real signature, compiled from a small RIG cluster.
class DeployFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(77);
    kitgen::PayloadSpec spec;
    spec.family = kitgen::KitFamily::Rig;
    spec.cves = kitgen::kit_info(kitgen::KitFamily::Rig).cves;
    spec.av_check = true;
    spec.urls = {"http://a.gate-1.biz/x"};
    payload_ = payload_text(spec);
    std::vector<std::string> sources;
    for (int i = 0; i < 5; ++i) {
      sources.push_back(pack_rig(payload_, kitgen::RigPackerState{}, rng));
      packed_.push_back(sources.back());
    }
    sig::CompilerParams params;
    params.length_slack = 0.2;
    const sig::Signature sig =
        sig::compile_signature_from_sources(sources, params);
    ASSERT_TRUE(sig.ok) << sig.failure;
    DeployedSignature dep;
    dep.name = "KZ.RIG.1";
    dep.family = "RIG";
    dep.pattern = sig.pattern;
    db_ = engine::Database::compile(std::vector<DeployedSignature>{dep});
  }

  std::string fresh_packed() {
    Rng rng(991);
    return pack_rig(payload_, kitgen::RigPackerState{}, rng);
  }

  std::string payload_;
  std::vector<std::string> packed_;
  engine::Database db_;
};

TEST_F(DeployFixture, DatabaseMatchesItsSamples) {
  engine::Scratch scratch;
  EXPECT_TRUE(engine::first_match(db_, text::normalize_raw(packed_[0]), scratch)
                  .has_value());
  EXPECT_FALSE(engine::first_match(db_, "nothing to see", scratch).has_value());
}

TEST_F(DeployFixture, BrowserGateBlocksAndCaches) {
  BrowserGate gate(&db_, 8);
  const std::string script = fresh_packed();

  const Verdict first = gate.check_script(script);
  EXPECT_TRUE(first.malicious);
  EXPECT_EQ(first.signature, "KZ.RIG.1");
  EXPECT_EQ(gate.cache_misses(), 1u);
  EXPECT_EQ(gate.cache_hits(), 0u);

  // The same script again: memoized.
  const Verdict second = gate.check_script(script);
  EXPECT_TRUE(second.malicious);
  EXPECT_EQ(gate.cache_hits(), 1u);
  EXPECT_EQ(gate.cache_misses(), 1u);

  const Verdict benign = gate.check_script("function ok(){return 1}");
  EXPECT_FALSE(benign.malicious);
}

TEST_F(DeployFixture, BrowserGateEvictsLru) {
  BrowserGate gate(&db_, 2);
  gate.check_script("var a=1;");
  gate.check_script("var b=2;");
  gate.check_script("var c=3;");  // evicts "var a=1;"
  gate.check_script("var a=1;");  // must re-scan
  EXPECT_EQ(gate.cache_misses(), 4u);
  EXPECT_EQ(gate.cache_hits(), 0u);
}

TEST_F(DeployFixture, ChannelsRejectNullDatabase) {
  EXPECT_THROW(BrowserGate(nullptr), std::invalid_argument);
  EXPECT_THROW(DesktopScanner(nullptr), std::invalid_argument);
  EXPECT_THROW(CdnFilter(nullptr), std::invalid_argument);
}

TEST_F(DeployFixture, DesktopScannerScansWholeFiles) {
  DesktopScanner scanner(&db_);
  Rng rng(3);
  // A cached HTML document containing the packed kit.
  const std::string cached_page =
      kitgen::wrap_html("", fresh_packed(), rng);
  EXPECT_TRUE(scanner.scan_file(cached_page).malicious);
  // A bare .js file with the packed content (no HTML wrapper).
  EXPECT_TRUE(scanner.scan_file(fresh_packed()).malicious);
  EXPECT_FALSE(scanner.scan_file("body { color: red }").malicious);
}

TEST_F(DeployFixture, CdnFilterPartitionsCandidates) {
  CdnFilter filter(&db_);
  std::vector<std::string> candidates = {
      "function lib(){return 42}",
      fresh_packed(),
      "var widget = { init: function(){} };",
  };
  const CdnFilter::Report report = filter.filter(candidates);
  ASSERT_EQ(report.hostable.size(), 2u);
  ASSERT_EQ(report.rejected.size(), 1u);
  EXPECT_EQ(report.rejected[0], 1u);
  // The per-signature counts are a sorted (name, count) list: stable
  // output for the administrator across runs, platforms and scheduling.
  ASSERT_EQ(report.hits_per_signature.size(), 1u);
  EXPECT_EQ(report.hits_per_signature[0].first, "KZ.RIG.1");
  EXPECT_EQ(report.hits_per_signature[0].second, 1u);
  EXPECT_TRUE(std::is_sorted(report.hits_per_signature.begin(),
                             report.hits_per_signature.end()));
}

TEST_F(DeployFixture, VerdictCarriesSignatureIndexAndSpan) {
  // The engine's MatchEvent flows through to the Verdict: channel callers
  // get the matching signature's database index and the match span in the
  // normalized scan text without re-deriving them by name lookup.
  DesktopScanner scanner(&db_);
  const std::string content = fresh_packed();
  const Verdict v = scanner.scan_file(content);
  ASSERT_TRUE(v.malicious);
  EXPECT_EQ(v.signature_index, 0u);
  EXPECT_EQ(db_.name(v.signature_index), v.signature);
  const std::string normalized = text::normalize_raw(content);
  EXPECT_LT(v.match_begin, v.match_end);
  EXPECT_LE(v.match_end, normalized.size());
  // The span really is where the pattern matched.
  const auto direct = db_.pattern(0).search(normalized);
  ASSERT_TRUE(direct.matched);
  EXPECT_EQ(v.match_begin, direct.begin);
  EXPECT_EQ(v.match_end, direct.end);

  const Verdict clean = scanner.scan_file("body { color: red }");
  EXPECT_FALSE(clean.malicious);
  EXPECT_EQ(clean.signature_index, Verdict::npos);

  // The streamed channels carry the same fields: a chunked admission and
  // the one-shot check agree on index and span.
  BrowserGate oneshot(&db_, 8);
  const Verdict checked = oneshot.check_script(content);
  BrowserGate gate(&db_, 8);
  auto stream = gate.begin_script();
  stream.feed(content);
  const Verdict streamed = stream.finish();
  ASSERT_TRUE(streamed.malicious);
  ASSERT_TRUE(checked.malicious);
  EXPECT_EQ(streamed.signature_index, checked.signature_index);
  EXPECT_EQ(streamed.match_begin, checked.match_begin);
  EXPECT_EQ(streamed.match_end, checked.match_end);
}

// The pooled fan-out must not change a single placement: a multi-candidate
// batch on four workers gives the rejected set and per-signature counts of
// a sequential first-match scan over the same normalization.
TEST(CdnFilterBatch, ParallelFilterEqualsSequentialFirstMatch) {
  std::vector<std::string> candidates = testing::mixed_kitgen_samples();
  const engine::Database db =
      engine::Database::compile(testing::mixed_signature_specs(candidates));
  candidates.push_back("function ok(){return 1}");
  candidates.push_back("var widget = { init: function(){} };");
  candidates.push_back("");

  std::vector<std::size_t> rejected;
  std::map<std::string, std::size_t> hits;
  engine::Scratch scratch;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const auto hit = engine::first_match(
        db, text::normalize_raw(candidates[i]), scratch);
    if (!hit) continue;
    rejected.push_back(i);
    ++hits[db.name(hit->sig_index)];
  }
  ASSERT_FALSE(rejected.empty());
  ASSERT_LT(rejected.size(), candidates.size());

  const CdnFilter filter(&db, 4);
  for (int round = 0; round < 3; ++round) {  // the pool is reused
    const CdnFilter::Report report = filter.filter(candidates);
    EXPECT_EQ(report.rejected, rejected);
    EXPECT_EQ(report.hits_per_signature,
              (std::vector<std::pair<std::string, std::size_t>>(hits.begin(),
                                                                hits.end())));
    EXPECT_EQ(report.hostable.size() + report.rejected.size(),
              candidates.size());
    EXPECT_TRUE(report.degraded.empty());
  }
}

TEST_F(DeployFixture, CdnFilterEmptyInput) {
  CdnFilter filter(&db_);
  const auto report = filter.filter({});
  EXPECT_TRUE(report.hostable.empty());
  EXPECT_TRUE(report.rejected.empty());
}

// --------------------- cache collision regression ---------------------

// Every script hashes to the same primary key: without the length/second-
// fingerprint guard, the second script would silently get the first
// script's cached verdict (cache poisoning by hash collision).
std::uint64_t colliding_hash(std::string_view) { return 0x1234; }

TEST_F(DeployFixture, HashCollisionDoesNotPoisonTheVerdictCache) {
  BrowserGate gate(&db_, 8, &colliding_hash);
  const std::string malicious = fresh_packed();
  const std::string benign = "function ok(){return 1}";

  EXPECT_TRUE(gate.check_script(malicious).malicious);
  // Forced collision: same primary key, different content. Must re-scan,
  // not return the cached malicious verdict.
  EXPECT_FALSE(gate.check_script(benign).malicious);
  EXPECT_EQ(gate.cache_collisions(), 1u);
  EXPECT_EQ(gate.cache_hits(), 0u);
  EXPECT_EQ(gate.cache_misses(), 2u);

  // The collision evicted the malicious entry (latest scan owns the
  // slot): benign now hits, malicious collides again and re-scans — and
  // still gets the right verdict.
  EXPECT_FALSE(gate.check_script(benign).malicious);
  EXPECT_EQ(gate.cache_hits(), 1u);
  EXPECT_TRUE(gate.check_script(malicious).malicious);
  EXPECT_EQ(gate.cache_collisions(), 2u);
}

TEST_F(DeployFixture, CollisionGuardAlsoProtectsStreamedScripts) {
  BrowserGate gate(&db_, 8, &colliding_hash);
  const std::string malicious = fresh_packed();
  EXPECT_TRUE(gate.check_script(malicious).malicious);
  auto stream = gate.begin_script();
  stream.feed("function ");
  stream.feed("ok(){return 1}");
  EXPECT_FALSE(stream.finish().malicious);
  EXPECT_EQ(gate.cache_collisions(), 1u);
}

// ------------------------- chunked admission -------------------------

TEST_F(DeployFixture, StreamedScriptVerdictEqualsOneShotForAllChunkings) {
  const std::vector<std::string> scripts = {
      fresh_packed(), "function ok(){return 1}", "", "var a='fromCharCode';"};
  for (const std::string& script : scripts) {
    BrowserGate oneshot(&db_, 8);
    const Verdict expect = oneshot.check_script(script);
    for (const std::size_t chunk :
         std::vector<std::size_t>{1, 7, 4096,
                                  std::max<std::size_t>(script.size(), 1)}) {
      BrowserGate gate(&db_, 8);
      auto stream = gate.begin_script();
      for (std::size_t at = 0; at < script.size(); at += chunk) {
        stream.feed(std::string_view(script).substr(at, chunk));
      }
      const Verdict got = stream.finish();
      EXPECT_EQ(got.malicious, expect.malicious) << "chunk " << chunk;
      EXPECT_EQ(got.signature, expect.signature) << "chunk " << chunk;
    }
  }
}

TEST_F(DeployFixture, StreamedScriptWithCommentsMatchesOneShotNormalization) {
  // Comments make token-level normalization diverge from the raw-
  // normalized bytes the matcher streamed over; finish() must detect the
  // divergence and fall back to the one-shot scan text check_script uses.
  const std::string script =
      "// harmless comment\n" + fresh_packed() + "\n// trailing\n";
  BrowserGate oneshot(&db_, 8);
  const Verdict expect = oneshot.check_script(script);
  BrowserGate gate(&db_, 8);
  auto stream = gate.begin_script();
  for (std::size_t at = 0; at < script.size(); at += 13) {
    stream.feed(std::string_view(script).substr(at, 13));
  }
  const Verdict got = stream.finish();
  EXPECT_EQ(got.malicious, expect.malicious);
  EXPECT_EQ(got.signature, expect.signature);
}

TEST_F(DeployFixture, StreamedAndOneShotScriptsShareTheCache) {
  BrowserGate gate(&db_, 8);
  const std::string script = fresh_packed();
  auto stream = gate.begin_script();
  stream.feed(script);
  EXPECT_TRUE(stream.finish().malicious);
  EXPECT_EQ(gate.cache_misses(), 1u);
  // Same content through the one-shot path: memoized.
  EXPECT_TRUE(gate.check_script(script).malicious);
  EXPECT_EQ(gate.cache_hits(), 1u);
  EXPECT_EQ(gate.cache_misses(), 1u);
  // finish() twice on one stream is a usage error.
  auto once = gate.begin_script();
  once.feed(script);
  once.finish();
  EXPECT_THROW(once.finish(), std::logic_error);
}

TEST_F(DeployFixture, DesktopScannerStreamEqualsScanFile) {
  DesktopScanner scanner(&db_);
  Rng rng(3);
  const std::vector<std::string> files = {
      kitgen::wrap_html("", fresh_packed(), rng), fresh_packed(),
      "body { color: red }", ""};
  for (const std::string& content : files) {
    const Verdict expect = scanner.scan_file(content);
    for (const std::size_t chunk : std::vector<std::size_t>{1, 7, 4096}) {
      std::istringstream in(content);
      const Verdict got = scanner.scan_stream(in, chunk);
      EXPECT_EQ(got.malicious, expect.malicious) << "chunk " << chunk;
      EXPECT_EQ(got.signature, expect.signature) << "chunk " << chunk;
    }
    auto stream = scanner.begin_file();
    for (std::size_t at = 0; at < content.size(); at += 11) {
      stream.feed(std::string_view(content).substr(at, 11));
    }
    EXPECT_EQ(stream.finish().malicious, expect.malicious);
  }
}

// ------------------------- concurrent admission -------------------------

// Exercised under ThreadSanitizer in CI (-DKIZZLE_SANITIZE=thread): the
// LRU list, map and counters are shared mutable state behind the gate's
// mutex; check_script and streamed finishes race on them from all sides.
TEST_F(DeployFixture, BrowserGateIsSafeUnderConcurrentAdmission) {
  BrowserGate gate(&db_, 4);  // small: forces constant eviction
  const std::vector<std::string> malicious = {fresh_packed()};
  const std::vector<std::string> benign = {
      "function ok(){return 1}", "var a=1;", "var b=2;", "var c=3;",
      "var d=4;"};
  constexpr int kIters = 120;
  constexpr int kThreads = 8;
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const bool want_malicious = (i + t) % 3 == 0;
        const std::string& script =
            want_malicious ? malicious[0]
                           : benign[static_cast<std::size_t>(i + t) %
                                    benign.size()];
        Verdict v;
        if (i % 2 == 0) {
          v = gate.check_script(script);
        } else {
          auto stream = gate.begin_script();
          for (std::size_t at = 0; at < script.size(); at += 97) {
            stream.feed(std::string_view(script).substr(at, 97));
          }
          v = stream.finish();
        }
        if (v.malicious != want_malicious) wrong.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(wrong.load(), 0);
  // Every admission is accounted exactly once, as a hit or a miss.
  EXPECT_EQ(gate.cache_hits() + gate.cache_misses(),
            static_cast<std::uint64_t>(kIters) * kThreads);
}

}  // namespace
}  // namespace kizzle::core
