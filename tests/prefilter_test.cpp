// Tests for the shared literal prefilter (match/prefilter.h) and the
// prefiltered scan paths built on it: unit behavior of the first stage,
// fallback semantics for patterns with no usable literal, per-scan state
// that costs O(candidates) yet never leaks between scans or databases,
// and differential (oracle) equality against the reference automaton
// (tests/testing) and the brute-force per-pattern search over randomized
// kitgen samples.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "av/av_engine.h"
#include "core/pipeline.h"
#include "engine/engine.h"
#include "match/pattern.h"
#include "match/prefilter.h"
#include "testing/brute_force.h"
#include "testing/mixed_corpus.h"
#include "testing/reference_automaton.h"

namespace kizzle::match {
namespace {

// ------------------------------ unit behavior ------------------------------

TEST(LiteralPrefilter, ReportsOnlyPresentLiterals) {
  LiteralPrefilter pf;
  pf.add(0, "fromCharCode");
  pf.add(1, "evalstring");
  pf.add(2, "document");
  pf.build();
  const auto c = pf.candidates("xx fromCharCode yy document zz");
  EXPECT_EQ(c, (std::vector<std::size_t>{0, 2}));
  EXPECT_TRUE(pf.candidates("nothing relevant").empty());
}

TEST(LiteralPrefilter, FindsOverlappingAndSuffixLiterals) {
  // "bcd" and "cd" end inside the "abcd" occurrence: suffix-link outputs.
  LiteralPrefilter pf;
  pf.add(0, "abcd");
  pf.add(1, "bcd");
  pf.add(2, "cd");
  pf.add(3, "abce");
  pf.build();
  EXPECT_EQ(pf.candidates("xxabcdxx"), (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(pf.candidates("xxcdxx"), (std::vector<std::size_t>{2}));
}

TEST(LiteralPrefilter, SharedLiteralYieldsAllIds) {
  LiteralPrefilter pf;
  pf.add(0, "needle");
  pf.add(1, "needle");
  pf.add(2, "other");
  pf.build();
  EXPECT_EQ(pf.candidates("a needle b"), (std::vector<std::size_t>{0, 1}));
}

TEST(LiteralPrefilter, FallbackIdsAreAlwaysCandidates) {
  LiteralPrefilter pf;
  pf.add(0, "literal_one");
  pf.add(1, "");  // no usable literal
  pf.add(2, "");
  pf.add(3, "literal_two");
  pf.build();
  EXPECT_EQ(pf.fallback_count(), 2u);
  EXPECT_EQ(pf.candidates(""), (std::vector<std::size_t>{1, 2}));
  EXPECT_EQ(pf.candidates("has literal_two here"),
            (std::vector<std::size_t>{1, 2, 3}));
}

TEST(LiteralPrefilter, RepeatedOccurrencesAreDeduplicated) {
  LiteralPrefilter pf;
  pf.add(0, "dup");
  pf.build();
  EXPECT_EQ(pf.candidates("dup dup dup dup"), (std::vector<std::size_t>{0}));
}

TEST(LiteralPrefilter, RebuildAfterAddExtendsTheLiteralSet) {
  LiteralPrefilter pf;
  pf.add(0, "first");
  pf.build();
  EXPECT_EQ(pf.candidates("first second"), (std::vector<std::size_t>{0}));
  pf.add(1, "second");
  pf.build();
  EXPECT_EQ(pf.candidates("first second"), (std::vector<std::size_t>{0, 1}));
}

TEST(LiteralPrefilter, CandidatesBeforeBuildThrows) {
  LiteralPrefilter pf;
  pf.add(0, "abc");
  EXPECT_THROW(pf.candidates("abc"), std::logic_error);
}

TEST(LiteralPrefilter, RebuildIsIdempotent) {
  // Repeated build() calls (with and without interleaved add()s) must not
  // perturb any derived table — in particular the fallback list must stay
  // sorted and deduplicated, never re-appended.
  LiteralPrefilter pf;
  pf.add(3, "");
  pf.add(0, "alpha");
  pf.add(1, "");
  pf.build();
  EXPECT_EQ(pf.fallback_ids(), (std::vector<std::size_t>{1, 3}));
  pf.build();  // no adds in between
  pf.build();
  EXPECT_EQ(pf.fallback_ids(), (std::vector<std::size_t>{1, 3}));
  EXPECT_EQ(pf.candidates("alpha"), (std::vector<std::size_t>{0, 1, 3}));
  EXPECT_EQ(pf.candidates("beta"), (std::vector<std::size_t>{1, 3}));

  pf.add(2, "");
  pf.build();
  pf.build();
  EXPECT_EQ(pf.fallback_ids(), (std::vector<std::size_t>{1, 2, 3}));
  EXPECT_EQ(pf.candidates("alpha"), (std::vector<std::size_t>{0, 1, 2, 3}));
}

TEST(LiteralPrefilter, IncrementalRebuildEqualsFreshBuild) {
  // Grow one prefilter across several build() generations; a second one
  // gets the same final registration set in one go. Candidate sets must
  // be byte-identical on a variety of texts — and equal the reference.
  const std::vector<std::pair<std::size_t, std::string>> regs = {
      {0, "fromCharCode"}, {1, ""},      {2, "document"}, {3, "eval"},
      {4, ""},             {5, "Code"},  {6, "fromChar"}, {7, "xyz"},
  };
  LiteralPrefilter grown;
  std::size_t at = 0;
  for (const std::size_t stop : std::vector<std::size_t>{2, 3, 6, regs.size()}) {
    for (; at < stop; ++at) grown.add(regs[at].first, regs[at].second);
    grown.build();
  }
  LiteralPrefilter fresh;
  for (const auto& [id, lit] : regs) fresh.add(id, lit);
  fresh.build();

  const std::vector<std::string> texts = {
      "", "fromCharCode", "document.eval", "only Code here", "xyzxyz",
      "fromChar and then Code", "nothing relevant at all"};
  EXPECT_EQ(grown.fallback_ids(), fresh.fallback_ids());
  const testing::ReferenceAutomaton ref(fresh);
  for (const std::string& t : texts) {
    EXPECT_EQ(grown.candidates(t), fresh.candidates(t)) << t;
    EXPECT_EQ(fresh.candidates(t), ref.candidates(t)) << t;
  }
}

// ------------------------- per-scan state reuse -------------------------

// Two prefilters over one id space whose ids swap roles: an id with a
// Teddy-routed literal in one is a fallback id or a dense-shard id in the
// other. One set of scan buffers (out, hits, hints — what engine::Scratch
// owns) moves between them and must report exactly what fresh buffers
// report: the same candidates, and for every candidate the same hint,
// which is the reference automaton's leftmost occurrence or kNoHint. A
// stale hint left by the other prefilter would seed confirmation past the
// real match.
TEST(LiteralPrefilter, ReusedBuffersAcrossDatabasesEqualFreshOnes) {
  constexpr std::string_view kAlpha = "abcdefghijklmnopqrstuvwxyz0123456789";
  const auto short_lit = [&](std::size_t i) {
    std::string lit(1, kAlpha[i % kAlpha.size()]);
    if (i % 7 != 0) lit.push_back(kAlpha[(i / kAlpha.size()) % kAlpha.size()]);
    return lit;
  };
  LiteralPrefilter a, b;
  a.add(0, "needleA");
  a.add(1, "");
  b.add(0, "");
  b.add(1, "needleB");
  for (std::size_t i = 0; i < 512; ++i) {
    // Ids 2..513: long Teddy literals in `a`, a dense shard in `b`.
    a.add(2 + i, "long" + short_lit(i) + "lit" + std::to_string(i));
    b.add(2 + i, short_lit(i));
  }
  b.add(600, "onlyinB");  // grows the id space past `a`'s
  a.build();
  b.build();
  ASSERT_EQ(a.dense_shard_count(), 0u);
  ASSERT_GT(b.dense_shard_count(), 0u);
  ASSERT_TRUE(b.teddy_active());

  const std::vector<std::string> texts = {
      "zz needleA zz longa0lit0 needleB longbblit37 x9 onlyinB",
      "..needleB..needleA..",
      "longc2lit2 q7 7q needleA",
      ""};
  std::vector<std::size_t> out;
  teddy::HitBuffer hits;
  std::vector<std::uint32_t> hints;
  for (int round = 0; round < 3; ++round) {
    for (const LiteralPrefilter* pf : {&a, &b, &a}) {
      const testing::ReferenceAutomaton ref(*pf);
      for (const std::string& t : texts) {
        pf->candidates_into(t, out, hits, nullptr, &hints);
        std::vector<std::size_t> fresh_out;
        teddy::HitBuffer fresh_hits;
        std::vector<std::uint32_t> fresh_hints;
        pf->candidates_into(t, fresh_out, fresh_hits, nullptr, &fresh_hints);
        ASSERT_EQ(out, fresh_out) << t;
        ASSERT_EQ(out, ref.candidates(t)) << t;
        const auto starts = ref.leftmost_starts(t);
        for (const std::size_t id : out) {
          ASSERT_EQ(hints[id], fresh_hints[id]) << "id " << id << " in " << t;
          if (hints[id] != teddy::kNoHint) {
            ASSERT_EQ(hints[id], starts.at(id)) << "id " << id;
          }
        }
      }
    }
  }
  // The id that is fallback in `b` was hinted by `a` a scan earlier.
  a.candidates_into(texts[1], out, hits, nullptr, &hints);
  b.candidates_into(texts[1], out, hits, nullptr, &hints);
  EXPECT_EQ(hints[0], teddy::kNoHint);
  EXPECT_EQ(hints[1], 2u);
}

// The per-thread dedup bitmap is reset per scan for exactly the ids that
// scan found; a mark surviving into the next scan would drop that id.
TEST(LiteralPrefilter, RepeatedScansNeverLoseIds) {
  LiteralPrefilter pf;
  for (std::size_t i = 0; i < 64; ++i) pf.add(i, "lit" + std::to_string(i));
  pf.build();
  std::string all;
  for (std::size_t i = 0; i < 64; ++i) all += "lit" + std::to_string(i) + ".";
  const testing::ReferenceAutomaton ref(pf);
  for (int round = 0; round < 4; ++round) {
    EXPECT_EQ(pf.candidates(all), ref.candidates(all));
    EXPECT_EQ(pf.candidates("lit7"), (std::vector<std::size_t>{7}));
  }
}

// ------------------------ fallback via the engine ------------------------

TEST(DatabasePrefilter, PatternsWithoutUsableLiteralStillMatch) {
  // None of these yields a required literal (>= 3 chars):
  const engine::Database db = engine::Database::compile(
      std::vector<engine::Database::Spec>{
          {"classes", "", "[0-9]+[a-z]+"},  // pure classes
          {"short", "", "ab"},              // 2-char literal
          {"split", "", "a.c"},             // runs of 1
          {"star", "", ".+xy?"},            // nothing fixed
      });
  for (std::size_t i = 0; i < db.size(); ++i) {
    EXPECT_TRUE(db.pattern(i).required_literal().empty()) << i;
  }
  engine::Scratch scratch;
  const auto hits = testing::scan_all(db, "42z ab abc x", scratch).hits;
  ASSERT_EQ(hits.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(hits[i].sig_index, i);
  }
}

TEST(DatabasePrefilter, AnchoredPatternBudgetAccountingMatchesBruteForce) {
  // ^-anchored pattern with a usable literal ("yyy") and catastrophic
  // backtracking. Literal absent: both paths must skip the VM entirely
  // (prefilter drops the candidate; search()'s anchored branch
  // quick-rejects) and charge nothing. Literal present: both run the VM
  // and both charge the budget.
  const engine::Database db = engine::Database::compile(
      std::vector<engine::Database::Spec>{{"anchored", "", "^(x+x+)+yyy"}});
  engine::Scratch scratch;
  const std::string xs(2048, 'x');

  const testing::ScanHits fast_absent = testing::scan_all(db, xs, scratch);
  const testing::ScanHits brute_absent = testing::scan_brute_force(db, xs);
  EXPECT_TRUE(fast_absent.hits.empty());
  EXPECT_TRUE(brute_absent.hits.empty());
  EXPECT_EQ(fast_absent.budget_exceeded, 0u);
  EXPECT_EQ(brute_absent.budget_exceeded, 0u);

  const std::string with_literal = xs + "zyyy";  // literal present, no match
  const testing::ScanHits fast = testing::scan_all(db, with_literal, scratch);
  const testing::ScanHits brute = testing::scan_brute_force(db, with_literal);
  EXPECT_TRUE(fast.hits.empty());
  EXPECT_TRUE(brute.hits.empty());
  EXPECT_EQ(fast.budget_exceeded, brute.budget_exceeded);
}

// ------------------------------ oracle ------------------------------

TEST(DatabasePrefilter, OracleHitSetEqualityOnKitgenSamples) {
  const auto samples = testing::mixed_kitgen_samples();
  const engine::Database db =
      engine::Database::compile(testing::mixed_signature_specs(samples));
  engine::Scratch scratch;
  for (const std::string& text : samples) {
    const testing::ScanHits fast = testing::scan_all(db, text, scratch);
    const testing::ScanHits brute = testing::scan_brute_force(db, text);
    EXPECT_EQ(fast.hits, brute.hits);
    // Identical budget-exceeded accounting on both paths.
    EXPECT_EQ(fast.budget_exceeded, brute.budget_exceeded);
  }
}

// --------------------------- av + deploy paths ---------------------------

TEST(AvEnginePrefilter, MatchesBruteForceReference) {
  av::ManualAvEngine engine;
  const std::vector<std::string> literals = {"alpha", "bet", "gamma77",
                                             "alp", "x"};
  for (std::size_t i = 0; i < literals.size(); ++i) {
    av::AvRelease r;
    r.day = static_cast<int>(i);
    r.family = kitgen::KitFamily::Nuclear;
    r.name = "AV.sig" + std::to_string(i);
    r.literal = literals[i];
    engine.schedule(r);
  }
  const std::vector<std::string> texts = {"has alpha here", "only bet",
                                          "gamma77 and alp", "xxxx", "none_",
                                          ""};
  for (int day = -1; day <= 5; ++day) {
    for (const std::string& t : texts) {
      // Brute-force reference: first scheduled release, literal-substring
      // matched, release-day gated.
      std::optional<std::string> expect;
      for (std::size_t i = 0; i < literals.size(); ++i) {
        if (static_cast<int>(i) > day) continue;
        if (t.find(literals[i]) != std::string::npos) {
          expect = "AV.sig" + std::to_string(i);
          break;
        }
      }
      const auto got = engine.match(day, t);
      ASSERT_EQ(got.has_value(), expect.has_value()) << day << " " << t;
      if (expect) EXPECT_EQ(got->name, *expect) << day << " " << t;
    }
  }
}

TEST(DatabasePrefilter, FirstMatchEqualsLinearReference) {
  std::vector<core::DeployedSignature> sigs;
  const std::vector<std::string> patterns = {
      "landingpage[0-9]+", "fromCharCode", "[0-9]+[a-z]+",  // fallback
      "fromCharCode",  // duplicate: index order must win
      "substrabc"};
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    core::DeployedSignature s;
    s.name = "KZ.T." + std::to_string(i);
    s.family = "Test";
    s.issued_day = static_cast<int>(i);
    s.pattern = patterns[i];
    sigs.push_back(s);
  }
  const engine::Database db = engine::Database::compile(sigs);
  engine::Scratch scratch;
  const std::vector<std::string> texts = {
      "xx landingpage42", "xx fromCharCode yy", "123abc456", "substrabc",
      "nothing"};
  for (const std::string& t : texts) {
    std::optional<std::size_t> expect;
    for (std::size_t i = 0; i < patterns.size(); ++i) {
      if (Pattern::compile(patterns[i]).found_in(t)) {
        expect = i;
        break;
      }
    }
    const auto got = engine::first_match(db, t, scratch);
    ASSERT_EQ(got.has_value(), expect.has_value()) << t;
    if (expect) EXPECT_EQ(got->sig_index, *expect) << t;
  }
}

}  // namespace
}  // namespace kizzle::match
