// Differential oracle for the Teddy SIMD literal first stage
// (match/teddy.h) and its integration into the shared prefilter:
//
//   * kernel agreement — every compiled-in Impl (scalar shift-or, SSSE3,
//     AVX2 where the host supports them) emits byte-identical Hit
//     sequences on random and adversarial texts;
//   * candidate equivalence — a Teddy-routed LiteralPrefilter returns
//     byte-identical candidate sets to the test-only reference automaton
//     (tests/testing/reference_automaton.h): literal
//     lengths 1..8 (short literals now compile into their own K=1/K=2
//     shards instead of disqualifying the set), mixed short/long sets,
//     5k–20k-literal sets spanning multiple shards, Fat (16-bucket)
//     versus 8-bucket plans, shared-prefix bucket collisions, occurrences
//     at position 0 and at the last possible position, and the full
//     kitgen corpus;
//   * dense routing — hybrid and all-dense sets walk the dense-shard
//     automaton, sparse sets compile none;
//   * slicing — the in-place slicer over small slices equals the unsliced
//     scan for literals straddling every slice edge;
//   * thread safety — one shared plan scanned from many threads (the tsan
//     CI job runs this suite).
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "kitgen/families.h"
#include "kitgen/packers.h"
#include "kitgen/payload.h"
#include "match/pattern.h"
#include "match/prefilter.h"
#include "match/teddy.h"
#include "support/rng.h"
#include "testing/reference_automaton.h"
#include "text/normalize.h"

namespace kizzle::match {
namespace {

std::vector<teddy::Impl> available_impls() {
  std::vector<teddy::Impl> impls;
  for (const teddy::Impl impl :
       {teddy::Impl::kScalar, teddy::Impl::kSsse3, teddy::Impl::kAvx2}) {
    if (teddy::impl_available(impl)) impls.push_back(impl);
  }
  return impls;
}

// One registration set, built as the product prefilter and mirrored into
// the reference automaton.
struct Pair {
  LiteralPrefilter teddy;
  testing::ReferenceAutomaton automaton;
};

Pair build_pair(const std::vector<std::pair<std::size_t, std::string>>& regs) {
  Pair p;
  for (const auto& [id, lit] : regs) p.teddy.add(id, lit);
  p.teddy.build();
  p.automaton = testing::ReferenceAutomaton(p.teddy);
  return p;
}

void expect_equal_candidates(const Pair& p, std::string_view text) {
  EXPECT_EQ(p.teddy.candidates(text), p.automaton.candidates(text))
      << "text: " << text;
}

// ----------------------------- kernel unit -----------------------------

TEST(TeddyPlan, BuildGatesAndWindowLength) {
  using teddy::Plan;
  // The only per-shard gates left: an empty set, and a single shard past
  // its capacity (PlanSet splits those instead).
  EXPECT_FALSE(Plan::build({}).has_value());
  {
    std::vector<Plan::Literal> many;
    for (std::size_t i = 0; i <= Plan::kShardMaxLiterals; ++i) {
      many.push_back({"lit" + std::to_string(i), i});
    }
    EXPECT_FALSE(Plan::build(many).has_value());
    many.pop_back();
    EXPECT_TRUE(Plan::build(std::move(many)).has_value());
  }
  // The window length tracks the shortest literal, down to a single byte.
  EXPECT_EQ(Plan::build({{"a", 0}})->prefix_len(), 1u);
  EXPECT_EQ(Plan::build({{"ab", 0}, {"wxyz", 1}})->prefix_len(), 2u);
  EXPECT_EQ(Plan::build({{"abc", 0}, {"wxyz", 1}})->prefix_len(), 3u);
  EXPECT_EQ(Plan::build({{"abcd", 0}, {"wxyz", 1}})->prefix_len(), 4u);
}

TEST(TeddyPlanSet, ShardsByLengthClassAndSize) {
  using teddy::Plan;
  using teddy::PlanSet;
  EXPECT_FALSE(PlanSet::build({}).has_value());

  // One shard per populated length class (K = min(4, len)); 5+-byte
  // literals share the K=4 class.
  const auto mixed = PlanSet::build(
      {{"a", 0}, {"xy", 1}, {"abc", 2}, {"wxyz", 3}, {"longer", 4}});
  ASSERT_TRUE(mixed.has_value());
  EXPECT_EQ(mixed->shard_count(), 4u);
  EXPECT_EQ(mixed->literal_count(), 5u);
  EXPECT_EQ(mixed->max_literal_len(), 6u);

  // An oversized class splits into multiple shards; a crowded shard goes
  // Fat (16 buckets).
  std::vector<PlanSet::Literal> many;
  for (std::size_t i = 0; i < Plan::kShardMaxLiterals + 100; ++i) {
    many.push_back({"lit" + std::to_string(i), i});
  }
  const auto big = PlanSet::build(std::move(many));
  ASSERT_TRUE(big.has_value());
  EXPECT_EQ(big->shard_count(), 2u);
  EXPECT_EQ(big->literal_count(), Plan::kShardMaxLiterals + 100);
  for (const Plan& shard : big->shards()) {
    EXPECT_EQ(shard.bucket_count(),
              shard.literal_count() > PlanSet::kFatThreshold ? Plan::kFatBuckets
                                                             : Plan::kBuckets);
  }

  // A small set stays on 8 buckets.
  const auto small = PlanSet::build({{"abcd", 0}, {"wxyz", 1}});
  ASSERT_TRUE(small.has_value());
  ASSERT_EQ(small->shard_count(), 1u);
  EXPECT_EQ(small->shards().front().bucket_count(), Plan::kBuckets);
}

TEST(TeddyPlan, ImplsEmitIdenticalHits) {
  Rng rng(0x7EDD1);
  const std::vector<teddy::Plan::Literal> lits = {
      {"abc", 0}, {"abcd", 1}, {"bcde", 2}, {"fromCharCode", 3},
      {"eval(", 4}, {"\x01\x02\x03", 5}, {"zzz", 6}, {"abz", 7},
  };
  const auto plan = teddy::Plan::build(lits);
  ASSERT_TRUE(plan.has_value());

  std::vector<std::string> texts;
  texts.push_back("");
  texts.push_back("ab");                      // shorter than the prefix
  texts.push_back("abc");                     // exactly one prefix
  texts.push_back("abcabcabcabc");            // dense hits
  texts.push_back(std::string(64, 'a'));      // no hits
  texts.push_back("\x01\x02\x03");            // non-ASCII bytes
  for (int i = 0; i < 32; ++i) {
    // Random lengths around the 16/32-byte block boundaries: tails, exact
    // blocks, one-past.
    const std::size_t len = rng.index(70);
    std::string t = rng.string_over("abcdezf(rom)CharCode\x01\x02\x03", len);
    texts.push_back(std::move(t));
  }
  // Occurrences straddling every block-relative offset.
  for (std::size_t at = 0; at < 40; ++at) {
    std::string t(64, 'q');
    t.replace(at, 4, "abcd");
    texts.push_back(std::move(t));
  }

  const auto impls = available_impls();
  ASSERT_FALSE(impls.empty());
  for (const std::string& text : texts) {
    teddy::HitBuffer reference;
    plan->scan(text, reference, teddy::Impl::kScalar);
    for (const teddy::Impl impl : impls) {
      teddy::HitBuffer hits;
      plan->scan(text, hits, impl);
      EXPECT_EQ(hits, reference)
          << teddy::impl_name(impl) << " diverged on \"" << text << '"';
    }
  }
}

TEST(TeddyPlan, ImplsAgreeForEveryWindowLength) {
  // K = 1..4 exercise every carry arm of the vector kernels (K=1 is a pure
  // table lookup, K=4 uses all three shifted planes).
  Rng rng(0x7EDD2);
  const auto impls = available_impls();
  for (std::size_t min_len = 1; min_len <= 4; ++min_len) {
    std::vector<teddy::Plan::Literal> lits;
    std::size_t id = 0;
    for (std::size_t len = min_len; len <= min_len + 3; ++len) {
      lits.push_back({rng.string_over("abcxyz01", len), id++});
      lits.push_back({std::string(len, 'q'), id++});
    }
    const auto plan = teddy::Plan::build(std::move(lits));
    ASSERT_TRUE(plan.has_value());
    ASSERT_EQ(plan->prefix_len(), min_len);
    for (int i = 0; i < 48; ++i) {
      const std::string t = rng.string_over("abcxyzq01.", rng.index(70));
      teddy::HitBuffer reference;
      plan->scan(t, reference, teddy::Impl::kScalar);
      for (const teddy::Impl impl : impls) {
        teddy::HitBuffer hits;
        plan->scan(t, hits, impl);
        EXPECT_EQ(hits, reference)
            << teddy::impl_name(impl) << " K=" << min_len << " on \"" << t
            << '"';
      }
    }
  }
}

TEST(TeddyPlan, FatImplsEmitIdenticalHits) {
  // A Fat (16-bucket) plan can be forced on a small set; the AVX2 fat
  // kernel and the 16-bit-lane scalar shift-or must agree hit-for-hit.
  Rng rng(0xFA7);
  std::vector<teddy::Plan::Literal> lits;
  for (std::size_t i = 0; i < 40; ++i) {
    lits.push_back({rng.string_over("abcdefgh", 3 + rng.index(6)), i});
  }
  const auto plan =
      teddy::Plan::build(std::move(lits), teddy::Plan::kFatBuckets);
  ASSERT_TRUE(plan.has_value());
  ASSERT_EQ(plan->bucket_count(), teddy::Plan::kFatBuckets);
  for (int i = 0; i < 64; ++i) {
    const std::string t = rng.string_over("abcdefgh.", rng.index(90));
    teddy::HitBuffer reference;
    plan->scan(t, reference, teddy::Impl::kScalar);
    for (const teddy::Impl impl : available_impls()) {
      teddy::HitBuffer hits;
      plan->scan(t, hits, impl);
      EXPECT_EQ(hits, reference)
          << teddy::impl_name(impl) << " diverged on \"" << t << '"';
    }
  }
}

TEST(TeddyPlan, FatAndEightBucketPlansConfirmIdentically) {
  // Bucket masks differ between the two widths, so the comparison happens
  // after confirmation: both plans must surface exactly the same ids.
  Rng rng(0xFA8);
  std::vector<teddy::Plan::Literal> lits;
  const std::size_t n = 200;
  for (std::size_t i = 0; i < n; ++i) {
    lits.push_back({rng.string_over("abcdwxyz", 4 + rng.index(8)), i});
  }
  const auto narrow = teddy::Plan::build(lits, teddy::Plan::kBuckets);
  const auto fat = teddy::Plan::build(lits, teddy::Plan::kFatBuckets);
  ASSERT_TRUE(narrow.has_value());
  ASSERT_TRUE(fat.has_value());

  for (int i = 0; i < 48; ++i) {
    const std::string t = rng.string_over("abcdwxyz.", rng.index(200));
    teddy::HitBuffer hits;
    std::vector<std::uint8_t> seen_narrow(n, 0);
    std::vector<std::uint8_t> seen_fat(n, 0);
    std::vector<std::size_t> out_narrow;
    std::vector<std::size_t> out_fat;
    narrow->scan(t, hits);
    narrow->confirm(t, hits, seen_narrow, out_narrow, 0, n);
    fat->scan(t, hits);
    fat->confirm(t, hits, seen_fat, out_fat, 0, n);
    std::sort(out_narrow.begin(), out_narrow.end());
    std::sort(out_fat.begin(), out_fat.end());
    EXPECT_EQ(out_narrow, out_fat) << "text \"" << t << '"';
  }
}

// --------------------------- candidate oracle ---------------------------

TEST(TeddyPrefilter, EveryLiteralLengthOneToEight) {
  Rng rng(0x1E77);
  // One registration set per minimum length: every set — including ones
  // with 1- and 2-byte literals — routes through the sharded Teddy first
  // stage and must agree with the automaton byte-for-byte.
  for (std::size_t min_len = 1; min_len <= 8; ++min_len) {
    std::vector<std::pair<std::size_t, std::string>> regs;
    std::size_t id = 0;
    for (std::size_t len = min_len; len <= 8; ++len) {
      regs.emplace_back(id++, std::string(len, 'a'));          // runs
      regs.emplace_back(id++, rng.string_over("abcxyz", len)); // random
      std::string edge = "Z" + std::string(len > 1 ? len - 1 : 0, 'y');
      regs.emplace_back(id++, edge);
    }
    regs.emplace_back(id++, "");  // fallback rider
    const Pair p = build_pair(regs);
    EXPECT_TRUE(p.teddy.teddy_active()) << min_len;

    std::vector<std::string> texts = {"", "a", "aaaaaaaaaa", "Zyyyyyyy",
                                      "xyzabcxyzabc"};
    for (int i = 0; i < 24; ++i) {
      texts.push_back(rng.string_over("abcxyzZ", 3 + rng.index(60)));
    }
    for (const std::string& t : texts) expect_equal_candidates(p, t);
  }
}

TEST(TeddyPrefilter, SharedPrefixBucketCollisions) {
  // Dozens of literals sharing one 4-byte prefix: they land in the same
  // bucket(s), every occurrence of the prefix lights the bucket, and only
  // exact confirmation may separate them.
  std::vector<std::pair<std::size_t, std::string>> regs;
  for (std::size_t i = 0; i < 40; ++i) {
    regs.emplace_back(i, "pref" + std::to_string(i));
  }
  regs.emplace_back(100, "prefix_shared_long_tail");
  regs.emplace_back(101, "pref");  // the bare prefix itself
  const Pair p = build_pair(regs);
  ASSERT_TRUE(p.teddy.teddy_active());

  expect_equal_candidates(p, "pref");
  expect_equal_candidates(p, "pref1");
  expect_equal_candidates(p, "pref39 pref12 pref");
  expect_equal_candidates(p, "prefix_shared_long_tail");
  expect_equal_candidates(p, "prefix_shared_long_tai");  // one byte short
  expect_equal_candidates(p, "xxprefxx pref3 pref33");
  EXPECT_EQ(p.teddy.candidates("pref7"),
            (std::vector<std::size_t>{7, 101}));
}

TEST(TeddyPrefilter, BoundaryPositions) {
  const Pair p = build_pair({{0, "needle"}, {1, "end"}, {2, "xyz"}});
  ASSERT_TRUE(p.teddy.teddy_active());

  // Occurrence at position 0.
  expect_equal_candidates(p, "needle");
  expect_equal_candidates(p, "needle rest of text");
  EXPECT_EQ(p.teddy.candidates("needle"), (std::vector<std::size_t>{0}));
  // Occurrence ending exactly at the last byte, across block-relative
  // alignments (the padded-tail path of the vector kernels).
  for (std::size_t pad = 0; pad < 40; ++pad) {
    const std::string tail_hit = std::string(pad, '.') + "end";
    expect_equal_candidates(p, tail_hit);
    EXPECT_EQ(p.teddy.candidates(tail_hit), (std::vector<std::size_t>{1}));
  }
  // Text shorter than any literal / shorter than the prefix window.
  expect_equal_candidates(p, "");
  expect_equal_candidates(p, "en");
  expect_equal_candidates(p, "ne");
  // Truncated occurrence at the very end (prefix present, tail cut off).
  expect_equal_candidates(p, "....needl");
  expect_equal_candidates(p, "....nee");
}

TEST(TeddyPrefilter, MixedShortAndLongLiterals) {
  // 1–2-byte literals ride in their own shards next to long ones; the
  // candidate set must stay byte-identical to the automaton, including
  // texts where a short literal is a prefix/suffix of a long one.
  const Pair p = build_pair({{0, "x"},
                             {1, "ab"},
                             {2, "abc"},
                             {3, "abcdef"},
                             {4, "fromCharCode"},
                             {5, "f"},
                             {6, ""}});
  ASSERT_TRUE(p.teddy.teddy_active());
  ASSERT_EQ(p.teddy.teddy_plans()->shard_count(), 4u);

  Rng rng(0x515);
  std::vector<std::string> texts = {"",       "x",         "ab",
                                    "abc",    "abcdef",    "fromCharCode",
                                    "zzfzz",  "xabcdefx",  "abab",
                                    "fromCharCod", std::string(100, 'a')};
  for (int i = 0; i < 48; ++i) {
    texts.push_back(rng.string_over("abcdefxromCh.", rng.index(80)));
  }
  for (const std::string& t : texts) expect_equal_candidates(p, t);
}

TEST(TeddyPrefilter, BigSetsSpanMultipleShardsAndStayExact) {
  // 5k–20k literals: well past the old 4096-literal ceiling, split across
  // shards (the 20k set also crosses the per-shard capacity, and its
  // shards run Fat). Literals are short strings over a small alphabet.
  Rng rng(0xB16);
  for (const std::size_t n_lits : {std::size_t{5000}, std::size_t{20000}}) {
    std::vector<std::pair<std::size_t, std::string>> regs;
    std::size_t id = 0;
    for (std::size_t i = 0; i < n_lits; ++i) {
      regs.emplace_back(id++, rng.string_over("abcdef", 5 + rng.index(4)));
    }
    const Pair p = build_pair(regs);
    ASSERT_TRUE(p.teddy.teddy_active()) << n_lits;
    const teddy::PlanSet* plans = p.teddy.teddy_plans();
    ASSERT_NE(plans, nullptr);
    EXPECT_GE(plans->shard_count(),
              n_lits > teddy::Plan::kShardMaxLiterals ? 2u : 1u);

    for (int i = 0; i < 12; ++i) {
      const std::string t = rng.string_over("abcdef", 200 + rng.index(800));
      expect_equal_candidates(p, t);
    }
    expect_equal_candidates(p, "");
    expect_equal_candidates(p, regs.front().second);
    expect_equal_candidates(p, regs.back().second);
  }
}

TEST(TeddyPrefilter, ScanStatsReportRoutingAndCounts) {
  const Pair p = build_pair({{0, "x"}, {1, "needle"}, {2, ""}});
  std::vector<std::size_t> out;
  teddy::HitBuffer hits;
  PrefilterStats stats;

  p.teddy.candidates_into("a needle in x", out, hits, &stats);
  EXPECT_EQ(stats.fallback, PrefilterFallback::kNone);
  EXPECT_EQ(stats.shards_scanned, 2u);  // K=1 and K=4 length classes
  EXPECT_GE(stats.first_stage_hits, 2u);
  EXPECT_EQ(stats.literal_survivors, 2u);

  p.teddy.candidates_into("nothing here", out, hits, &stats);
  EXPECT_EQ(stats.literal_survivors, 0u);

  const Pair none = build_pair({{0, ""}, {1, ""}});
  none.teddy.candidates_into("a needle in x", out, hits, &stats);
  EXPECT_EQ(stats.fallback, PrefilterFallback::kNoLiterals);
  EXPECT_EQ(out, (std::vector<std::size_t>{0, 1}));
}

// ----------------------------- kitgen corpus -----------------------------

std::vector<std::string> kitgen_corpus() {
  Rng rng(0xC0FFEE);
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
    spec.family = kitgen::KitFamily::Angler;
    spec.cves = kitgen::kit_info(kitgen::KitFamily::Angler).cves;
    samples.push_back(text::normalize_raw(
        pack_angler(payload_text(spec), kitgen::AnglerPackerState{}, rng)));
  }
  samples.push_back("");
  samples.push_back("no literals in here at all");
  return samples;
}

// Deployed-database-shaped registrations: literal chunks cut from the
// corpus via the real signature-compilation path (Pattern::escape +
// required_literal), most from other samples than the one scanned.
std::vector<std::pair<std::size_t, std::string>> corpus_registrations(
    const std::vector<std::string>& corpus) {
  Rng rng(0xBEEF);
  std::vector<std::pair<std::size_t, std::string>> regs;
  std::size_t id = 0;
  for (const std::string& text : corpus) {
    if (text.size() < 128) continue;
    for (int k = 0; k < 6; ++k) {
      const std::size_t len = 16 + rng.index(32);
      const std::size_t at = rng.index(text.size() - len);
      const Pattern pat = Pattern::compile(
          Pattern::escape(text.substr(at, len)) + "[0-9a-zA-Z]{0,8}");
      regs.emplace_back(id++, pat.required_literal());
    }
  }
  regs.emplace_back(id++, "");  // fallback rider
  return regs;
}

TEST(TeddyPrefilter, KitgenCorpusOneShotEquivalence) {
  const auto corpus = kitgen_corpus();
  const Pair p = build_pair(corpus_registrations(corpus));
  ASSERT_TRUE(p.teddy.teddy_active());
  EXPECT_EQ(p.teddy.dense_state_count(), 0u);
  for (const std::string& sample : corpus) {
    EXPECT_EQ(p.teddy.candidates(sample), p.automaton.candidates(sample));
  }
}

// ------------------------------ concurrency ------------------------------

TEST(TeddyPrefilter, ConcurrentScansOverOneSharedPlan) {
  const auto corpus = kitgen_corpus();
  const Pair p = build_pair(corpus_registrations(corpus));
  ASSERT_TRUE(p.teddy.teddy_active());
  std::vector<std::vector<std::size_t>> expect;
  for (const std::string& sample : corpus) {
    expect.push_back(p.automaton.candidates(sample));
  }

  std::vector<std::thread> workers;
  std::vector<int> mismatches(4, 0);
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&, w] {
      for (int round = 0; round < 8; ++round) {
        for (std::size_t i = 0; i < corpus.size(); ++i) {
          if (p.teddy.candidates(corpus[i]) != expect[i]) ++mismatches[w];
        }
      }
    });
  }
  for (std::thread& t : workers) t.join();
  for (const int m : mismatches) EXPECT_EQ(m, 0);
}

// ----------------------------- dense routing -----------------------------

// The bench's 512-short-literal set (BM_TeddyPrefilterShortLiterals/512):
// 1–2-byte alphanumerics admitting most common bytes into the K=1 shard's
// shuffle mask. Routing is decided PER SHARD: the dense K=1 shard is
// excised from the SIMD pass and its literals walk the dense-literal
// automaton, while the selective K=2 shard stays on Teddy — and candidate
// sets stay byte-identical either way.
TEST(TeddyPrefilter, DenseShardRoutesToSubAutomaton) {
  constexpr std::string_view kAlpha = "abcdefghijklmnopqrstuvwxyz0123456789";
  const auto short_set = [&](std::size_t count) {
    std::vector<std::pair<std::size_t, std::string>> regs;
    for (std::size_t i = 0; i < count; ++i) {
      std::string lit;
      lit.push_back(kAlpha[i % kAlpha.size()]);
      if (i % 7 != 0) {
        lit.push_back(kAlpha[(i / kAlpha.size()) % kAlpha.size()]);
      }
      regs.emplace_back(i, lit);
    }
    return regs;
  };

  // Hybrid: the whole-set estimate is past the threshold but only the
  // single-byte shard is dense — one bad length class must not drag the
  // whole database off the SIMD path.
  const Pair hybrid = build_pair(short_set(512));
  EXPECT_GT(hybrid.teddy.teddy_plans()->expected_hits_per_byte(),
            kDenseRouteHitsPerByte);
  EXPECT_FALSE(hybrid.teddy.teddy_dense());
  EXPECT_TRUE(hybrid.teddy.teddy_active());
  EXPECT_GT(hybrid.teddy.dense_shard_count(), 0u);
  EXPECT_LT(hybrid.teddy.dense_shard_count(),
            hybrid.teddy.teddy_plans()->shard_count());

  // The routing decision is observable in scan stats and changes nothing
  // about the candidate sets.
  const std::string text = kitgen_corpus().front();
  std::vector<std::size_t> out;
  teddy::HitBuffer hits;
  PrefilterStats stats;
  hybrid.teddy.candidates_into(text, out, hits, &stats);
  EXPECT_EQ(stats.fallback, PrefilterFallback::kNone);
  EXPECT_EQ(stats.dense_shards, hybrid.teddy.dense_shard_count());
  expect_equal_candidates(hybrid, text);

  // A sparse fraction of the same generator keeps every shard on Teddy.
  const Pair sparse = build_pair(short_set(64));
  EXPECT_LE(sparse.teddy.teddy_plans()->expected_hits_per_byte(),
            kDenseRouteHitsPerByte);
  EXPECT_TRUE(sparse.teddy.teddy_active());
  EXPECT_EQ(sparse.teddy.dense_shard_count(), 0u);
  EXPECT_EQ(sparse.teddy.dense_state_count(), 0u);
  expect_equal_candidates(sparse, text);

  // Density is derived state: rebuilding from the same registrations
  // routes identically.
  LiteralPrefilter rebuilt;
  for (const auto& reg : hybrid.teddy.registrations()) {
    rebuilt.add(reg.id, reg.literal);
  }
  rebuilt.build();
  EXPECT_EQ(rebuilt.dense_shard_flags(), hybrid.teddy.dense_shard_flags());
  EXPECT_EQ(rebuilt.dense_state_count(), hybrid.teddy.dense_state_count());
  EXPECT_EQ(rebuilt.candidates(text), hybrid.automaton.candidates(text));
}

// A single-byte-only set admits most common bytes into its one shuffle
// mask: EVERY shard is dense, so the dense automaton covers every literal
// and Teddy never runs.
std::vector<std::pair<std::size_t, std::string>> all_dense_regs() {
  constexpr std::string_view kAlpha = "abcdefghijklmnopqrstuvwxyz0123456789";
  std::vector<std::pair<std::size_t, std::string>> regs;
  for (std::size_t i = 0; i < kAlpha.size(); ++i) {
    regs.emplace_back(i, std::string(1, kAlpha[i]));
  }
  regs.emplace_back(kAlpha.size(), "");  // fallback rider
  return regs;
}

TEST(TeddyPrefilter, AllDenseSetWalksTheDenseAutomaton) {
  const Pair dense = build_pair(all_dense_regs());
  EXPECT_TRUE(dense.teddy.teddy_dense());
  EXPECT_FALSE(dense.teddy.teddy_active());
  EXPECT_EQ(dense.teddy.dense_shard_count(),
            dense.teddy.teddy_plans()->shard_count());
  EXPECT_GT(dense.teddy.dense_state_count(), 0u);

  const std::string text = kitgen_corpus().front();
  std::vector<std::size_t> out;
  teddy::HitBuffer hits;
  PrefilterStats stats;
  dense.teddy.candidates_into(text, out, hits, &stats);
  EXPECT_EQ(stats.fallback, PrefilterFallback::kDenseLiterals);
  EXPECT_EQ(stats.first_stage_hits, 0u);
  EXPECT_EQ(stats.shards_scanned, 0u);
  expect_equal_candidates(dense, text);
  expect_equal_candidates(dense, "");
  expect_equal_candidates(dense, "...");
}

// ------------------------------- slicing --------------------------------

// The slicer texts past 4 GiB take — the SIMD pass over overlapping
// in-place views — driven with small slices through the test seam: every
// literal placed at every position — so across every slice edge — must
// come out exactly as the unsliced scan and the reference automaton
// report it, on a sparse set and on a hybrid one whose dense shard walks
// the whole text.
TEST(TeddySlicing, LiteralsStraddlingEverySliceEdge) {
  const std::vector<std::string> lits = {"q", "zk", "abc", "wxyz",
                                         "straddle", "longliteral12"};
  std::vector<std::pair<std::size_t, std::string>> sparse_regs;
  for (std::size_t i = 0; i < lits.size(); ++i) {
    sparse_regs.emplace_back(i, lits[i]);
  }
  sparse_regs.emplace_back(lits.size(), "");  // fallback rider
  auto hybrid_regs = sparse_regs;
  constexpr std::string_view kAlpha = "abcdefghijklmnopqrstuvwxyz0123456789";
  for (std::size_t i = 0; i < 512; ++i) {
    std::string lit(1, kAlpha[i % kAlpha.size()]);
    if (i % 7 != 0) lit.push_back(kAlpha[(i / kAlpha.size()) % kAlpha.size()]);
    hybrid_regs.emplace_back(100 + i, lit);
  }

  for (const auto* regs : {&sparse_regs, &hybrid_regs}) {
    const Pair p = build_pair(*regs);
    ASSERT_TRUE(p.teddy.teddy_active());
    const std::size_t keep = p.teddy.teddy_plans()->max_literal_len() - 1;
    for (const std::size_t slice :
         {std::size_t{1}, keep + 1, keep + 2, std::size_t{16},
          std::size_t{29}}) {
      for (const std::string& lit : lits) {
        for (std::size_t at = 0; at + lit.size() <= 96; ++at) {
          std::string text(96, '.');
          text.replace(at, lit.size(), lit);
          const auto expect = p.automaton.candidates(text);
          ASSERT_EQ(p.teddy.candidates(text), expect);
          std::vector<std::uint32_t> hints(4096, 7);
          ASSERT_EQ(PrefilterTestPeer::candidates_sliced(p.teddy, text, slice,
                                                         &hints),
                    expect)
              << "slice " << slice << ", " << lit << " at " << at;
          // Window-relative positions are meaningless to the caller: a
          // sliced scan reports no hints at all.
          for (const std::size_t id : expect) {
            EXPECT_EQ(hints[id], teddy::kNoHint) << id;
          }
        }
      }
    }
  }
}

// The fleet's shape: 10k sparse 40-byte literals cut from kit traffic.
// Every shard stays on Teddy and no automaton is compiled at all.
TEST(TeddyPrefilter, SparseTenThousandLiteralSetBuildsNoAutomaton) {
  const auto corpus = kitgen_corpus();
  Rng rng(0x10C);
  LiteralPrefilter pf;
  for (std::size_t i = 0; i < 10000; ++i) {
    const std::string& donor = corpus[i % 12];
    pf.add(i, donor.substr(rng.index(donor.size() - 48), 40) + "#" +
                  std::to_string(i));
  }
  pf.build();
  EXPECT_TRUE(pf.teddy_active());
  EXPECT_EQ(pf.dense_shard_count(), 0u);
  EXPECT_EQ(pf.dense_state_count(), 0u);
  const testing::ReferenceAutomaton ref(pf);
  for (const std::string& sample : corpus) {
    EXPECT_EQ(pf.candidates(sample), ref.candidates(sample));
  }
}

}  // namespace
}  // namespace kizzle::match
