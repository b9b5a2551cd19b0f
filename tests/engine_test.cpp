// Unified scan engine tests (the Database/Scratch/event tentpole):
//
//   * differential oracle — engine::scan's event list must be
//     byte-identical to testing::scan_brute_force (per-signature search,
//     no shared prefilter) on a kitgen corpus, and first-event semantics
//     must equal the brute-force first match, one-shot and under every
//     chunking of the streamed path;
//   * reference first stage — the database's prefilter returns exactly the
//     candidates of the test-only reference automaton (tests/testing);
//   * scratch recycling — a Scratch reused across scans, streams and even
//     databases (whose ids swap between literal and fallback roles) must
//     produce exactly the events a fresh one does;
//   * stream stats — Stream::finish runs scan()'s own first stage, so its
//     ScanStats, prefilter slice included, equal a one-shot scan's;
//   * zero-allocation steady state — with a warm Scratch, engine::scan
//     and a chunk-fed stream perform no heap allocation at all, asserted
//     via a global operator-new hook.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "core/sigdb.h"
#include "engine/engine.h"
#include "kitgen/families.h"
#include "kitgen/packers.h"
#include "kitgen/payload.h"
#include "match/pattern.h"
#include "support/rng.h"
#include "testing/brute_force.h"
#include "testing/reference_automaton.h"
#include "text/normalize.h"

// ------------------------ operator-new hook ------------------------
//
// Global replacement so the zero-allocation assertion observes every heap
// allocation in the process. Counting is off by default; the allocation
// test flips it on around the scan under test (single-threaded, so the
// relaxed atomics are only for the replacement functions' legality).
namespace {
std::atomic<bool> g_count_allocations{false};
std::atomic<std::size_t> g_allocation_count{0};
}  // namespace

void* operator new(std::size_t size) {
  if (g_count_allocations.load(std::memory_order_relaxed)) {
    g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace kizzle::engine {
namespace {

// ----------------------------- corpus setup -----------------------------

std::string packed_sample(kitgen::KitFamily family, Rng& rng) {
  kitgen::PayloadSpec spec;
  spec.family = family;
  spec.cves = kitgen::kit_info(family).cves;
  spec.av_check = true;
  spec.urls = {kitgen::make_landing_url(rng)};
  const std::string payload = payload_text(spec);
  if (family == kitgen::KitFamily::Rig) {
    return pack_rig(payload, kitgen::RigPackerState{}, rng);
  }
  return pack_nuclear(payload, kitgen::NuclearPackerState{}, rng);
}

std::vector<std::string> kitgen_corpus() {
  Rng rng(0xE6613E);
  std::vector<std::string> samples;
  for (int i = 0; i < 3; ++i) {
    samples.push_back(text::normalize_raw(
        packed_sample(kitgen::KitFamily::Nuclear, rng)));
    samples.push_back(
        text::normalize_raw(packed_sample(kitgen::KitFamily::Rig, rng)));
  }
  samples.push_back("");                       // empty document
  samples.push_back("no literals here at all");
  return samples;
}

// A database shaped like a deployed signature set: long escaped literal
// chunks cut from the corpus (most from *other* samples than the one
// scanned), plus a classy pattern with no usable literal (fallback path).
std::vector<core::DeployedSignature> corpus_signatures(
    const std::vector<std::string>& corpus) {
  Rng rng(0xC0FFEE);
  std::vector<core::DeployedSignature> sigs;
  std::size_t n = 0;
  for (const std::string& text : corpus) {
    if (text.size() < 96) continue;
    for (int k = 0; k < 4; ++k) {
      const std::size_t len = 24 + rng.index(24);
      const std::size_t at = rng.index(text.size() - len);
      core::DeployedSignature s;
      s.name = "sig" + std::to_string(n);
      s.family = (n % 2 == 0) ? "Nuclear" : "RIG";
      s.pattern =
          match::Pattern::escape(text.substr(at, len)) + "[0-9a-zA-Z]{0,8}";
      sigs.push_back(std::move(s));
      ++n;
    }
  }
  core::DeployedSignature fallback;
  fallback.name = "fallback";
  fallback.family = "none";
  fallback.pattern = "zq[0-9]{3}zq";  // no usable literal chunk
  sigs.push_back(std::move(fallback));
  return sigs;
}

std::vector<MatchEvent> all_events(const Database& db, std::string_view text,
                                   Scratch& scratch) {
  std::vector<MatchEvent> events;
  scan(db, text, scratch, [&events](const MatchEvent& event) {
    events.push_back(event);
    return ScanDecision::Continue;
  });
  return events;
}

void expect_same_events(const std::vector<MatchEvent>& got,
                        const std::vector<MatchEvent>& want,
                        const char* label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].sig_index, want[i].sig_index) << label << " event " << i;
    EXPECT_EQ(got[i].begin, want[i].begin) << label << " event " << i;
    EXPECT_EQ(got[i].end, want[i].end) << label << " event " << i;
    EXPECT_EQ(got[i].name, want[i].name) << label << " event " << i;
    EXPECT_EQ(got[i].family, want[i].family) << label << " event " << i;
  }
}

// ------------------------- differential oracle -------------------------

TEST(EngineOracle, ScanEventsEqualBruteForceOnKitgenCorpus) {
  const auto corpus = kitgen_corpus();
  const auto sigs = corpus_signatures(corpus);
  const Database db = Database::compile(sigs);

  Scratch scratch;
  for (const std::string& text : corpus) {
    // The prefilter-free per-signature reference over the same database.
    const std::vector<testing::ScanHit> brute =
        testing::scan_brute_force(db, text).hits;
    const auto events = all_events(db, text, scratch);
    ASSERT_EQ(events.size(), brute.size()) << "text size " << text.size();
    for (std::size_t i = 0; i < events.size(); ++i) {
      EXPECT_EQ(events[i].sig_index, brute[i].sig_index);
      EXPECT_EQ(events[i].begin, brute[i].begin);
      EXPECT_EQ(events[i].end, brute[i].end);
      EXPECT_EQ(events[i].name, sigs[brute[i].sig_index].name);
      EXPECT_EQ(events[i].family, sigs[brute[i].sig_index].family);
    }
    // First-event semantics == brute-force first match.
    const auto first = first_match(db, text, scratch);
    if (brute.empty()) {
      EXPECT_FALSE(first.has_value());
    } else {
      ASSERT_TRUE(first.has_value());
      EXPECT_EQ(first->sig_index, brute[0].sig_index);
    }
  }
}

TEST(EngineOracle, StreamedEventsEqualOneShotForEveryChunking) {
  const auto corpus = kitgen_corpus();
  const Database db = Database::compile(corpus_signatures(corpus));
  Scratch oneshot_scratch;
  Scratch stream_scratch;
  for (const std::string& text : corpus) {
    const auto expect = all_events(db, text, oneshot_scratch);
    std::vector<std::size_t> chunks = {1, 7, 4096,
                                       std::max<std::size_t>(text.size(), 1)};
    for (const std::size_t chunk : chunks) {
      Stream stream = open_stream(db, stream_scratch);
      for (std::size_t at = 0; at < text.size(); at += chunk) {
        stream.feed(std::string_view(text).substr(at, chunk));
      }
      std::vector<MatchEvent> events;
      stream.finish([&events](const MatchEvent& event) {
        events.push_back(event);
        return ScanDecision::Continue;
      });
      expect_same_events(events, expect, "chunked");
      EXPECT_EQ(stream.bytes_fed(), text.size());
      EXPECT_EQ(stream.text(), text);
    }
  }
}

TEST(EngineOracle, EverySplitPositionOfOneSampleMatchesOneShot) {
  const auto corpus = kitgen_corpus();
  const Database db = Database::compile(corpus_signatures(corpus));
  // The shortest real sample keeps the n^1 split sweep affordable.
  const std::string* text = nullptr;
  for (const auto& t : corpus) {
    if (t.size() >= 96 && (text == nullptr || t.size() < text->size())) {
      text = &t;
    }
  }
  ASSERT_NE(text, nullptr);
  Scratch scratch;
  const auto expect = all_events(db, *text, scratch);
  ASSERT_FALSE(expect.empty());  // the corpus signatures hit their donors
  for (std::size_t split = 0; split <= text->size();
       split += 1 + split / 64) {  // dense at the front, sparser later
    Stream stream = open_stream(db, scratch);
    stream.feed(std::string_view(*text).substr(0, split));
    stream.feed(std::string_view(*text).substr(split));
    std::vector<MatchEvent> events;
    stream.finish([&events](const MatchEvent& event) {
      events.push_back(event);
      return ScanDecision::Continue;
    });
    expect_same_events(events, expect, "split");
  }
}

TEST(EngineOracle, PrefilterCandidatesEqualReferenceAutomaton) {
  const auto corpus = kitgen_corpus();
  const Database db = Database::compile(corpus_signatures(corpus));
  const testing::ReferenceAutomaton ref(db.prefilter());
  ASSERT_GT(db.prefilter().fallback_count(), 0u);
  for (const std::string& text : corpus) {
    EXPECT_EQ(db.prefilter().candidates(text), ref.candidates(text));
  }
}

// A database loaded from the `.kpf` artifact of a signature set delivers
// exactly the events of one compiled from the same signatures.
TEST(EngineOracle, ArtifactDatabaseAgreesWithCompiledDatabase) {
  const auto corpus = kitgen_corpus();
  const auto sigs = corpus_signatures(corpus);
  const Database compiled = Database::compile(sigs);
  std::stringstream blob(std::ios::in | std::ios::out | std::ios::binary);
  core::save_artifact(blob, sigs);
  const Database loaded = Database::from_artifact(blob);
  ASSERT_EQ(loaded.size(), compiled.size());
  Scratch scratch;
  for (const std::string& text : corpus) {
    expect_same_events(all_events(loaded, text, scratch),
                       all_events(compiled, text, scratch), "artifact");
  }
}

TEST(EngineScan, CandidateFilterSkipsConfirmation) {
  const auto corpus = kitgen_corpus();
  const auto sigs = corpus_signatures(corpus);
  const Database db = Database::compile(sigs);
  Scratch scratch;
  for (const std::string& text : corpus) {
    const auto expect = all_events(db, text, scratch);
    // Only even signature indices may confirm.
    std::vector<MatchEvent> events;
    scan(
        db, text, scratch, [](std::size_t i) { return i % 2 == 0; },
        [&events](const MatchEvent& event) {
          events.push_back(event);
          return ScanDecision::Continue;
        });
    std::vector<MatchEvent> want;
    for (const MatchEvent& e : expect) {
      if (e.sig_index % 2 == 0) want.push_back(e);
    }
    expect_same_events(events, want, "filtered");
  }
}

TEST(EngineDatabase, IndexOutOfRangeThrows) {
  const Database db = Database::compile(
      std::vector<Database::Spec>{{"only", "fam", "needle"}});
  EXPECT_EQ(db.name(0), "only");
  EXPECT_EQ(db.family(0), "fam");
  EXPECT_EQ(db.pattern(0).source(), "needle");
  EXPECT_THROW(db.name(1), std::out_of_range);
  EXPECT_THROW(db.family(1), std::out_of_range);
  EXPECT_THROW(db.pattern(1), std::out_of_range);
  const Database empty;
  EXPECT_THROW(empty.name(0), std::out_of_range);
}

TEST(EngineScan, EmptyDatabaseDeliversNothing) {
  const Database db;
  Scratch scratch;
  EXPECT_EQ(db.size(), 0u);
  const auto outcome =
      scan(db, "anything", scratch,
           [](const MatchEvent&) { return ScanDecision::Continue; });
  EXPECT_EQ(outcome.events, 0u);
  EXPECT_FALSE(first_match(db, "anything", scratch).has_value());
}

TEST(EngineScan, StopHaltsDelivery) {
  const auto corpus = kitgen_corpus();
  const Database db = Database::compile(corpus_signatures(corpus));
  Scratch scratch;
  for (const std::string& text : corpus) {
    const auto expect = all_events(db, text, scratch);
    if (expect.size() < 2) continue;
    std::size_t delivered = 0;
    const auto outcome = scan(db, text, scratch,
                              [&delivered](const MatchEvent&) {
                                ++delivered;
                                return ScanDecision::Stop;
                              });
    EXPECT_EQ(delivered, 1u);
    EXPECT_EQ(outcome.events, 1u);
    EXPECT_TRUE(outcome.stopped);
    return;  // one multi-event sample suffices
  }
  FAIL() << "corpus produced no multi-event sample";
}

// ------------------------------ scan stats ------------------------------

TEST(EngineScan, ScanStatsReportTierSplitAndPrefilterCounters) {
  const Database db = Database::compile(std::vector<Database::Spec>{
      {"lit", "fam", "needleone"},                // pure literal tier
      {"dom", "fam", "needletwo[0-9]{0,4}"},      // compiled confirm program
      {"rex", "fam", "needlethree|zzzalternate"}, // VM tier, no usable literal
  });
  ASSERT_EQ(db.pattern(0).confirm_tier(), match::ConfirmTier::kLiteral);
  ASSERT_EQ(db.pattern(1).confirm_tier(),
            match::ConfirmTier::kLiteralDominated);
  ASSERT_EQ(db.pattern(2).confirm_tier(), match::ConfirmTier::kRegex);

  Scratch scratch;
  const std::string text = "xx needleone yy needletwo77 zz needlethree";
  const auto outcome = scan(db, text, scratch, [](const MatchEvent&) {
    return ScanDecision::Continue;
  });
  EXPECT_EQ(outcome.events, 3u);
  const ScanStats& st = scratch.stats();
  EXPECT_EQ(st.prefilter.fallback, match::PrefilterFallback::kNone);
  EXPECT_GT(st.prefilter.first_stage_hits, 0u);
  EXPECT_GT(st.prefilter.shards_scanned, 0u);
  EXPECT_EQ(st.prefilter.literal_survivors, 2u);  // the no-literal
  EXPECT_EQ(st.candidates, 3u);                   // alternation merges in
  EXPECT_EQ(st.confirmed_literal, 1u);
  EXPECT_EQ(st.confirmed_literal_dominated, 1u);
  EXPECT_EQ(st.confirmed_vm, 1u);

  // Stats are per scan, not accumulated: a miss-everything scan overwrites.
  (void)scan(db, "nothing relevant", scratch,
             [](const MatchEvent&) { return ScanDecision::Continue; });
  EXPECT_EQ(scratch.stats().candidates, 1u);  // only the unconditional sig
  EXPECT_EQ(scratch.stats().confirmed_vm, 1u);
  EXPECT_EQ(scratch.stats().confirmed_literal, 0u);

  // confirm() fills the candidate/tier counters but zeroes the prefilter
  // slice: its candidate list arrived from outside the call.
  const std::vector<std::size_t> candidates = {0, 1, 2};
  (void)confirm(db, candidates, text, scratch,
                [](const MatchEvent&) { return ScanDecision::Continue; });
  EXPECT_EQ(scratch.stats().prefilter.first_stage_hits, 0u);
  EXPECT_EQ(scratch.stats().prefilter.literal_survivors, 0u);
  EXPECT_EQ(scratch.stats().candidates, 3u);
  EXPECT_EQ(scratch.stats().confirmed_literal, 1u);
  EXPECT_EQ(scratch.stats().confirmed_literal_dominated, 1u);
  EXPECT_EQ(scratch.stats().confirmed_vm, 1u);
}

// A stream's finish runs the one-shot first stage over the accumulated
// text, so the scratch's stats afterwards — tier 1–2 slice included —
// are exactly those a scan() of the same text leaves.
TEST(EngineScan, StreamFinishStatsEqualScanStats) {
  const auto corpus = kitgen_corpus();
  const Database db = Database::compile(corpus_signatures(corpus));
  Scratch oneshot;
  Scratch streamed;
  const auto keep_going = [](const MatchEvent&) {
    return ScanDecision::Continue;
  };
  for (const std::string& text : corpus) {
    (void)scan(db, text, oneshot, keep_going);
    Stream stream = open_stream(db, streamed);
    for (std::size_t at = 0; at < text.size(); at += 7) {
      stream.feed(std::string_view(text).substr(at, 7));
    }
    (void)stream.finish(keep_going);
    const ScanStats& want = oneshot.stats();
    const ScanStats& got = streamed.stats();
    EXPECT_EQ(got.prefilter.first_stage_hits, want.prefilter.first_stage_hits);
    EXPECT_EQ(got.prefilter.shards_scanned, want.prefilter.shards_scanned);
    EXPECT_EQ(got.prefilter.literal_survivors,
              want.prefilter.literal_survivors);
    EXPECT_EQ(got.prefilter.dense_shards, want.prefilter.dense_shards);
    EXPECT_EQ(got.prefilter.fallback, want.prefilter.fallback);
    EXPECT_EQ(got.candidates, want.candidates);
    EXPECT_EQ(got.confirmed_literal, want.confirmed_literal);
    EXPECT_EQ(got.confirmed_literal_dominated,
              want.confirmed_literal_dominated);
    EXPECT_EQ(got.confirmed_vm, want.confirmed_vm);
    EXPECT_EQ(got.gated, want.gated);
    if (!text.empty()) {
      EXPECT_GT(got.prefilter.shards_scanned, 0u);
    }
  }
}

TEST(EngineScan, FactorGateCountsRejectsAndSkipsTheVm) {
  // "yyyy" is the registered literal, so the prefilter hands this
  // signature over whenever it appears; only texts that also hold "zzz"
  // after it start the VM.
  const Database db = Database::compile(std::vector<Database::Spec>{
      {"rex", "fam", "(x+x+)+yyyy[0-9]+zzz"},
  });
  ASSERT_EQ(db.pattern(0).confirm_tier(), match::ConfirmTier::kRegex);
  Scratch scratch;
  const auto count = [](const MatchEvent&) { return ScanDecision::Continue; };

  // Without the gate this text blows the VM budget; gated, it is a clean
  // no-match that never started the VM.
  ScanOutcome outcome =
      scan(db, std::string(64, 'x') + "yyyy12", scratch, count);
  EXPECT_EQ(outcome.events, 0u);
  EXPECT_EQ(outcome.budget_exceeded, 0u);
  EXPECT_TRUE(outcome.complete());
  EXPECT_EQ(scratch.stats().candidates, 1u);
  EXPECT_EQ(scratch.stats().gated, 1u);
  EXPECT_EQ(scratch.stats().confirmed_vm, 0u);

  outcome = scan(db, "xxyyyy12zzz", scratch, count);
  EXPECT_EQ(outcome.events, 1u);
  EXPECT_EQ(scratch.stats().gated, 0u);
  EXPECT_EQ(scratch.stats().confirmed_vm, 1u);
}

// --------------------------- scratch recycling ---------------------------

TEST(EngineScratch, RecycledScratchEqualsFreshScratch) {
  const auto corpus = kitgen_corpus();
  const auto sigs = corpus_signatures(corpus);
  const Database db = Database::compile(sigs);
  // A second, smaller database: recycling must survive rebinding the
  // scratch across databases of different shapes.
  const Database small = Database::compile(
      std::vector<core::DeployedSignature>(sigs.begin(), sigs.begin() + 2));

  Scratch recycled;
  // Warm it up in every mode, across both databases.
  for (const std::string& text : corpus) {
    (void)all_events(db, text, recycled);
    (void)all_events(small, text, recycled);
    Stream stream = open_stream(db, recycled);
    stream.feed(text);
    (void)stream.finish_first();
  }

  for (const std::string& text : corpus) {
    Scratch fresh;
    expect_same_events(all_events(db, text, recycled),
                       all_events(db, text, fresh), "one-shot");

    Scratch fresh2;
    Stream recycled_stream = open_stream(db, recycled);
    Stream fresh_stream = open_stream(db, fresh2);
    for (std::size_t at = 0; at < text.size(); at += 7) {
      recycled_stream.feed(std::string_view(text).substr(at, 7));
      fresh_stream.feed(std::string_view(text).substr(at, 7));
    }
    std::vector<MatchEvent> recycled_events;
    recycled_stream.finish([&recycled_events](const MatchEvent& event) {
      recycled_events.push_back(event);
      return ScanDecision::Continue;
    });
    std::vector<MatchEvent> fresh_events;
    fresh_stream.finish([&fresh_events](const MatchEvent& event) {
      fresh_events.push_back(event);
      return ScanDecision::Continue;
    });
    expect_same_events(recycled_events, fresh_events, "stream");
  }
}

// One Scratch alternating between two databases whose signature slots
// swap roles — a literal-anchored pattern in one is a no-literal
// (fallback) pattern in the other — must deliver a fresh Scratch's events
// on every scan, spans included.
TEST(EngineScratch, ScratchMovedBetweenSwappedDatabasesEqualsFresh) {
  const auto spec = [](std::string name, std::string pattern) {
    core::DeployedSignature s;
    s.name = std::move(name);
    s.family = "T";
    s.pattern = std::move(pattern);
    return s;
  };
  const Database a = Database::compile(std::vector<core::DeployedSignature>{
      spec("lit", "kkmarker[0-9]{2}"), spec("weak", "zq[0-9]{3}zq")});
  const Database b = Database::compile(std::vector<core::DeployedSignature>{
      spec("weak", "zq[0-9]{3}zq"), spec("lit", "kkmarker[0-9]{2}"),
      spec("more", "kkmarkerzz")});
  ASSERT_EQ(a.prefilter().fallback_ids(), (std::vector<std::size_t>{1}));
  ASSERT_EQ(b.prefilter().fallback_ids(), (std::vector<std::size_t>{0}));
  const std::vector<std::string> texts = {
      "zq123zq .... kkmarker42 .. zq456zq kkmarkerzz",
      "kkmarker07 zq999zq", "nothing here", ""};
  Scratch moved;
  for (int round = 0; round < 3; ++round) {
    for (const Database* db : {&a, &b}) {
      for (const std::string& text : texts) {
        Scratch fresh;
        const auto want = all_events(*db, text, fresh);
        expect_same_events(all_events(*db, text, moved), want,
                           "moved scratch");
        // The same recycled scratch, streamed in 5-byte feeds.
        Stream stream = open_stream(*db, moved);
        for (std::size_t at = 0; at < text.size(); at += 5) {
          stream.feed(std::string_view(text).substr(at, 5));
        }
        std::vector<MatchEvent> streamed;
        stream.finish([&streamed](const MatchEvent& event) {
          streamed.push_back(event);
          return ScanDecision::Continue;
        });
        expect_same_events(streamed, want, "moved scratch stream");
      }
    }
  }
}

// ------------------------- zero-allocation claim -------------------------

TEST(EngineScratch, SteadyStateScanPerformsZeroHeapAllocations) {
  const auto corpus = kitgen_corpus();
  const Database db = Database::compile(corpus_signatures(corpus));
  Scratch scratch;
  const auto keep_going = [](const MatchEvent&) {
    return ScanDecision::Continue;
  };
  // One pass over the corpus, one-shot and streamed in 7-byte feeds;
  // returns the events delivered by each.
  const auto pass = [&] {
    std::pair<std::size_t, std::size_t> events{0, 0};
    for (const std::string& text : corpus) {
      events.first += scan(db, text, scratch, keep_going).events;
      Stream stream = open_stream(db, scratch);
      for (std::size_t at = 0; at < text.size(); at += 7) {
        stream.feed(std::string_view(text).substr(at, 7));
      }
      events.second += stream.finish(keep_going).events;
    }
    return events;
  };
  // Warm-up: size every recycled buffer (candidate vector, VM slots/undo/
  // stack high-water, the stream text, the prefilter's per-thread bitmaps)
  // to this corpus.
  std::pair<std::size_t, std::size_t> warm_events;
  for (int round = 0; round < 2; ++round) warm_events = pass();
  ASSERT_GT(warm_events.first, 0u);  // the claim must cover real confirmations
  ASSERT_EQ(warm_events.second, warm_events.first);

  g_allocation_count.store(0, std::memory_order_relaxed);
  g_count_allocations.store(true, std::memory_order_relaxed);
  const std::pair<std::size_t, std::size_t> hot_events = pass();
  g_count_allocations.store(false, std::memory_order_relaxed);

  EXPECT_EQ(hot_events, warm_events);
  EXPECT_EQ(g_allocation_count.load(std::memory_order_relaxed), 0u)
      << "steady-state engine::scan or stream touched the heap";
}

}  // namespace
}  // namespace kizzle::engine
