// Microbenchmarks (google-benchmark) for the per-module hot paths: the
// tokenizer, edit distance (full vs banded vs pre-filters), winnowing,
// DBSCAN, the regex VM, and the common-window search.
#include <benchmark/benchmark.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>

#include "cluster/dbscan.h"
#include "core/deploy.h"
#include "core/sigdb.h"
#include "distance/edit_distance.h"
#include "engine/engine.h"
#include "kitgen/families.h"
#include "kitgen/packers.h"
#include "kitgen/payload.h"
#include "match/pattern.h"
#include "match/prefilter.h"
#include "sig/common_window.h"
#include "support/interner.h"
#include "support/rng.h"
#include "support/thread_pool.h"
#include "text/abstraction.h"
#include "text/lexer.h"
#include "text/normalize.h"
#include "winnow/winnow.h"

namespace {

using namespace kizzle;

std::string packed_nuclear_sample(std::uint64_t seed) {
  Rng rng(seed);
  kitgen::PayloadSpec spec;
  spec.family = kitgen::KitFamily::Nuclear;
  spec.cves = kitgen::kit_info(kitgen::KitFamily::Nuclear).cves;
  spec.av_check = true;
  spec.urls = {kitgen::make_landing_url(rng)};
  return pack_nuclear(payload_text(spec), kitgen::NuclearPackerState{}, rng);
}

std::vector<std::uint32_t> random_stream(Rng& rng, std::size_t n,
                                         std::uint32_t alphabet) {
  std::vector<std::uint32_t> s(n);
  for (auto& x : s) x = static_cast<std::uint32_t>(rng.index(alphabet));
  return s;
}

// ------------------------------ lexer ------------------------------

void BM_LexPackedSample(benchmark::State& state) {
  const std::string src = packed_nuclear_sample(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(text::lex(src));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(src.size()));
}
BENCHMARK(BM_LexPackedSample);

void BM_NormalizeRaw(benchmark::State& state) {
  const std::string src = packed_nuclear_sample(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(text::normalize_raw(src));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(src.size()));
}
BENCHMARK(BM_NormalizeRaw);

// --------------------------- edit distance ---------------------------

void BM_EditDistanceFull(benchmark::State& state) {
  Rng rng(3);
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = random_stream(rng, n, 64);
  auto b = a;
  for (std::size_t i = 0; i < n / 20 + 1; ++i) {
    b[rng.index(n)] = 999;  // ~5% substitutions
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(dist::edit_distance(a, b));
  }
}
BENCHMARK(BM_EditDistanceFull)->Arg(256)->Arg(1024)->Arg(4096);

void BM_EditDistanceBanded(benchmark::State& state) {
  Rng rng(3);
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = random_stream(rng, n, 64);
  auto b = a;
  for (std::size_t i = 0; i < n / 20 + 1; ++i) {
    b[rng.index(n)] = 999;
  }
  const std::size_t limit = n / 10;  // the clustering threshold
  for (auto _ : state) {
    benchmark::DoNotOptimize(dist::edit_distance_bounded(a, b, limit));
  }
}
BENCHMARK(BM_EditDistanceBanded)->Arg(256)->Arg(1024)->Arg(4096);

void BM_EditDistanceBandedReject(benchmark::State& state) {
  // The common case in clustering: two unrelated streams, rejected early.
  Rng rng(4);
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = random_stream(rng, n, 8);
  const auto b = random_stream(rng, n, 8);
  const std::size_t limit = n / 10;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dist::edit_distance_bounded(a, b, limit));
  }
}
BENCHMARK(BM_EditDistanceBandedReject)->Arg(1024)->Arg(4096);

void BM_HistogramPrefilter(benchmark::State& state) {
  Rng rng(5);
  const auto a = random_stream(rng, 4096, 8);
  const auto b = random_stream(rng, 4096, 8);
  const auto ha = dist::SymbolHistogram::of(a);
  const auto hb = dist::SymbolHistogram::of(b);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dist::edit_distance_lower_bound(ha, hb, a.size(), b.size()));
  }
}
BENCHMARK(BM_HistogramPrefilter);

// ------------------------------ winnow ------------------------------

void BM_WinnowFingerprints(benchmark::State& state) {
  Rng rng(6);
  const std::string doc =
      rng.string_over("abcdefghijklmnopqrstuvwxyz(){};=.,",
                      static_cast<std::size_t>(state.range(0)));
  const winnow::Params params;
  for (auto _ : state) {
    benchmark::DoNotOptimize(winnow::FingerprintSet::of_text(doc, params));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_WinnowFingerprints)->Arg(4096)->Arg(65536);

void BM_WinnowContainment(benchmark::State& state) {
  Rng rng(7);
  const winnow::Params params;
  const auto a = winnow::FingerprintSet::of_text(
      rng.string_over("abcdefgh(){};=", 16384), params);
  const auto b = winnow::FingerprintSet::of_text(
      rng.string_over("abcdefgh(){};=", 16384), params);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.containment(b));
  }
}
BENCHMARK(BM_WinnowContainment);

// ------------------------------ dbscan ------------------------------

// One day's deduplicated stream shape shared by the clustering benches:
// N families of near-identical streams plus per-family weights.
void make_cluster_day(std::size_t families,
                      std::vector<std::vector<std::uint32_t>>& streams,
                      std::vector<std::size_t>& weights) {
  Rng rng(8);
  for (std::size_t f = 0; f < families; ++f) {
    const std::size_t len = 100 + rng.index(400);
    auto base = random_stream(rng, len, 40);
    for (int variant = 0; variant < 3; ++variant) {
      auto s = base;
      if (variant > 0) s[rng.index(s.size())] += 1000;  // tiny edit
      streams.push_back(std::move(s));
      weights.push_back(1 + rng.index(8));
    }
  }
}

// The clustering hot path in isolation: resolving every unordered pair of
// one day's streams. BM_ClusterPairwise is the neighbor-graph build
// (length window + histogram + winnow sketch + bit-parallel DP, each pair
// once); BM_ClusterPairwiseScalar replays the seed's region-query sweep
// (both orientations of every pair, scalar banded DP). items == resolved
// unordered pairs, so items_per_second is directly comparable.
void BM_ClusterPairwise(benchmark::State& state) {
  std::vector<std::vector<std::uint32_t>> streams;
  std::vector<std::size_t> weights;
  make_cluster_day(static_cast<std::size_t>(state.range(0)), streams,
                   weights);
  cluster::DbscanStats last{};
  for (auto _ : state) {
    cluster::TokenDbscan db(streams, weights, {.eps = 0.10, .min_mass = 3});
    benchmark::DoNotOptimize(db.neighbors());
    last = db.stats();
  }
  const auto n = streams.size();
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n * (n - 1) / 2));
  state.counters["pairs"] = static_cast<double>(last.pairs_considered);
  state.counters["pruned_length"] =
      static_cast<double>(last.pairs_pruned_length);
  state.counters["pruned_histogram"] =
      static_cast<double>(last.pairs_pruned_histogram);
  state.counters["pruned_sketch"] =
      static_cast<double>(last.pairs_pruned_sketch);
  state.counters["dp"] = static_cast<double>(last.dp_computations);
}
BENCHMARK(BM_ClusterPairwise)->Arg(50)->Arg(150);

void BM_ClusterPairwiseScalar(benchmark::State& state) {
  std::vector<std::vector<std::uint32_t>> streams;
  std::vector<std::size_t> weights;
  make_cluster_day(static_cast<std::size_t>(state.range(0)), streams,
                   weights);
  std::vector<dist::SymbolHistogram> hist;
  for (const auto& s : streams) hist.push_back(dist::SymbolHistogram::of(s));
  const double eps = 0.10;
  for (auto _ : state) {
    std::size_t edges = 0;
    for (std::size_t p = 0; p < streams.size(); ++p) {
      for (std::size_t q = 0; q < streams.size(); ++q) {
        if (q == p) continue;
        const std::size_t la = streams[p].size();
        const std::size_t lb = streams[q].size();
        const std::size_t longest = std::max(la, lb);
        if (longest == 0) {
          ++edges;
          continue;
        }
        const auto limit = static_cast<std::size_t>(
            eps * static_cast<double>(longest));
        const std::size_t diff = (la > lb) ? la - lb : lb - la;
        if (diff > limit) continue;
        if (dist::edit_distance_lower_bound(hist[p], hist[q], la, lb) >
            limit) {
          continue;
        }
        if (dist::edit_distance_bounded_reference(streams[p], streams[q],
                                                  limit) <= limit) {
          ++edges;
        }
      }
    }
    benchmark::DoNotOptimize(edges);
  }
  const auto n = streams.size();
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n * (n - 1) / 2));
}
BENCHMARK(BM_ClusterPairwiseScalar)->Arg(50)->Arg(150);

// Full clustering runs: graph build + DBSCAN sweep, serial and pooled.
void BM_DbscanEndToEnd(benchmark::State& state) {
  std::vector<std::vector<std::uint32_t>> streams;
  std::vector<std::size_t> weights;
  make_cluster_day(100, streams, weights);
  const auto threads = static_cast<std::size_t>(state.range(0));
  std::unique_ptr<ThreadPool> pool;
  if (threads != 1) pool = std::make_unique<ThreadPool>(threads);
  cluster::DbscanStats last{};
  for (auto _ : state) {
    cluster::TokenDbscan db(streams, weights, {.eps = 0.10, .min_mass = 3},
                            pool.get());
    benchmark::DoNotOptimize(db.run());
    last = db.stats();
  }
  state.counters["graph_seconds"] = last.graph_seconds;
  state.counters["dp"] = static_cast<double>(last.dp_computations);
  state.counters["pruned_sketch"] =
      static_cast<double>(last.pairs_pruned_sketch);
}
BENCHMARK(BM_DbscanEndToEnd)->Arg(1)->Arg(0);  // serial, hardware pool

void BM_TokenDbscanDay(benchmark::State& state) {
  // A scaled model of one day's deduplicated stream: N families of
  // near-identical streams.
  Rng rng(8);
  Interner interner;
  std::vector<std::vector<std::uint32_t>> streams;
  std::vector<std::size_t> weights;
  const auto families = static_cast<std::size_t>(state.range(0));
  for (std::size_t f = 0; f < families; ++f) {
    const std::size_t len = 100 + rng.index(400);
    auto base = random_stream(rng, len, 40);
    for (int variant = 0; variant < 3; ++variant) {
      auto s = base;
      if (variant > 0) s[rng.index(s.size())] += 1000;  // tiny edit
      streams.push_back(std::move(s));
      weights.push_back(1 + rng.index(8));
    }
  }
  for (auto _ : state) {
    cluster::TokenDbscan db(streams, weights,
                            {.eps = 0.10, .min_mass = 3});
    benchmark::DoNotOptimize(db.run());
  }
}
BENCHMARK(BM_TokenDbscanDay)->Arg(50)->Arg(150);

// ------------------------------ regex VM ------------------------------

void BM_PatternLiteralScan(benchmark::State& state) {
  Rng rng(9);
  const std::string haystack =
      rng.string_over("abcdefghijklmnop0123456789", 65536) +
      "NEEDLE-LITERAL-XYZ" + rng.string_over("abcdef", 128);
  const auto p = match::Pattern::compile("NEEDLE\\-LITERAL\\-[A-Z]{3}");
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.search(haystack));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(haystack.size()));
}
BENCHMARK(BM_PatternLiteralScan);

void BM_PatternKizzleSignature(benchmark::State& state) {
  // A Fig 9-shaped structural signature against a normalized sample.
  const auto p = match::Pattern::compile(
      R"((?<var0>[0-9a-zA-Z]{5,6})=this\[(?<var1>[0-9a-zA-Z]{3,5})\]\(.{11}\);)");
  Rng rng(10);
  const std::string text = rng.string_over("xyzw();=", 16384) +
                           "Euur1V=this[l9D](ev#333399al);" +
                           rng.string_over("xyzw();=", 1024);
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.search(text));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_PatternKizzleSignature);

void BM_PatternMiss(benchmark::State& state) {
  // Scanning benign content that does not match (the overwhelmingly common
  // case in deployment): the literal pre-filter should make this cheap.
  const auto p = match::Pattern::compile(
      R"((?<v>[0-9a-zA-Z]{4,8})=getter\(ev3fwrwg4al\);)");
  Rng rng(11);
  const std::string text = rng.string_over("abcdefgh(){};=0123", 262144);
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.search(text));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_PatternMiss);

// --------------------- multi-signature scanning ---------------------

// Whole-database scan throughput vs. signature count. The deployment
// channels scan every sample against the full signature set, so this is
// THE production hot path. BM_EngineScanManySignatures goes through the
// engine (one literal first-stage pass + tiered confirmation of the few
// candidates); BM_ScanManySignaturesBruteForce is the per-pattern search
// baseline (one search() per signature). Signature shapes mirror the
// compiler's output: long escaped literal chunks, most of which are from
// *other* samples than the one scanned — the common case in deployment.
std::vector<engine::Database::Spec> database_specs(
    std::size_t count, const std::string& scanned_sample) {
  Rng rng(14);
  std::vector<std::string> donors;
  for (int d = 0; d < 8; ++d) donors.push_back(packed_nuclear_sample(20 + d));
  std::vector<engine::Database::Spec> specs;
  for (std::size_t i = 0; i < count; ++i) {
    // ~2% of the database hits the scanned sample, the rest is drawn from
    // unrelated samples (and salted so it cannot accidentally occur).
    std::string chunk;
    if (i % 50 == 0 && scanned_sample.size() > 64) {
      chunk = scanned_sample.substr(rng.index(scanned_sample.size() - 48), 40);
    } else {
      const std::string& donor = donors[i % donors.size()];
      chunk = donor.substr(rng.index(donor.size() - 48), 40) + "#" +
              std::to_string(i);
    }
    specs.push_back(engine::Database::Spec{
        "sig" + std::to_string(i), "",
        match::Pattern::escape(chunk) + "[0-9a-zA-Z]{0,8}"});
  }
  return specs;
}

// The literal first stage in isolation: one prefilter over a deployed-set
// shaped literal database (40-byte chunks, streaming_signatures shape),
// candidates_into over one normalized sample, through the SIMD two-stage
// path (best available kernel).
void BM_TeddyPrefilter(benchmark::State& state) {
  Rng rng(16);
  std::vector<std::string> donors;
  for (int d = 0; d < 8; ++d) {
    donors.push_back(text::normalize_raw(packed_nuclear_sample(40 + d)));
  }
  match::LiteralPrefilter pf;
  const auto count = static_cast<std::size_t>(state.range(0));
  for (std::size_t i = 0; i < count; ++i) {
    const std::string& donor = donors[i % donors.size()];
    pf.add(i, donor.substr(rng.index(donor.size() - 48), 40) + "#" +
                  std::to_string(i));
  }
  pf.build();
  const std::string text = text::normalize_raw(packed_nuclear_sample(1));
  std::vector<std::size_t> out;
  for (auto _ : state) {
    pf.candidates_into(text, out);
    benchmark::DoNotOptimize(out);
  }
  state.counters["teddy"] = pf.teddy_active() ? 1 : 0;
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_TeddyPrefilter)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

// 1–2-byte literals: the length classes the pre-Fat first stage refused
// outright (its minimum literal length was 3). Sharded plans route them
// through the shift-or kernels; the 512-literal set is dense enough that
// its shards route to the dense-literal automaton instead.
void BM_TeddyPrefilterShortLiterals(benchmark::State& state) {
  constexpr std::string_view kAlpha = "abcdefghijklmnopqrstuvwxyz0123456789";
  match::LiteralPrefilter pf;
  const auto count = static_cast<std::size_t>(state.range(0));
  for (std::size_t i = 0; i < count; ++i) {
    std::string lit;
    lit.push_back(kAlpha[i % kAlpha.size()]);
    if (i % 7 != 0) lit.push_back(kAlpha[(i / kAlpha.size()) % kAlpha.size()]);
    pf.add(i, lit);
  }
  pf.build();
  const std::string text = text::normalize_raw(packed_nuclear_sample(1));
  std::vector<std::size_t> out;
  for (auto _ : state) {
    pf.candidates_into(text, out);
    benchmark::DoNotOptimize(out);
  }
  state.counters["teddy"] = pf.teddy_active() ? 1 : 0;
  state.counters["dense_shards"] =
      static_cast<double>(pf.dense_shard_count());
  state.counters["survivors"] = static_cast<double>(out.size());
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_TeddyPrefilterShortLiterals)->Arg(64)->Arg(512);

void BM_ScanManySignaturesBruteForce(benchmark::State& state) {
  const std::string text = packed_nuclear_sample(1);
  const engine::Database db = engine::Database::compile(
      database_specs(static_cast<std::size_t>(state.range(0)), text));
  for (auto _ : state) {
    for (const engine::Database::Entry& e : db.entries()) {
      benchmark::DoNotOptimize(e.pattern.search(text));
    }
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_ScanManySignaturesBruteForce)->Arg(10)->Arg(100)->Arg(1000);

// The unified engine's steady-state path in isolation: one compiled
// Database, one warm Scratch recycled across iterations (zero heap
// allocation per scan, asserted in tests/engine_test.cpp), event-driven
// all-matches delivery. Directly comparable to
// BM_ScanManySignaturesBruteForce over the same signatures.
void BM_EngineScanManySignatures(benchmark::State& state) {
  const std::string text = packed_nuclear_sample(1);
  const engine::Database db = engine::Database::compile(
      database_specs(static_cast<std::size_t>(state.range(0)), text));
  engine::Scratch scratch;
  std::size_t events = 0;
  for (auto _ : state) {
    const auto outcome = engine::scan(
        db, text, scratch,
        [](const engine::MatchEvent&) { return engine::ScanDecision::Continue; });
    events += outcome.events;
    benchmark::DoNotOptimize(events);
  }
  // Per-scan observability from the scratch: routing, selectivity, and the
  // confirmation-tier split (identical across iterations — same text).
  const engine::ScanStats& st = scratch.stats();
  state.counters["simd"] =
      st.prefilter.fallback == match::PrefilterFallback::kNone ? 1 : 0;
  state.counters["first_stage_hits"] =
      static_cast<double>(st.prefilter.first_stage_hits);
  state.counters["survivors"] =
      static_cast<double>(st.prefilter.literal_survivors);
  state.counters["candidates"] = static_cast<double>(st.candidates);
  state.counters["confirm_find"] = static_cast<double>(st.confirmed_literal);
  state.counters["confirm_program"] =
      static_cast<double>(st.confirmed_literal_dominated);
  state.counters["confirm_vm"] = static_cast<double>(st.confirmed_vm);
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(text.size()));
}

BENCHMARK(BM_EngineScanManySignatures)->Arg(10)->Arg(100)->Arg(1000)->Arg(10000);

void BM_ScanBatchParallel(benchmark::State& state) {
  // The product's batch fan-out: CdnFilter::filter normalizes and scans 64
  // packed samples against a 100-signature database across its pool of
  // range(0) threads (0 = hardware concurrency).
  std::vector<std::string> batch;
  for (int i = 0; i < 64; ++i) batch.push_back(packed_nuclear_sample(100 + i));
  const engine::Database db =
      engine::Database::compile(database_specs(100, batch[0]));
  const core::CdnFilter filter(&db, static_cast<std::size_t>(state.range(0)));
  std::int64_t bytes = 0;
  for (const auto& s : batch) bytes += static_cast<std::int64_t>(s.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter.filter(batch));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * bytes);
}
BENCHMARK(BM_ScanBatchParallel)->Arg(1)->Arg(4)->Arg(0)->UseRealTime();

// --------------------------- streaming scan ---------------------------

// The deployment channels' chunked path (BrowserGate network arrival,
// DesktopScanner block reads): fixed-size chunks are appended to the
// stream, and finish runs the one-shot scan over the accumulated text.
// BM_StreamingScan/<chunk> vs BM_StreamingScanOneShot is the cost of
// chunked intake relative to one contiguous first-match scan over the
// same 100-signature database.
std::vector<core::DeployedSignature> streaming_signatures(std::size_t count) {
  Rng rng(15);
  std::vector<std::string> donors;
  // Normalized donors: deployed signatures are compiled from (and scan)
  // normalized text, and the sigdb text format forbids tabs/newlines.
  for (int d = 0; d < 8; ++d) {
    donors.push_back(text::normalize_raw(packed_nuclear_sample(40 + d)));
  }
  std::vector<core::DeployedSignature> sigs;
  for (std::size_t i = 0; i < count; ++i) {
    const std::string& donor = donors[i % donors.size()];
    const std::string chunk =
        donor.substr(rng.index(donor.size() - 48), 40) + "#" +
        std::to_string(i);
    core::DeployedSignature s;
    s.name = "sig" + std::to_string(i);
    s.family = "bench";
    s.pattern = match::Pattern::escape(chunk) + "[0-9a-zA-Z]{0,8}";
    sigs.push_back(std::move(s));
  }
  return sigs;
}

void BM_StreamingScan(benchmark::State& state) {
  const engine::Database db =
      engine::Database::compile(streaming_signatures(100));
  const std::string text = text::normalize_raw(packed_nuclear_sample(1));
  const std::size_t chunk = static_cast<std::size_t>(state.range(0));
  engine::Scratch scratch;
  for (auto _ : state) {
    engine::Stream stream = engine::open_stream(db, scratch);
    for (std::size_t at = 0; at < text.size(); at += chunk) {
      stream.feed(std::string_view(text).substr(at, chunk));
    }
    benchmark::DoNotOptimize(stream.finish_first());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_StreamingScan)->Arg(512)->Arg(4096)->Arg(65536);

void BM_StreamingScanOneShot(benchmark::State& state) {
  const engine::Database db =
      engine::Database::compile(streaming_signatures(100));
  const std::string text = text::normalize_raw(packed_nuclear_sample(1));
  engine::Scratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine::first_match(db, text, scratch));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_StreamingScanOneShot);

// Deployment-process cold start: compile the database from in-memory
// signatures vs load it from its `.kpf` artifact. The artifact carries
// only signatures, so the rows differ by the parse and the seal check.
void BM_BundleColdStartBuild(benchmark::State& state) {
  const auto sigs = streaming_signatures(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine::Database::compile(sigs));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_BundleColdStartBuild)->Arg(100)->Arg(1000);

void BM_BundleColdStartLoad(benchmark::State& state) {
  const auto sigs = streaming_signatures(static_cast<std::size_t>(state.range(0)));
  std::stringstream blob(std::ios::in | std::ios::out | std::ios::binary);
  core::save_artifact(blob, sigs);
  const std::string artifact = blob.str();
  for (auto _ : state) {
    std::istringstream is(artifact);
    std::vector<core::DeployedSignature> loaded;
    benchmark::DoNotOptimize(engine::Database::from_artifact(is, &loaded));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_BundleColdStartLoad)->Arg(100)->Arg(1000);

// Release motion at serving scale: re-loading the whole N-signature
// artifact vs applying a small KZDELTA increment onto the live database.
// Both end in a database serving N+8 signatures; the delta row compiles
// only the 8 added patterns and shares the rest.
void BM_DeployFullReload(benchmark::State& state) {
  const auto full =
      streaming_signatures(static_cast<std::size_t>(state.range(0)) + 8);
  std::stringstream blob(std::ios::in | std::ios::out | std::ios::binary);
  core::save_artifact(blob, full);
  const std::string artifact = blob.str();
  for (auto _ : state) {
    std::istringstream is(artifact);
    benchmark::DoNotOptimize(engine::Database::from_artifact(is));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          (state.range(0) + 8));
}
BENCHMARK(BM_DeployFullReload)->Arg(1000);

void BM_DeployDeltaApply(benchmark::State& state) {
  const auto full =
      streaming_signatures(static_cast<std::size_t>(state.range(0)) + 8);
  const std::vector<core::DeployedSignature> base(
      full.begin(), full.begin() + state.range(0));
  core::DeltaArtifact delta;
  delta.base_fingerprint = core::fingerprint(base);
  delta.result_fingerprint = core::fingerprint(full);
  delta.added.assign(full.begin() + state.range(0), full.end());
  const engine::Database db = engine::Database::compile(base);
  for (auto _ : state) {
    benchmark::DoNotOptimize(db.extend(delta));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          (state.range(0) + 8));
}
BENCHMARK(BM_DeployDeltaApply)->Arg(1000);

// Prefilter derivation in isolation: the Teddy plan set (plus the
// dense-shard automaton when a shard is dense — not on this sparse set).
// A cold start is pattern compilation plus this row.
void BM_PrefilterBuild(benchmark::State& state) {
  const auto sigs = streaming_signatures(static_cast<std::size_t>(state.range(0)));
  std::vector<std::string> literals;
  for (const auto& s : sigs) {
    literals.push_back(match::Pattern::compile(s.pattern).required_literal());
  }
  for (auto _ : state) {
    match::LiteralPrefilter pf;
    for (std::size_t i = 0; i < literals.size(); ++i) pf.add(i, literals[i]);
    pf.build();
    benchmark::DoNotOptimize(pf);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_PrefilterBuild)->Arg(100)->Arg(1000);

// -------------------------- common window --------------------------

void BM_CommonWindowSearch(benchmark::State& state) {
  Rng rng(12);
  const auto shared = random_stream(rng, 600, 1000);
  std::vector<std::vector<std::uint32_t>> streams;
  for (int s = 0; s < 12; ++s) {
    auto stream = random_stream(rng, 200, 1000);
    stream.insert(stream.end(), shared.begin(), shared.end());
    auto tail = random_stream(rng, 200, 1000);
    stream.insert(stream.end(), tail.begin(), tail.end());
    streams.push_back(std::move(stream));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(sig::find_common_window(streams, 10, 200));
  }
}
BENCHMARK(BM_CommonWindowSearch);

// ------------------------------ packers ------------------------------

void BM_PackNuclear(benchmark::State& state) {
  Rng rng(13);
  kitgen::PayloadSpec spec;
  spec.family = kitgen::KitFamily::Nuclear;
  spec.cves = kitgen::kit_info(kitgen::KitFamily::Nuclear).cves;
  spec.av_check = true;
  spec.urls = {kitgen::make_landing_url(rng)};
  const std::string payload = payload_text(spec);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        pack_nuclear(payload, kitgen::NuclearPackerState{}, rng));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(payload.size()));
}
BENCHMARK(BM_PackNuclear);

}  // namespace
