// `fleet` and `fleet_hits`: a 10,000-signature database (the ROADMAP's
// reference scale) in front of one kitgen day of traffic.
//
//   fleet       the 10k signatures are 40-byte chunks of kit text from a
//               different stream seed, salted ("#<i>") so they never
//               match; the Kizzle signatures of one pipeline day sit on
//               top, so a malicious document gets about one match. The
//               SIMD first stage, serve dispatch and the deploy path work;
//               confirmation barely does.
//   fleet_hits  the same, except every 50th signature (2%) is an unsalted
//               chunk of that day's traffic — the hit regime of
//               BM_EngineScanManySignatures, where tiers 1–2 carry the
//               cost.
//
// A run is a sequence of rounds. Each round compiles the pipeline day once
// more (a compile_s sample), serves open-loop one-shot traffic into a
// 2-worker ScanServer while a deploy thread applies the round's KZDELTA
// delta (8 signatures, chained onto the previous round's set), then,
// quiet, redeploys that same set in full and makes direct single-thread
// scan passes. The run ends (fleet) with one
// deploy_artifact of the fleet's own `.kpf`.
#include <algorithm>
#include <numeric>
#include <sstream>
#include <thread>

#include "core/sigdb.h"
#include "kitgen/stream.h"
#include "kitgen/timeline.h"
#include "match/pattern.h"
#include "phases.h"
#include "support/rng.h"
#include "text/normalize.h"

namespace kzbench {

namespace kz = kizzle;

namespace {

constexpr std::size_t kFleetSignatures = 10000;
constexpr std::size_t kHitEvery = 50;  // fleet_hits: 2% unsalted

constexpr std::size_t kDeltaSignatures = 8;
constexpr std::size_t kSetupReps = 3;
// A run is kRounds rounds, each a serve segment (kServeShare of the run's
// seconds in total) followed by one full redeploy and direct scan passes
// (kScanShare in total), so every metric is sampled across the whole run.
constexpr std::size_t kRounds = 12;
constexpr double kServeShare = 0.4;
constexpr double kScanShare = 0.15;
constexpr int kDay = kz::kitgen::kAug1;
// Open-loop rates, frozen at about a third of the 2-worker flood capacity
// measured on the reference host (README.md).
constexpr double kFleetRateHz = 130000.0;
constexpr double kHitsRateHz = 20000.0;

struct Fleet {
  std::vector<Doc> traffic;
  std::vector<kz::core::DeployedSignature> sigs;
  // The delta chain, one per round, each onto the previous result; and the
  // signature set after each.
  std::vector<std::string> deltas;
  std::vector<std::vector<kz::engine::Database::Spec>> specs_after;
  std::shared_ptr<const kz::engine::Database> db;
  // The pipeline day the Kizzle signatures came from (traced replay), and
  // what it takes to compile that day again.
  std::unique_ptr<kz::core::KizzlePipeline> pipeline;
  std::vector<std::pair<kz::kitgen::KitFamily, std::string>> seeds;
  std::uint64_t pipeline_seed = 0;
  std::vector<std::string> htmls;
  kz::core::DayReport report;
  double process_day_s = 0.0;
};

// A 40-byte chunk of one of `texts` (each longer than 64 bytes).
std::string chunk_of(const std::vector<const std::string*>& texts,
                     kz::Rng& rng) {
  const std::string& t = *texts[rng.index(texts.size())];
  return t.substr(rng.index(t.size() - 48), 40);
}

kz::core::DeployedSignature chunk_signature(std::string name,
                                            const std::string& chunk) {
  kz::core::DeployedSignature s;
  s.name = std::move(name);
  s.family = "fleet";
  s.issued_day = kDay;
  s.pattern = kz::match::Pattern::escape(chunk) + "[0-9a-zA-Z]{0,8}";
  return s;
}

Fleet build(bool hits) {
  Fleet fleet;
  // The traffic, its Kizzle signatures and the 10k chunks are a fixed
  // corpus: verdicts, the first stage's hit regime and the artifact are
  // properties of the workload, not of the run (the run's seed orders the
  // traffic instead).
  kz::Rng corpus_rng(kz::kitgen::StreamConfig{}.seed);
  const std::uint64_t traffic_seed = kz::kitgen::StreamConfig{}.seed;
  const std::uint64_t pipeline_seed = corpus_rng.next();
  const std::uint64_t donor_seed = corpus_rng.next();

  // The traffic day, and the Kizzle signatures compiled from it.
  kz::kitgen::StreamConfig sc;
  sc.seed = traffic_seed;
  sc.start_day = kDay;
  sc.end_day = kDay;
  kz::kitgen::StreamSimulator sim(sc);
  kz::kitgen::DailyBatch batch = sim.generate_day(kDay);
  for (kz::kitgen::Sample& s : batch.samples) {
    fleet.traffic.push_back({kz::text::normalize_raw(s.html),
                             s.truth != kz::kitgen::Truth::Benign});
    fleet.htmls.push_back(std::move(s.html));
  }
  fleet.seeds = sim.seed_corpus();
  fleet.pipeline_seed = pipeline_seed;
  fleet.pipeline = seeded_pipeline(fleet.seeds, pipeline_seed);
  const Clock::time_point t = Clock::now();
  fleet.report = fleet.pipeline->process_day(kDay, fleet.htmls);
  fleet.process_day_s = seconds_since(t);

  // Donor kit text from another stream seed.
  std::vector<std::string> donor_docs;
  {
    kz::kitgen::StreamConfig dc;
    dc.seed = donor_seed;
    dc.start_day = kDay;
    dc.end_day = kDay;
    kz::kitgen::StreamSimulator donor(dc);
    for (const kz::kitgen::Sample& s : donor.generate_day(kDay).samples) {
      if (s.truth == kz::kitgen::Truth::Benign) continue;
      donor_docs.push_back(kz::text::normalize_raw(s.html));
    }
  }
  std::vector<const std::string*> donors, hit_sources;
  for (const std::string& d : donor_docs) {
    if (d.size() > 64) donors.push_back(&d);
  }
  for (const Doc& d : fleet.traffic) {
    if (d.text.size() > 64) hit_sources.push_back(&d.text);
  }

  for (std::size_t i = 0; i < kFleetSignatures; ++i) {
    const bool hit = hits && i % kHitEvery == 0;
    const std::string chunk =
        hit ? chunk_of(hit_sources, corpus_rng)
            : chunk_of(donors, corpus_rng) + "#" + std::to_string(i);
    fleet.sigs.push_back(chunk_signature("fleet." + std::to_string(i), chunk));
  }
  const auto& kizzle_sigs = fleet.pipeline->signatures();
  fleet.sigs.insert(fleet.sigs.end(), kizzle_sigs.begin(), kizzle_sigs.end());

  // The delta chain: day-sized increments of salted signatures.
  std::vector<kz::core::DeployedSignature> current = fleet.sigs;
  for (std::size_t k = 0; k < kRounds; ++k) {
    std::vector<kz::core::DeployedSignature> added;
    for (std::size_t j = 0; j < kDeltaSignatures; ++j) {
      const std::string salt = "#d" + std::to_string(k) + "." + std::to_string(j);
      added.push_back(chunk_signature(
          "delta." + std::to_string(k) + "." + std::to_string(j),
          chunk_of(donors, corpus_rng) + salt));
    }
    fleet.deltas.push_back(delta_bytes(current, added));
    current.insert(current.end(), added.begin(), added.end());
    fleet.specs_after.push_back(specs_of(current));
  }
  fleet.db = std::make_shared<const kz::engine::Database>(
      kz::engine::Database::compile(fleet.sigs));
  return fleet;
}

}  // namespace

Result run_fleet(const Options& opt, bool hits) {
  Result result;
  E2E e2e;
  Score verdicts_score;
  kz::Rng rng(opt.seed ^ (hits ? 0x68697473ull : 0x666C656574ull));

  // Set-up: traffic, pipeline day, 10k signatures, delta chain, compiled
  // database — built several times for a median.
  Fleet fleet;
  std::vector<double> setup_s, process_day_s;
  for (std::size_t r = 0; r < kSetupReps; ++r) {
    fleet = Fleet{};  // release the previous build before timing the next
    const Clock::time_point t = Clock::now();
    fleet = build(hits);
    setup_s.push_back(seconds_since(t));
    process_day_s.push_back(fleet.process_day_s);
  }
  e2e.setup_s = median(setup_s);

  // ---- Rounds: serve with a delta alongside, then quiet work. ----
  const double rate = hits ? kHitsRateHz : kFleetRateHz;
  const double serve_s = kServeShare * opt.seconds / kRounds;
  const double scan_s = kScanShare * opt.seconds / kRounds;
  kz::serve::ScanServer server(fleet.db, server_config());
  Redeployer redeployer(server, opt.trace);
  EpochSizes epochs{{server.epoch(), fleet.db->size()}};
  ScanSamples scan;
  std::vector<double> delta_ms, latency_us, late_ms;
  std::size_t requests = 0;
  for (std::size_t r = 0; r < kRounds; ++r) {
    {
      // One more compile sample: the pipeline day on a fresh pipeline.
      auto pipeline = seeded_pipeline(fleet.seeds, fleet.pipeline_seed);
      const Clock::time_point t = Clock::now();
      pipeline->process_day(kDay, fleet.htmls);
      process_day_s.push_back(seconds_since(t));
    }

    // Open-loop traffic; halfway through, the deploy thread applies the
    // round's delta (writes alongside reads).
    std::vector<std::uint32_t> order(fleet.traffic.size());
    std::iota(order.begin(), order.end(), 0u);
    rng.shuffle(order);
    kz::serve::ScanServer::SwapResult swap;
    const Clock::time_point start = Clock::now();
    // A jthread joins on every path out of this scope.
    std::jthread deployer([&] {
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(serve_s / 2)));
      std::istringstream in(fleet.deltas[r]);
      const Clock::time_point t = Clock::now();
      swap = server.deploy_delta(in);
      delta_ms.push_back(1e3 * seconds_since(t));
    });
    ServeLog log;
    serve_open_loop(server, fleet.traffic, order, rate,
                    static_cast<std::size_t>(rate * serve_s), log);
    deployer.join();
    const std::size_t size = fleet.specs_after[r].size();
    result.op(swap.accepted, "delta deploy refused");
    if (swap.accepted) epochs[swap.epoch] = size;
    const auto newest = server.database();
    result.check(newest->size() == size, "delta chain lost signatures");
    verify_served(log, fleet.traffic, *newest, epochs, result);
    const std::vector<double> lat = latencies_us(log);
    latency_us.insert(latency_us.end(), lat.begin(), lat.end());
    late_ms.insert(late_ms.end(), log.late_ms.begin(), log.late_ms.end());
    requests += log.records.size();

    // Quiet: a full redeploy of the same set (the next delta's base),
    // then direct scans.
    redeployer.run(fleet.specs_after[r], 0.0, result);
    epochs[server.epoch()] = size;
    scan_passes(*server.database(), fleet.traffic, scan_s, opt.trace, r == 0,
                scan);
    result.check(scan.stable, "direct scan passes disagree");
  }
  e2e.compile_s = median(process_day_s);
  e2e.serve_p50_us = median(latency_us);
  e2e.delta_deploy_ms = median(delta_ms);
  e2e.deploy_ms = median(redeployer.samples().deploy_ms);
  e2e.scan_mb_per_s = median(scan.mb_per_s);
  score(fleet.traffic, scan.verdicts, verdicts_score);
  e2e.epoch_mb = epoch_footprint_mb(fleet.specs_after.back());

  std::string artifact;
  double save_ms = 0.0;
  {
    std::ostringstream os;
    const Clock::time_point t = Clock::now();
    kz::core::save_artifact(os, fleet.sigs, &fleet.db->prefilter());
    save_ms = 1e3 * seconds_since(t);
    artifact = os.str();
  }
  e2e.artifact_mb = static_cast<double>(artifact.size()) / (1 << 20);
  if (!hits) {
    // Known defect, recorded rather than dodged: at this scale load_artifact
    // refuses the prefilter tables (kMaxTableElems in match/prefilter.cpp).
    // The refusal is typed and counts as a failed operation.
    std::istringstream in(artifact);
    const auto swap = server.deploy_artifact(in);
    result.op(swap.accepted, "deploy_artifact of the fleet .kpf refused");
    if (swap.accepted) {
      result.check(server.database()->size() == fleet.sigs.size(),
                   "artifact epoch lost signatures");
    } else {
      result.notes.push_back("deploy_artifact refused: " + swap.reason);
    }
  }
  e2e.rss_peak_mb = peak_rss_mb();

  result.notes.push_back("signatures=" + std::to_string(fleet.sigs.size()) +
                         " docs=" + std::to_string(fleet.traffic.size()) +
                         " requests=" + std::to_string(requests));
  if (!opt.trace) {
    add_e2e(e2e, result.metrics);
    return result;
  }
  add_e2e(e2e, result.traced_e2e);
  // The compile layers of the fleet's one pipeline day, replayed.
  Trace trace(true);
  CompileLayers layers;
  layers.process_day_s = fleet.process_day_s;
  replay_day(*fleet.pipeline, fleet.htmls, fleet.report, trace, layers);
  report_compile_layers(layers, trace, result);
  report_scan_layers(scan, latency_us, late_ms, server.stats(), result);
  report_deploy_layers(redeployer.samples(), result);
  add_score(verdicts_score, result);
  replay_delta(*fleet.db, fleet.deltas.front(), 3, result);
  result.add("sigdb.save_artifact_ms", save_ms, "ms");
  return result;
}

}  // namespace kzbench
