// `month`: the paper's own loop (§IV). The Aug 1–31 kitgen stream plus one
// warm-up day runs through KizzlePipeline::process_day, and every day is
// released through the production path: day 0 as a `.kpf` artifact into a
// ScanServer (deploy_artifact), each later day as a KZDELTA delta
// (export_delta -> deploy_delta), after which that day's traffic is served
// open-loop and every served verdict is checked against
// KizzlePipeline::scan_as_of(text, day, true).
#include <algorithm>
#include <numeric>
#include <sstream>

#include "eval/experiment.h"
#include "kitgen/stream.h"
#include "kitgen/timeline.h"
#include "phases.h"
#include "support/rng.h"
#include "text/normalize.h"

namespace kzbench {

namespace kz = kizzle;

namespace {

// Open-loop rate, frozen at about a third of the 2-worker flood capacity
// measured on the reference host (README.md).
constexpr double kRateHz = 60000.0;
constexpr int kFirstDay = kz::kitgen::kAug1 - 1;  // one warm-up day
constexpr int kLastDay = kz::kitgen::kAug31;
constexpr std::size_t kSetupReps = 5;
constexpr std::size_t kDeltaReplays = 10;
// Per day: full redeploys, then direct scan passes over the day's traffic.
constexpr double kRedeployBudgetS = 0.04;
constexpr double kScanBudgetS = 0.1;

struct Day {
  int day = 0;
  std::vector<std::string> htmls;
  std::vector<Doc> docs;
};

struct Month {
  std::vector<Day> days;
  std::vector<std::pair<kz::kitgen::KitFamily, std::string>> seeds;
};

Month generate(std::uint64_t seed) {
  kz::kitgen::StreamConfig sc;
  sc.seed = seed;
  sc.start_day = kFirstDay;
  sc.end_day = kLastDay;
  kz::kitgen::StreamSimulator sim(sc);
  Month month;
  month.seeds = sim.seed_corpus();
  for (int d = kFirstDay; d <= kLastDay; ++d) {
    kz::kitgen::DailyBatch batch = sim.generate_day(d);
    Day day;
    day.day = d;
    for (kz::kitgen::Sample& s : batch.samples) {
      day.docs.push_back({kz::text::normalize_raw(s.html),
                          s.truth != kz::kitgen::Truth::Benign});
      day.htmls.push_back(std::move(s.html));
    }
    month.days.push_back(std::move(day));
  }
  return month;
}

}  // namespace

Result run_month(const Options& opt) {
  Result result;
  Trace trace(opt.trace);
  E2E e2e;
  Score verdicts_score;
  // The month is the paper's: kitgen's default stream and the evaluation
  // harness's pipeline seed (eval/experiment.cpp), so its signatures and
  // FP/FN counts are exact and comparable across runs. The run's seed
  // drives the serving order.
  const std::uint64_t stream_seed = kz::kitgen::StreamConfig{}.seed;
  const std::uint64_t pipeline_seed =
      kz::Rng(kz::eval::ExperimentConfig{}.seed).fork().next();
  kz::Rng rng(opt.seed ^ 0x6D6F6E7468ull);

  // Set-up: the month's traffic (HTML for the compiler, normalized scan
  // text for the server), generated several times for a median.
  Month month;
  std::vector<double> setup_s;
  for (std::size_t r = 0; r < kSetupReps; ++r) {
    const Clock::time_point t = Clock::now();
    month = generate(stream_seed);
    setup_s.push_back(seconds_since(t));
  }
  e2e.setup_s = median(setup_s);

  auto pipeline = seeded_pipeline(month.seeds, pipeline_seed);
  kz::serve::ScanServer server(std::make_shared<const kz::engine::Database>(),
                               server_config());
  Redeployer redeployer(server, opt.trace);
  EpochSizes epochs{{server.epoch(), 0}};
  CompileLayers layers;
  ScanSamples scan;
  std::vector<double> delta_ms, latency_us, late_ms;
  ServeLog log;
  for (const Day& day : month.days) {
    const Clock::time_point t = Clock::now();
    const kz::core::DayReport report =
        pipeline->process_day(day.day, day.htmls);
    layers.process_day_s += seconds_since(t);
    if (trace.enabled()) replay_day(*pipeline, day.htmls, report, trace, layers);

    // Release the day through the production path.
    const auto previous_db = server.database();
    std::ostringstream release;
    kz::serve::ScanServer::SwapResult swap;
    if (day.day == kFirstDay) {
      pipeline->export_artifact(release);
      std::istringstream in(release.str());
      swap = server.deploy_artifact(in);
    } else {
      pipeline->export_delta(release, day.day - 1);
      const std::string delta = release.str();
      // The release itself, then kDeltaReplays re-releases of the same
      // delta onto the restored previous epoch: a daily delta takes well
      // under a millisecond, too short to time once.
      for (std::size_t k = 0; k <= kDeltaReplays; ++k) {
        if (k > 0) {
          result.op(server.deploy(previous_db).accepted,
                    "restoring the previous epoch refused");
        }
        std::istringstream in(delta);
        const Clock::time_point td = Clock::now();
        swap = server.deploy_delta(in);
        delta_ms.push_back(1e3 * seconds_since(td));
        if (k < kDeltaReplays) {
          result.op(swap.accepted, "daily delta re-release refused");
        }
      }
    }
    result.op(swap.accepted, "daily release refused");
    const auto served_db = server.database();
    epochs[server.epoch()] = served_db->size();
    result.check(served_db->size() == pipeline->signatures().size(),
                 "served epoch does not hold the pipeline's signature set");

    // Serve the day's traffic, once per document in a seeded order.
    std::vector<std::uint32_t> order(day.docs.size());
    std::iota(order.begin(), order.end(), 0u);
    rng.shuffle(order);
    serve_open_loop(server, day.docs, order, kRateHz, order.size(), log);
    verify_served(log, day.docs, *served_db, epochs, result);
    const std::vector<double> lat = latencies_us(log);
    latency_us.insert(latency_us.end(), lat.begin(), lat.end());
    late_ms.insert(late_ms.end(), log.late_ms.begin(), log.late_ms.end());

    // The month's own oracle, and the score against kitgen ground truth.
    std::vector<std::uint32_t> verdicts(day.docs.size(), 0);
    for (const ServeRecord& rec : log.records) {
      verdicts[rec.doc] = rec.matched ? rec.sig_index + 1 : 0;
      const auto oracle =
          pipeline->scan_as_of(day.docs[rec.doc].text, day.day, true);
      result.check(verdicts[rec.doc] == (oracle ? *oracle + 1 : 0),
                   "served verdict differs from scan_as_of");
    }
    if (day.day >= kz::kitgen::kAug1) score(day.docs, verdicts, verdicts_score);

    // Full redeploys of the day's set, then direct scans of the day's
    // traffic on the redeployed epoch (same signatures, so the next
    // day's delta still finds its base).
    redeployer.run(specs_of(pipeline->signatures()), kRedeployBudgetS, result);
    scan_passes(*server.database(), day.docs, kScanBudgetS, opt.trace, true,
                scan);
    result.check(scan.stable && scan.verdicts == verdicts,
                 "direct scan verdicts differ from served verdicts");
  }
  e2e.compile_s = layers.process_day_s;
  e2e.serve_p50_us = median(latency_us);
  e2e.delta_deploy_ms = median(delta_ms);
  e2e.deploy_ms = median(redeployer.samples().deploy_ms);
  e2e.scan_mb_per_s = median(scan.mb_per_s);

  const std::vector<kz::core::DeployedSignature>& sigs = pipeline->signatures();
  e2e.epoch_mb = epoch_footprint_mb(specs_of(sigs));
  std::vector<double> save_ms;
  std::string artifact;
  for (int r = 0; r < 5; ++r) {
    std::ostringstream os;
    const Clock::time_point t = Clock::now();
    pipeline->export_artifact(os);
    save_ms.push_back(1e3 * seconds_since(t));
    artifact = os.str();
  }
  e2e.artifact_mb = static_cast<double>(artifact.size()) / (1 << 20);
  e2e.rss_peak_mb = peak_rss_mb();

  result.notes.push_back("signatures=" + std::to_string(sigs.size()) +
                         " docs=" + std::to_string(latency_us.size()));
  if (!opt.trace) {
    add_e2e(e2e, result.metrics);
    return result;
  }
  add_e2e(e2e, result.traced_e2e);
  report_compile_layers(layers, trace, result);
  report_scan_layers(scan, latency_us, late_ms, server.stats(), result);
  report_deploy_layers(redeployer.samples(), result);
  add_score(verdicts_score, result);
  // A representative delta: the last issued signatures onto the rest.
  const std::size_t added = std::min<std::size_t>(8, sigs.size() / 2);
  const std::vector<kz::core::DeployedSignature> base(sigs.begin(),
                                                      sigs.end() - added);
  replay_delta(kz::engine::Database::compile(base),
               delta_bytes(base, {sigs.end() - added, sigs.end()}), 20,
               result);
  result.add("sigdb.save_artifact_ms", median(save_ms), "ms");
  return result;
}

}  // namespace kzbench
