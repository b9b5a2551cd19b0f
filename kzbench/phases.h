// The measurement phases every workload is built from (README.md):
//
//   compile   KizzlePipeline::process_day over kitgen days; the traced run
//             replays each day's layer calls (lex, abstraction, unpack,
//             winnow, labeling, signature compile, candidate lint) and
//             reads the clustering split from DayReport.cluster_stats.
//   serve     open-loop one-shot traffic into a 2-worker ScanServer, every
//             verdict checked against a direct engine::first_match on the
//             epoch that served it.
//   deploy    full redeploys (Database::compile -> ScanServer::deploy) and
//             KZDELTA replays; traced runs split them into pattern
//             compile, prefilter build, lint and publish.
//   scan      direct single-thread first-match passes over the traffic;
//             traced runs split each scan into the literal prefilter and
//             confirmation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "core/pipeline.h"
#include "core/sigdb.h"
#include "engine/engine.h"
#include "kitgen/kit.h"
#include "serve/server.h"

namespace kzbench {

// One request body: AV-normalized scan text and its kitgen ground truth.
struct Doc {
  std::string text;
  bool malicious = false;
};

// Workers and queue of every ScanServer the benchmark runs. The queue is
// deep enough that a host stall never sheds a request at the frozen rates.
kizzle::serve::ServerConfig server_config();

// Pipeline settings shared by every workload; threads <= nproc.
kizzle::core::PipelineConfig pipeline_config();

// A pipeline seeded with the stream's kit payloads, exactly as the
// evaluation harness seeds it (eval/experiment.cpp).
std::unique_ptr<kizzle::core::KizzlePipeline> seeded_pipeline(
    const std::vector<std::pair<kizzle::kitgen::KitFamily, std::string>>& seeds,
    std::uint64_t seed);

// ------------------------------- compile --------------------------------

// Per-layer sums over the replayed pipeline days of one run.
struct CompileLayers {
  double process_day_s = 0.0;  // summed process_day wall time
  double tokens = 0.0;
  double map_s = 0.0, reduce_s = 0.0;
  double dp_computations = 0.0;
  double pairs_considered = 0.0, pairs_pruned = 0.0;
  double unpack_layers = 0.0;
  double clusters = 0.0, labeled = 0.0;
  double issued = 0.0;
};

// Replays the public layer calls process_day made for `htmls` (traced runs
// only), adding spans text.lex / text.abstract / unpack / winnow /
// core.label / sig.compile / analyze.candidate to `trace`.
void replay_day(const kizzle::core::KizzlePipeline& pipeline,
                const std::vector<std::string>& htmls,
                const kizzle::core::DayReport& report, Trace& trace,
                CompileLayers& layers);

// Adds the compile-side per-layer metrics of a traced run.
void report_compile_layers(const CompileLayers& layers, const Trace& trace,
                           Result& result);

// -------------------------------- serve ---------------------------------

// One request. The generator writes doc, due and admitted; the completion
// callback (on a worker) writes the rest.
struct ServeRecord {
  std::uint32_t doc = 0;
  Clock::time_point due{};
  kizzle::serve::RequestStatus admitted = kizzle::serve::RequestStatus::kOk;
  Clock::time_point done{};
  kizzle::serve::RequestStatus status = kizzle::serve::RequestStatus::kOk;
  bool answered = false;
  bool matched = false;
  std::uint32_t sig_index = 0;
  std::uint64_t epoch = 0;
};

// Signature count of each epoch the server published, by epoch number.
// Epochs of one run form an append-only chain (artifact or compile, then
// KZDELTA deltas without retirements), so the newest database restricted
// to an epoch's first n entries *is* that epoch — verification needs only
// the newest database, not every 100+ MB epoch kept alive.
using EpochSizes = std::map<std::uint64_t, std::size_t>;

struct ServeLog {
  std::vector<ServeRecord> records;
  std::vector<double> late_ms;  // submit time minus due time, per request
};

// Open loop: request i is due at start + i / rate and is submitted when
// due, whatever the server is doing; `docs[order[i % order.size()]]` is
// its body. Returns after every admitted request completed.
void serve_open_loop(kizzle::serve::ScanServer& server,
                     const std::vector<Doc>& docs,
                     const std::vector<std::uint32_t>& order, double rate_hz,
                     std::size_t n, ServeLog& log);

// Counts every served request as an operation (a shed or unanswered one
// fails) and checks each verdict against a direct first-match scan of the
// epoch that served it.
void verify_served(const ServeLog& log, const std::vector<Doc>& docs,
                   const kizzle::engine::Database& newest,
                   const EpochSizes& epochs, Result& result);

// Latencies (us) from due time to completion of the answered requests.
std::vector<double> latencies_us(const ServeLog& log);


// -------------------------------- deploy --------------------------------

struct DeploySamples {
  std::vector<double> deploy_ms;  // Database::compile + ScanServer::deploy
  // Traced split of the same redeploys (ms per redeploy).
  std::vector<double> pattern_compile_ms, prefilter_build_ms, lint_ms,
      publish_ms;
};

// Full redeploys through the lint-gated ScanServer::deploy; a refused one
// is a failed operation. Traced runs split each into pattern compile,
// prefilter build and lint, and time the publish step alone on a second,
// lint-free server holding the same epochs (ScanServer::publish is
// private).
class Redeployer {
 public:
  Redeployer(kizzle::serve::ScanServer& server, bool traced);

  // Redeploys `specs` until `budget_s` is spent (at least once).
  void run(const std::vector<kizzle::engine::Database::Spec>& specs,
           double budget_s, Result& result);
  const DeploySamples& samples() const { return samples_; }

 private:
  kizzle::serve::ScanServer& server_;
  std::optional<kizzle::serve::ScanServer> publish_probe_;
  DeploySamples samples_;
};

// Heap one compiled epoch of `specs` occupies, in MB: copies are compiled
// and held until they occupy at least 64 MB (at least one), and the heap
// in use is divided by their count. Spreading the difference over many
// copies keeps allocator caches (freed chunks parked in a thread cache
// still count as in use) from moving a small epoch's figure by a quarter.
double epoch_footprint_mb(
    const std::vector<kizzle::engine::Database::Spec>& specs);

// Traced replay of one delta's stages against `base`, `reps` times:
// sigdb.delta_load_ms, analyze.lint_delta_ms, engine.extend_ms.
void replay_delta(const kizzle::engine::Database& base,
                  const std::string& delta_bytes, std::size_t reps,
                  Result& result);

std::vector<kizzle::engine::Database::Spec> specs_of(
    const std::vector<kizzle::core::DeployedSignature>& sigs);

std::string delta_bytes(const std::vector<kizzle::core::DeployedSignature>& base,
                        const std::vector<kizzle::core::DeployedSignature>& added);

// --------------------------------- scan ---------------------------------

struct ScanSamples {
  std::vector<double> mb_per_s;  // one per full pass over the traffic
  std::vector<double> doc_us;    // per-document scan time (traced)
  // Traced split, seconds per traffic byte of each pass.
  std::vector<double> prefilter_s_per_byte, confirm_s_per_byte;
  // Bytes and traced counters of one pass over the workload's traffic.
  double bytes = 0, first_stage_hits = 0, literal_survivors = 0,
         shards_scanned = 0, dense_shards = 0, candidates = 0,
         confirmed_literal = 0, confirmed_program = 0, confirmed_vm = 0,
         events = 0;
  // First-match verdict per document (sig index + 1, 0 = clean), and
  // whether every pass reached the same verdicts.
  std::vector<std::uint32_t> verdicts;
  bool stable = true;
};

// Direct single-thread first-match passes over `docs` until `budget_s` is
// spent (at least one), appended to `out`. `count` adds the first pass's
// bytes and tier counters to `out`; `out.verdicts` becomes this call's
// verdicts, and `out.stable` records whether its passes agreed.
void scan_passes(const kizzle::engine::Database& db,
                 const std::vector<Doc>& docs, double budget_s, bool traced,
                 bool count, ScanSamples& out);

// Adds the scan/serve per-layer metrics of a traced run: `latency_us` and
// `late_ms` are the served requests' latencies and generator lateness.
void report_scan_layers(const ScanSamples& scan,
                        const std::vector<double>& latency_us,
                        const std::vector<double>& late_ms,
                        const kizzle::serve::ServerStats& stats,
                        Result& result);

// Adds the redeploy split of a traced run.
void report_deploy_layers(const DeploySamples& deploys, Result& result);


// ------------------------------ end to end ------------------------------

// The end-to-end metrics (BENCHMARK.json), which every workload reports.
struct E2E {
  double compile_s = 0, scan_mb_per_s = 0, serve_p50_us = 0, deploy_ms = 0,
         delta_deploy_ms = 0, epoch_mb = 0, artifact_mb = 0, rss_peak_mb = 0,
         setup_s = 0;
};

// Served verdicts scored against kitgen ground truth: exact counts, which
// are 0 on the fleet workloads — so they are per-layer metrics
// (core.kizzle_fp / core.kizzle_fn), not end-to-end ones.
struct Score {
  double fp = 0, fn = 0;
};
void add_score(const Score& score, Result& result);

// Adds first-match verdicts (sig index + 1, 0 = clean) to `score`.
void score(const std::vector<Doc>& docs,
           const std::vector<std::uint32_t>& verdicts, Score& score);

void add_e2e(const E2E& e2e, std::vector<Result::Metric>& out);

}  // namespace kzbench
