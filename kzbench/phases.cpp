#include "phases.h"

#include <algorithm>
#include <optional>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "analyze/analyze.h"
#include "eval/experiment.h"
#include "match/pattern.h"
#include "sig/compiler.h"
#include "support/interner.h"
#include "text/abstraction.h"
#include "text/html.h"
#include "text/lexer.h"
#include "text/normalize.h"
#include "unpack/unpackers.h"
#include "winnow/winnow.h"

namespace kzbench {

namespace kz = kizzle;

kz::serve::ServerConfig server_config() {
  kz::serve::ServerConfig cfg;
  cfg.workers = 2;
  cfg.queue_capacity = 1 << 16;
  return cfg;
}

kz::core::PipelineConfig pipeline_config() {
  kz::core::PipelineConfig cfg;
  cfg.threads = std::clamp<std::size_t>(std::thread::hardware_concurrency(),
                                        1, 4);
  return cfg;
}

std::unique_ptr<kz::core::KizzlePipeline> seeded_pipeline(
    const std::vector<std::pair<kz::kitgen::KitFamily, std::string>>& seeds,
    std::uint64_t seed) {
  auto pipeline =
      std::make_unique<kz::core::KizzlePipeline>(pipeline_config(), seed);
  const kz::eval::ExperimentConfig defaults;
  for (const auto& [family, payload] : seeds) {
    pipeline->seed_family(std::string(kz::kitgen::family_name(family)),
                          kz::eval::family_threshold(defaults, family),
                          payload);
  }
  return pipeline;
}

// ------------------------------- compile --------------------------------

void replay_day(const kz::core::KizzlePipeline& pipeline,
                const std::vector<std::string>& htmls,
                const kz::core::DayReport& report, Trace& trace,
                CompileLayers& layers) {
  const kz::core::PipelineConfig cfg = pipeline_config();
  std::vector<std::vector<kz::text::Token>> tokens(htmls.size());
  {
    Scoped span(trace, "text.lex");
    for (std::size_t i = 0; i < htmls.size(); ++i) {
      const std::string script = kz::text::inline_script_text(htmls[i]);
      tokens[i] = kz::text::lex(script, kz::text::LexOptions{.tolerant = true});
      layers.tokens += static_cast<double>(tokens[i].size());
    }
  }
  {
    Scoped span(trace, "text.abstract");
    kz::Interner interner;
    for (const auto& t : tokens) {
      (void)kz::text::abstract_tokens(t, cfg.abstraction, interner);
    }
  }
  const auto& cs = report.cluster_stats;
  layers.map_s += cs.map_seconds;
  layers.reduce_s += cs.reduce_seconds;
  layers.dp_computations +=
      static_cast<double>(cs.map.dp_computations + cs.reduce.dp_computations);
  layers.pairs_considered +=
      static_cast<double>(cs.map.pairs_considered + cs.reduce.pairs_considered);
  layers.pairs_pruned += static_cast<double>(
      cs.map.pairs_pruned_length + cs.map.pairs_pruned_histogram +
      cs.map.pairs_pruned_sketch + cs.reduce.pairs_pruned_length +
      cs.reduce.pairs_pruned_histogram + cs.reduce.pairs_pruned_sketch);

  for (const kz::core::ClusterReport& cr : report.clusters) {
    layers.clusters += 1;
    if (cr.samples.empty()) continue;
    // The pipeline unpacks the medoid's first sample; the report does not
    // name the medoid, so the replay unpacks the cluster's first sample —
    // same family, same packer, comparable cost.
    const std::string script =
        kz::text::inline_script_text(htmls[cr.samples.front()]);
    std::optional<kz::unpack::UnpackResult> unpacked;
    {
      Scoped span(trace, "unpack");
      unpacked = kz::unpack::unpack_fixpoint(
          script, kz::core::unpack_limits_of(cfg.scan_limits, script.size()));
    }
    if (unpacked) layers.unpack_layers += unpacked->layers;
    std::optional<kz::winnow::FingerprintSet> fps;
    {
      Scoped span(trace, "winnow");
      (void)kz::text::normalize_js(unpacked && !unpacked->text.empty()
                                       ? std::string_view(unpacked->text)
                                       : std::string_view(script));
      fps = kz::winnow::FingerprintSet::of_text(cr.prototype_text, cfg.winnow);
    }
    {
      Scoped span(trace, "core.label");
      (void)pipeline.corpus().label(*fps);
    }
    if (cr.label.empty()) continue;
    layers.labeled += 1;
    // Clusters whose coverage fell under the threshold went on to the
    // signature compiler (and, when it succeeded, the candidate lint).
    if (cr.coverage < 0.0 || cr.coverage >= cfg.coverage_threshold) continue;
    std::vector<std::vector<kz::text::Token>> sample_tokens;
    const std::size_t n =
        std::min(cr.samples.size(), cfg.max_signature_samples);
    for (std::size_t i = 0; i < n; ++i) {
      sample_tokens.push_back(tokens[cr.samples[i]]);
    }
    kz::sig::Signature signature;
    {
      Scoped span(trace, "sig.compile");
      signature = kz::sig::compile_signature(sample_tokens, cfg.signature);
    }
    if (!signature.ok) continue;
    if (cr.issued_signature) layers.issued += 1;
    const kz::match::Pattern compiled =
        kz::match::Pattern::compile(signature.pattern);
    Scoped span(trace, "analyze.candidate");
    (void)kz::analyze::analyze_candidate(pipeline.database(), "replay",
                                         compiled);
  }
}

void report_compile_layers(const CompileLayers& layers, const Trace& trace,
                           Result& result) {
  const auto share = [](double part, double whole) {
    return whole > 0.0 ? part / whole : 0.0;
  };
  result.add("text.lex_s", trace.total("text.lex"), "s");
  result.add("text.abstract_s", trace.total("text.abstract"), "s");
  result.add("text.tokens", layers.tokens, "count");
  result.add("cluster.map_s", layers.map_s, "s");
  result.add("cluster.reduce_s", layers.reduce_s, "s");
  result.add("cluster.dp_computations", layers.dp_computations, "count");
  result.add("cluster.pruned_share",
             share(layers.pairs_pruned, layers.pairs_considered), "ratio");
  result.add("unpack.s", trace.total("unpack"), "s");
  result.add("unpack.layers", layers.unpack_layers, "count");
  result.add("winnow.s", trace.total("winnow"), "s");
  result.add("core.label_s", trace.total("core.label"), "s");
  result.add("core.labeled_share", share(layers.labeled, layers.clusters),
             "ratio");
  result.add("sig.compile_s", trace.total("sig.compile"), "s");
  result.add("sig.issued", layers.issued, "count");
  result.add("analyze.candidate_s", trace.total("analyze.candidate"), "s");
  double replayed = layers.map_s + layers.reduce_s;
  for (const char* name : {"text.lex", "text.abstract", "unpack", "winnow",
                           "core.label", "sig.compile", "analyze.candidate"}) {
    replayed += trace.total(name);
  }
  result.add("core.replay_coverage", share(replayed, layers.process_day_s),
             "ratio");
  result.add("core.unattributed_s", layers.process_day_s - replayed, "s");
}

// -------------------------------- serve ---------------------------------

void serve_open_loop(kz::serve::ScanServer& server, const std::vector<Doc>& docs,
                     const std::vector<std::uint32_t>& order, double rate_hz,
                     std::size_t n, ServeLog& log) {
  log.records.assign(n, ServeRecord{});
  log.late_ms.assign(n, 0.0);
  const double period_ns = 1e9 / rate_hz;
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(1);
  for (std::size_t i = 0; i < n; ++i) {
    ServeRecord& rec = log.records[i];
    rec.doc = order[i % order.size()];
    rec.due = start + std::chrono::nanoseconds(static_cast<std::int64_t>(
                          period_ns * static_cast<double>(i)));
    Clock::time_point now = Clock::now();
    if (rec.due - now > std::chrono::microseconds(200)) {
      std::this_thread::sleep_until(rec.due - std::chrono::microseconds(100));
    }
    // Spin, not yield: a yielding generator lets stalls pile up behind it.
    while ((now = Clock::now()) < rec.due) {
    }
    log.late_ms[i] = std::chrono::duration<double, std::milli>(now - rec.due)
                         .count();
    ServeRecord* out = &rec;
    rec.admitted = server.submit(docs[rec.doc].text,
                               [out](kz::serve::ScanResponse response) {
                                 out->done = Clock::now();
                                 out->status = response.status;
                                 out->matched = response.matched;
                                 out->sig_index = static_cast<std::uint32_t>(
                                     response.sig_index);
                                 out->epoch = response.epoch;
                                 out->answered = true;
                               });
  }
  server.drain();
}

namespace {

// First-match verdict (sig index + 1, 0 = clean) over the first `limit`
// entries of `db`: the verdict the epoch holding exactly those entries
// gives, because delta chains only append.
std::uint32_t prefix_verdict(const kz::engine::Database& db,
                             std::string_view text, std::size_t limit,
                             kz::engine::Scratch& scratch) {
  std::uint32_t verdict = 0;
  kz::engine::scan(
      db, text, scratch, [limit](std::size_t i) { return i < limit; },
      [&verdict](const kz::engine::MatchEvent& e) {
        verdict = static_cast<std::uint32_t>(e.sig_index + 1);
        return kz::engine::ScanDecision::Stop;
      });
  return verdict;
}

}  // namespace

void verify_served(const ServeLog& log, const std::vector<Doc>& docs,
                   const kz::engine::Database& newest,
                   const EpochSizes& epochs, Result& result) {
  kz::engine::Scratch scratch;
  std::unordered_map<std::uint64_t, std::uint32_t> cache;
  for (const ServeRecord& rec : log.records) {
    const bool ok = rec.admitted == kz::serve::RequestStatus::kOk &&
                    rec.answered &&
                    rec.status == kz::serve::RequestStatus::kOk;
    result.op(ok, "served request shed or unanswered");
    if (!ok) continue;
    const auto epoch = epochs.find(rec.epoch);
    if (epoch == epochs.end() || epoch->second > newest.size()) {
      result.check(false, "request served by an unrecorded epoch");
      continue;
    }
    const std::uint64_t key = (rec.epoch << 32) | rec.doc;
    auto it = cache.find(key);
    if (it == cache.end()) {
      it = cache
               .emplace(key, prefix_verdict(newest, docs[rec.doc].text,
                                            epoch->second, scratch))
               .first;
    }
    const std::uint32_t served = rec.matched ? rec.sig_index + 1 : 0;
    result.check(served == it->second,
                 "served verdict differs from direct first_match");
  }
}

std::vector<double> latencies_us(const ServeLog& log) {
  std::vector<double> out;
  out.reserve(log.records.size());
  for (const ServeRecord& rec : log.records) {
    if (!rec.answered) continue;
    out.push_back(
        std::chrono::duration<double, std::micro>(rec.done - rec.due).count());
  }
  return out;
}

// -------------------------------- deploy --------------------------------

std::vector<kz::engine::Database::Spec> specs_of(
    const std::vector<kz::core::DeployedSignature>& sigs) {
  std::vector<kz::engine::Database::Spec> specs;
  specs.reserve(sigs.size());
  for (const auto& s : sigs) specs.push_back({s.name, s.family, s.pattern});
  return specs;
}

std::string delta_bytes(const std::vector<kz::core::DeployedSignature>& base,
                        const std::vector<kz::core::DeployedSignature>& added) {
  kz::core::DeltaArtifact delta;
  delta.base_fingerprint = kz::core::fingerprint(base);
  std::vector<kz::core::DeployedSignature> result = base;
  result.insert(result.end(), added.begin(), added.end());
  delta.result_fingerprint = kz::core::fingerprint(result);
  delta.added = added;
  std::ostringstream os;
  kz::core::save_delta(os, delta);
  return os.str();
}

Redeployer::Redeployer(kz::serve::ScanServer& server, bool traced)
    : server_(server) {
  if (!traced) return;
  kz::serve::ServerConfig cfg = server_config();
  cfg.workers = 1;
  cfg.lint_on_swap = false;
  publish_probe_.emplace(server.database(), cfg);
}

void Redeployer::run(const std::vector<kz::engine::Database::Spec>& specs,
                     double budget_s, Result& result) {
  constexpr std::size_t kMaxReps = 100;
  const bool traced = publish_probe_.has_value();
  DeploySamples& out = samples_;
  const Clock::time_point t0 = Clock::now();
  for (std::size_t rep = 0; rep < kMaxReps; ++rep) {
    if (rep > 0 && seconds_since(t0) >= budget_s) break;
    const Clock::time_point tc = Clock::now();
    kz::engine::Database db;
    if (traced) {
      // Database::compile, split at its layer boundary.
      std::vector<kz::engine::Database::Entry> entries;
      entries.reserve(specs.size());
      {
        const Clock::time_point t = Clock::now();
        for (const auto& s : specs) {
          entries.push_back(
              {s.name, s.family, kz::match::Pattern::compile(s.pattern)});
        }
        out.pattern_compile_ms.push_back(1e3 * seconds_since(t));
      }
      kz::match::LiteralPrefilter prefilter;
      {
        const Clock::time_point t = Clock::now();
        for (std::size_t i = 0; i < entries.size(); ++i) {
          prefilter.add(i, entries[i].pattern.required_literal());
        }
        prefilter.build();
        out.prefilter_build_ms.push_back(1e3 * seconds_since(t));
      }
      db = kz::engine::Database::from_entries(std::move(entries),
                                              std::move(prefilter));
    } else {
      db = kz::engine::Database::compile(specs);
    }
    const double compile_ms = 1e3 * seconds_since(tc);
    auto shared = std::make_shared<const kz::engine::Database>(std::move(db));
    if (traced) {
      const Clock::time_point t = Clock::now();
      (void)kz::analyze::analyze_database(*shared);
      out.lint_ms.push_back(1e3 * seconds_since(t));
    }
    const Clock::time_point td = Clock::now();
    const auto swap = server_.deploy(shared);
    out.deploy_ms.push_back(compile_ms + 1e3 * seconds_since(td));
    result.op(swap.accepted, "full redeploy refused");
    if (traced) {
      const Clock::time_point t = Clock::now();
      (void)publish_probe_->deploy(std::move(shared));
      out.publish_ms.push_back(1e3 * seconds_since(t));
    }
  }
}

double epoch_footprint_mb(
    const std::vector<kz::engine::Database::Spec>& specs) {
  constexpr double kTargetMb = 64.0;
  constexpr std::size_t kMaxCopies = 256;
  std::vector<kz::engine::Database> held;
  held.reserve(kMaxCopies);
  const double heap0 = heap_in_use_mb();
  do {
    held.push_back(kz::engine::Database::compile(specs));
  } while (heap_in_use_mb() - heap0 < kTargetMb && held.size() < kMaxCopies);
  return (heap_in_use_mb() - heap0) / static_cast<double>(held.size());
}

void replay_delta(const kz::engine::Database& base,
                  const std::string& bytes, std::size_t reps,
                  Result& result) {
  std::vector<double> load_ms, lint_ms, extend_ms;
  for (std::size_t r = 0; r < reps; ++r) {
    Clock::time_point t = Clock::now();
    std::istringstream is(bytes);
    const kz::core::DeltaArtifact delta = kz::core::load_delta(is);
    load_ms.push_back(1e3 * seconds_since(t));
    t = Clock::now();
    const auto report = kz::analyze::analyze_delta(base, delta);
    lint_ms.push_back(1e3 * seconds_since(t));
    result.check(report.clean(), "delta replay does not lint clean");
    t = Clock::now();
    const kz::engine::Database extended = base.extend(delta);
    extend_ms.push_back(1e3 * seconds_since(t));
  }
  result.add("sigdb.delta_load_ms", median(load_ms), "ms");
  result.add("analyze.lint_delta_ms", median(lint_ms), "ms");
  result.add("engine.extend_ms", median(extend_ms), "ms");
}

// --------------------------------- scan ---------------------------------

void scan_passes(const kz::engine::Database& db, const std::vector<Doc>& docs,
                 double budget_s, bool traced, bool count, ScanSamples& out) {
  constexpr std::size_t kMaxPasses = 1000;
  double bytes = 0.0;
  for (const Doc& d : docs) bytes += static_cast<double>(d.text.size());
  if (count) out.bytes += bytes;
  kz::engine::Scratch scratch;
  std::vector<std::size_t> candidates;
  kz::match::teddy::HitBuffer hits;
  std::vector<std::uint32_t> hints;
  std::vector<std::uint32_t> verdicts(docs.size(), 0);
  const Clock::time_point t0 = Clock::now();
  for (std::size_t pass = 0; pass < kMaxPasses; ++pass) {
    if (pass > 0 && seconds_since(t0) >= budget_s) break;
    const bool counted = count && pass == 0;
    double prefilter_s = 0.0, confirm_s = 0.0;
    const Clock::time_point tp = Clock::now();
    for (std::size_t i = 0; i < docs.size(); ++i) {
      const std::string_view text = docs[i].text;
      std::uint32_t verdict = 0;
      if (!traced) {
        const auto hit = kz::engine::first_match(db, text, scratch);
        if (hit) verdict = static_cast<std::uint32_t>(hit->sig_index + 1);
      } else {
        // engine::scan split at its layer boundary: the literal prefilter,
        // then confirmation of its candidates. (The public confirm takes no
        // anchor hints, so tier 3 re-finds literals the fused path seeds.)
        const Clock::time_point ta = Clock::now();
        kz::match::PrefilterStats ps;
        db.prefilter().candidates_into(text, candidates, hits, &ps, &hints);
        const Clock::time_point tb = Clock::now();
        const auto outcome = kz::engine::confirm(
            db, candidates, text, scratch,
            [&verdict](const kz::engine::MatchEvent& e) {
              verdict = static_cast<std::uint32_t>(e.sig_index + 1);
              return kz::engine::ScanDecision::Stop;
            });
        const Clock::time_point tc = Clock::now();
        prefilter_s += seconds_between(ta, tb);
        confirm_s += seconds_between(tb, tc);
        out.doc_us.push_back(1e6 * seconds_between(ta, tc));
        if (counted) {
          const kz::engine::ScanStats& st = scratch.stats();
          out.first_stage_hits += static_cast<double>(ps.first_stage_hits);
          out.literal_survivors += static_cast<double>(ps.literal_survivors);
          out.shards_scanned += static_cast<double>(ps.shards_scanned);
          out.dense_shards += static_cast<double>(ps.dense_shards);
          out.candidates += static_cast<double>(st.candidates);
          out.confirmed_literal += static_cast<double>(st.confirmed_literal);
          out.confirmed_program +=
              static_cast<double>(st.confirmed_literal_dominated);
          out.confirmed_vm += static_cast<double>(st.confirmed_vm);
          out.events += static_cast<double>(outcome.events);
        }
      }
      if (pass == 0) {
        verdicts[i] = verdict;
      } else if (verdicts[i] != verdict) {
        // Every pass must reach the same verdicts (a divergence would mean
        // the timed work changed under the clock).
        out.stable = false;
      }
    }
    const double pass_s = seconds_since(tp);
    out.mb_per_s.push_back(bytes / (1 << 20) / pass_s);
    if (traced) {
      out.prefilter_s_per_byte.push_back(prefilter_s / bytes);
      out.confirm_s_per_byte.push_back(confirm_s / bytes);
    }
  }
  out.verdicts = std::move(verdicts);
}

void report_scan_layers(const ScanSamples& scan,
                        const std::vector<double>& latency_us,
                        const std::vector<double>& late_ms,
                        const kz::serve::ServerStats& stats, Result& result) {
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  // Seconds per pass over the workload's whole traffic.
  result.add("match.prefilter_s", median(scan.prefilter_s_per_byte) * scan.bytes,
             "s");
  result.add("match.first_stage_hits_per_kb",
             ratio(scan.first_stage_hits, scan.bytes / 1024.0), "1/KB");
  result.add("match.literal_survivors", scan.literal_survivors, "count");
  result.add("match.shards_scanned", scan.shards_scanned, "count");
  result.add("match.dense_shards", scan.dense_shards, "count");
  result.add("engine.confirm_s", median(scan.confirm_s_per_byte) * scan.bytes,
             "s");
  result.add("engine.candidates", scan.candidates, "count");
  result.add("engine.confirmed_literal", scan.confirmed_literal, "count");
  result.add("engine.confirmed_program", scan.confirmed_program, "count");
  result.add("engine.confirmed_vm", scan.confirmed_vm, "count");
  result.add("engine.useful_share", ratio(scan.events, scan.candidates),
             "ratio");
  result.add("serve.dispatch_us", median(latency_us) - median(scan.doc_us),
             "us");
  result.add("serve.batch_mean",
             ratio(static_cast<double>(stats.batched_jobs),
                   static_cast<double>(stats.batches)),
             "count");
  result.add("serve.shed",
             static_cast<double>(stats.shed_queue_full + stats.shed_stale),
             "count");
  result.add("serve.p99_us", percentile(latency_us, 99.0), "us");
  result.add("serve.generator_late_ms", percentile(late_ms, 100.0), "ms");
}

void report_deploy_layers(const DeploySamples& deploys, Result& result) {
  result.add("match.pattern_compile_ms", median(deploys.pattern_compile_ms),
             "ms");
  result.add("match.prefilter_build_ms", median(deploys.prefilter_build_ms),
             "ms");
  result.add("analyze.lint_ms", median(deploys.lint_ms), "ms");
  result.add("serve.publish_ms", median(deploys.publish_ms), "ms");
}

void add_e2e(const E2E& e, std::vector<Result::Metric>& out) {
  out.push_back({"compile_s", e.compile_s, "s"});
  out.push_back({"scan_mb_per_s", e.scan_mb_per_s, "MB/s"});
  out.push_back({"serve_p50_us", e.serve_p50_us, "us"});
  out.push_back({"deploy_ms", e.deploy_ms, "ms"});
  out.push_back({"delta_deploy_ms", e.delta_deploy_ms, "ms"});
  out.push_back({"epoch_mb", e.epoch_mb, "MB"});
  out.push_back({"artifact_mb", e.artifact_mb, "MB"});
  out.push_back({"rss_peak_mb", e.rss_peak_mb, "MB"});
  out.push_back({"setup_s", e.setup_s, "s"});
}

void score(const std::vector<Doc>& docs,
           const std::vector<std::uint32_t>& verdicts, Score& score) {
  for (std::size_t i = 0; i < docs.size(); ++i) {
    if (docs[i].malicious && verdicts[i] == 0) score.fn += 1;
    if (!docs[i].malicious && verdicts[i] != 0) score.fp += 1;
  }
}

void add_score(const Score& score, Result& result) {
  result.add("core.kizzle_fp", score.fp, "count");
  result.add("core.kizzle_fn", score.fn, "count");
}

}  // namespace kzbench
