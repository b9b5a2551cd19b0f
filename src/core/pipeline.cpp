#include "core/pipeline.h"

#include <algorithm>
#include <chrono>
#include <unordered_map>

#include "analyze/analyze.h"
#include "core/sigdb.h"
#include "support/hash.h"
#include "text/html.h"
#include "text/lexer.h"
#include "text/normalize.h"
#include "unpack/unpackers.h"

namespace kizzle::core {

unpack::UnpackLimits unpack_limits_of(const engine::ScanLimits& limits,
                                      std::size_t input_bytes) {
  unpack::UnpackLimits ul;  // conservative defaults
  if (limits.max_unpack_layers > 0) ul.max_layers = limits.max_unpack_layers;
  if (limits.max_unpack_total_bytes > 0) {
    ul.max_total_bytes = limits.max_unpack_total_bytes;
  }
  if (limits.max_expansion_ratio > 0.0 && input_bytes > 0) {
    const double capped =
        limits.max_expansion_ratio * static_cast<double>(input_bytes);
    if (capped < static_cast<double>(ul.max_total_bytes)) {
      ul.max_total_bytes = static_cast<std::size_t>(capped);
    }
  }
  return ul;
}

KizzlePipeline::KizzlePipeline(PipelineConfig cfg, std::uint64_t seed)
    : cfg_(cfg),
      rng_(seed),
      corpus_(cfg.winnow, cfg.corpus_max_per_family) {}

void KizzlePipeline::seed_family(const std::string& family, double threshold,
                                 const std::string& unpacked_payload) {
  corpus_.add_family(family, threshold);
  corpus_.add_sample(family, text::normalize_js(unpacked_payload));
}

std::optional<std::size_t> KizzlePipeline::scan(
    std::string_view normalized_text) const {
  if (signatures_.empty()) return std::nullopt;
  // Events arrive in ascending index order == issue order, so the first
  // event is the first-match answer. Scratches come from the pool:
  // coverage checks scan every cluster sample, possibly from pool workers.
  auto scratch = scratches_.acquire();
  const auto hit = engine::first_match(db_, normalized_text, *scratch);
  if (!hit) return std::nullopt;
  return hit->sig_index;
}

std::optional<std::size_t> KizzlePipeline::scan_as_of(
    std::string_view normalized_text, int day, bool include_same_day) const {
  if (signatures_.empty()) return std::nullopt;
  auto scratch = scratches_.acquire();
  std::optional<std::size_t> hit;
  // The deployment-day gate runs as the engine's pre-confirmation filter:
  // signatures not yet live on `day` are skipped before the VM runs.
  engine::scan(
      db_, normalized_text, *scratch,
      [this, day, include_same_day](std::size_t i) {
        const int issued = signatures_[i].issued_day;
        return issued < day || (issued == day && include_same_day);
      },
      [&hit](const engine::MatchEvent& event) {
        hit = event.sig_index;
        return engine::ScanDecision::Stop;
      });
  return hit;
}

void KizzlePipeline::export_artifact(std::ostream& os) const {
  // The automaton maintained across deployments is the release build (an
  // empty database still carries a built-but-empty automaton).
  save_artifact(os, signatures_, &db_.prefilter());
}

void KizzlePipeline::export_delta(std::ostream& os, int base_day) const {
  // signatures_ is append-only in ascending issue order, so "the set as
  // of base_day" is a prefix of today's list.
  std::size_t base_count = 0;
  while (base_count < signatures_.size() &&
         signatures_[base_count].issued_day <= base_day) {
    ++base_count;
  }
  const std::vector<DeployedSignature> base(
      signatures_.begin(),
      signatures_.begin() + static_cast<std::ptrdiff_t>(base_count));
  DeltaArtifact delta;
  delta.base_fingerprint = fingerprint(base);
  delta.result_fingerprint = fingerprint(signatures_);
  delta.added.assign(
      signatures_.begin() + static_cast<std::ptrdiff_t>(base_count),
      signatures_.end());
  save_delta(os, delta);
}

namespace {

// Seconds since `t`, and restarts `t` for the next stage.
double lap(std::chrono::steady_clock::time_point& t) {
  const auto now = std::chrono::steady_clock::now();
  const double s = std::chrono::duration<double>(now - t).count();
  t = now;
  return s;
}

std::size_t cluster_medoid(
    const std::vector<std::size_t>& members,
    const std::vector<std::vector<std::uint32_t>>& streams) {
  if (members.size() == 1) return members[0];
  constexpr std::size_t kCap = 16;
  const std::size_t m = std::min(members.size(), kCap);
  std::size_t best = members[0];
  double best_total = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    double total = 0.0;
    for (std::size_t j = 0; j < m; ++j) {
      if (i == j) continue;
      total += dist::normalized_edit_distance(streams[members[i]],
                                              streams[members[j]]);
    }
    if (i == 0 || total < best_total) {
      best_total = total;
      best = members[i];
    }
  }
  return best;
}

}  // namespace

DayReport KizzlePipeline::process_day(
    int day, const std::vector<std::string>& html_docs) {
  const auto t0 = std::chrono::steady_clock::now();
  auto t = t0;
  DayReport report;
  report.day = day;
  report.n_samples = html_docs.size();
  if (!pool_) pool_ = std::make_unique<ThreadPool>(cfg_.threads);

  // ---- Tokenize and abstract every sample. ----
  // Workers only read the interner; each sample's unknown symbols are
  // interned here afterwards, in sample order, so ids stay first-seen.
  // Tokens are consumed as they are scanned: only the stream and the scan
  // text are kept, and this thread copies both into its own allocations
  // one wave of samples at a time. Under glibc, worker threads allocate
  // from per-thread malloc arenas that the rest of the program cannot
  // reuse; left there, a day's streams added 17 MB to the month
  // benchmark's peak RSS and made the fleet_hits peak swing between 682
  // and 801 MB from run to run (4-CPU host).
  std::vector<std::vector<std::uint32_t>> streams(html_docs.size());
  std::vector<std::string> normalized(html_docs.size());
  const std::size_t wave = pool_->size() * 64;
  for (std::size_t w = 0; w < html_docs.size(); w += wave) {
    const std::size_t n = std::min(wave, html_docs.size() - w);
    std::vector<text::PendingStream> pending(n);
    std::vector<std::string> scan_texts(n);
    pool_->parallel_for(n, [&](std::size_t i) {
      text::PendingAbstraction abstraction(cfg_.abstraction, interner_);
      text::lex_each(text::inline_script_text(html_docs[w + i]),
                     text::LexOptions{.tolerant = true},
                     [&](const text::Token& t) {
                       abstraction.add(t);
                       sig::append_normalized_token_text(t, scan_texts[i]);
                     });
      pending[i] = abstraction.take();
    });
    for (std::size_t i = 0; i < n; ++i) {
      const std::vector<std::uint32_t> ids =
          text::commit_pending(std::move(pending[i]), interner_);
      streams[w + i].assign(ids.begin(), ids.end());
      normalized[w + i] = scan_texts[i];
    }
  }
  report.stage_seconds.ingest = lap(t);

  // ---- Deduplicate identical abstract streams into weighted points. ----
  std::unordered_map<std::uint64_t, std::size_t> by_hash;  // hash -> unique idx
  std::vector<std::vector<std::uint32_t>> unique_streams;
  std::vector<std::size_t> weights;
  std::vector<std::vector<std::size_t>> members;  // unique idx -> sample idx
  for (std::size_t i = 0; i < streams.size(); ++i) {
    const std::uint64_t h = fnv1a64(std::span<const std::uint32_t>(streams[i]));
    auto it = by_hash.find(h);
    // Hash collision guard: verify stream equality before merging.
    if (it != by_hash.end() && unique_streams[it->second] == streams[i]) {
      ++weights[it->second];
      members[it->second].push_back(i);
    } else {
      by_hash.emplace(h, unique_streams.size());
      unique_streams.push_back(std::move(streams[i]));
      weights.push_back(1);
      members.push_back({i});
    }
  }
  streams = {};
  report.stage_seconds.dedup = lap(t);

  // ---- Partitioned DBSCAN (Fig 7 map/reduce). ----
  cluster::PartitionedParams pparams;
  pparams.partitions = cfg_.partitions;
  pparams.threads = cfg_.threads;
  pparams.dbscan = cfg_.dbscan;
  pparams.pool = pool_.get();
  cluster::PartitionedClusterer clusterer(pparams);
  const cluster::ClusterSet cs =
      clusterer.run(unique_streams, weights, rng_);
  report.cluster_stats = clusterer.stats();
  report.n_clusters = cs.clusters.size();
  for (std::size_t u : cs.noise) report.n_noise_samples += weights[u];
  report.stage_seconds.cluster = lap(t);

  // ---- Per-cluster prologue, in parallel. ----
  // Everything up to the labeling decision depends only on the cluster
  // and on the corpus as it stood at the start of the day: the medoid,
  // the unpacked prototype, its fingerprints and its containment in every
  // corpus entry.
  struct Prologue {
    ClusterReport report;
    winnow::FingerprintSet fingerprints;
    EntryScores scores;
  };
  std::vector<Prologue> prologues(cs.clusters.size());
  pool_->parallel_for(cs.clusters.size(), [&](std::size_t c) {
    const std::vector<std::size_t>& unique_members = cs.clusters[c];
    ClusterReport& cr = prologues[c].report;
    const std::size_t medoid_u = cluster_medoid(unique_members, unique_streams);
    for (std::size_t u : unique_members) {
      cr.samples.insert(cr.samples.end(), members[u].begin(),
                        members[u].end());
    }
    // Prototype: the first sample carrying the medoid stream.
    const std::size_t proto_sample = members[medoid_u].front();
    const std::string proto_script =
        text::inline_script_text(html_docs[proto_sample]);
    auto unpacked = unpack::unpack_fixpoint(
        proto_script,
        unpack_limits_of(cfg_.scan_limits, proto_script.size()));
    if (unpacked && !unpacked->text.empty()) {
      cr.unpacked = true;
      cr.unpacker = std::string(unpacked->unpacker);
      cr.prototype_text = text::normalize_js(unpacked->text);
    } else {
      // No unpacker fired, or the governor withheld an over-budget decode
      // (text cleared, budget_exhausted set): fall back to the packed
      // script rather than clustering on an empty prototype.
      cr.prototype_text = text::normalize_js(proto_script);
    }
    prologues[c].fingerprints =
        winnow::FingerprintSet::of_text(cr.prototype_text, cfg_.winnow);
    prologues[c].scores = corpus_.score_entries(prologues[c].fingerprints);
  });

  // ---- Label each cluster and issue signatures, in cluster order. ----
  // A labeled prototype joins the corpus before the next cluster is
  // labeled, and an issued signature joins the coverage check of the
  // next; label() rescores only the entries added since the prologue.
  for (Prologue& pro : prologues) {
    ClusterReport& cr = pro.report;
    const LabelScore score = corpus_.label(pro.fingerprints, pro.scores);
    cr.overlap = score.overlap;
    if (!score.family.empty()) {
      cr.label = score.family;
      corpus_.add_sample(score.family, cr.prototype_text);
      process_cluster(day, html_docs, normalized, cr);
    }
    report.clusters.push_back(std::move(cr));
  }
  report.stage_seconds.label = lap(t);

  report.seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  return report;
}

void KizzlePipeline::process_cluster(
    int day, const std::vector<std::string>& html_docs,
    const std::vector<std::string>& normalized, ClusterReport& cr) {
  // Coverage check: do existing family signatures still match the
  // cluster's samples? Other families' signatures are filtered out before
  // confirmation; the first family event covers the sample.
  std::size_t covered = 0;
  auto scratch = scratches_.acquire();
  for (std::size_t s : cr.samples) {
    bool matched = false;
    engine::scan(
        db_, normalized[s], *scratch,
        [this, &cr](std::size_t i) {
          return signatures_[i].family == cr.label;
        },
        [&matched](const engine::MatchEvent&) {
          matched = true;
          return engine::ScanDecision::Stop;
        });
    if (matched) ++covered;
  }
  const double coverage = cr.samples.empty()
                              ? 1.0
                              : static_cast<double>(covered) /
                                    static_cast<double>(cr.samples.size());
  cr.coverage = coverage;
  if (coverage >= cfg_.coverage_threshold) return;

  // Compile a new signature from (up to max_signature_samples of) the
  // cluster's packed samples, lexed again: ingest keeps no tokens.
  std::vector<std::vector<text::Token>> sample_tokens;
  const std::size_t n =
      std::min(cr.samples.size(), cfg_.max_signature_samples);
  sample_tokens.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    sample_tokens.push_back(
        text::lex(text::inline_script_text(html_docs[cr.samples[i]]),
                  text::LexOptions{.tolerant = true}));
  }
  const sig::Signature signature =
      sig::compile_signature(sample_tokens, cfg_.signature);
  if (!signature.ok) {
    cr.signature_failure = signature.failure;
    return;
  }

  match::Pattern compiled = match::Pattern::compile(signature.pattern);
  const std::string name =
      "KZ." + cr.label + "." + std::to_string(sig_counter_ + 1);

  // Pre-deployment lint gate: the compiled program and its relation to
  // the already-deployed set are statically analyzed before the signature
  // ships (analyze/analyze.h). An error-severity finding — catastrophic
  // backtracking, a signature dead on normalized text, one shadowed by an
  // existing pure literal — vetoes the release: deploying it would cost
  // every worker scan time (or detections) until the next release.
  if (cfg_.lint_deployments) {
    const analyze::Report lint = analyze::analyze_candidate(db_, name, compiled);
    if (!lint.clean()) {
      for (const analyze::Finding& f : lint.findings) {
        if (f.severity != analyze::Severity::kError) continue;
        cr.signature_failure = std::string("lint: [") +
                               analyze::check_name(f.check) + "] " + f.message;
        break;
      }
      return;
    }
  }

  DeployedSignature dep;
  dep.name = name;
  dep.family = cr.label;
  dep.issued_day = day;
  dep.pattern = signature.pattern;
  dep.token_length = signature.token_length;
  ++sig_counter_;
  signatures_.push_back(std::move(dep));
  // Incremental deployment: only the new signature is compiled; existing
  // entries are shared into the extended database and the prefilter is
  // rebuilt (rare — one deployment per packer change, Fig 12), keeping the
  // scan paths allocation- and lock-free.
  const DeployedSignature& issued = signatures_.back();
  db_ = db_.extend(engine::Database::Entry{issued.name, issued.family,
                                           std::move(compiled)});
  cr.issued_signature = true;
  cr.signature_name = signatures_.back().name;
}

}  // namespace kizzle::core
