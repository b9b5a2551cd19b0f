// The Kizzle driver (paper §III, Fig 7).
//
// "The main routine breaks the new samples into a set of clusters, labels
//  each cluster either as benign or corresponding to a known kit, and if
//  the cluster is malicious, generates a new signature for that cluster
//  based on the samples in it."
//
// One KizzlePipeline instance runs the whole campaign: it is seeded once
// with known unpacked kit payloads, then fed one day's sample batch at a
// time. Signatures accumulate; a cluster only triggers a new signature
// when the already-deployed signatures of its family no longer cover its
// samples (this is what makes Fig 12 a staircase: one new signature per
// packer change).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/partitioned.h"
#include "core/corpus.h"
#include "engine/engine.h"
#include "sig/compiler.h"
#include "support/interner.h"
#include "support/rng.h"
#include "support/thread_pool.h"
#include "text/abstraction.h"
#include "unpack/unpackers.h"
#include "winnow/winnow.h"

namespace kizzle::core {

// Maps the unpack knobs of the engine-level governor (engine/limits.h)
// onto the unpacker's own budget struct: zero fields keep the UnpackLimits
// defaults, and a non-zero max_expansion_ratio additionally caps total
// decoded output at ratio × input_bytes (tighter bound wins). This is the
// seam through which one ScanLimits governs the whole ingest path —
// callers that unpack attacker-controlled text derive their UnpackLimits
// here instead of inventing a second knob set.
unpack::UnpackLimits unpack_limits_of(const engine::ScanLimits& limits,
                                      std::size_t input_bytes = 0);

struct PipelineConfig {
  PipelineConfig() {
    // Production settings (§V "Tuning the ML"): small daily clusters
    // under-sample the kits' length randomization, so synthesized classes
    // get slack, and multi-kilobyte encoded-payload literals are converted
    // to classes so signatures survive payload churn.
    signature.length_slack = 0.12;
    signature.max_literal_run = 64;
  }

  cluster::DbscanParams dbscan{.eps = 0.10, .min_mass = 3};
  std::size_t partitions = 8;  // simulated clustering machines
  std::size_t threads = 0;     // 0 = hardware concurrency
  winnow::Params winnow;
  sig::CompilerParams signature;
  text::Abstraction abstraction = text::Abstraction::KeywordsAndPunct;
  // A new signature is issued only when existing family signatures match
  // fewer than this fraction of the cluster's samples. Below 1.0 so that
  // a lone per-sample variant or truncated capture does not force a
  // re-issue every day.
  double coverage_threshold = 0.90;
  // Cap on the number of cluster samples fed to the signature compiler.
  std::size_t max_signature_samples = 24;
  std::size_t corpus_max_per_family = 40;
  // Resource governor for the ingest path: cluster-prototype unpacking
  // runs on attacker-controlled landing pages, so its depth/byte budgets
  // come from here (see unpack_limits_of). Default = unlimited engine
  // knobs, which map to the conservative UnpackLimits defaults.
  engine::ScanLimits scan_limits;
  // Pre-deployment lint gate (analyze/analyze.h): a freshly compiled
  // signature is statically analyzed against the deployed database before
  // it ships; error-severity findings (backtracking bomb, dead or
  // shadowed signature) veto the deployment and are reported as the
  // cluster's signature_failure. The compiler should never produce such
  // signatures — the gate is the machine reviewer that catches the day
  // it does.
  bool lint_deployments = true;
};

struct DeployedSignature {
  std::string name;    // "KZ.Nuclear.3"
  std::string family;
  int issued_day = 0;
  std::string pattern;  // regex source
  std::size_t token_length = 0;
};

struct ClusterReport {
  std::vector<std::size_t> samples;  // indices into the day's batch
  std::string label;                 // empty = benign/unlabeled
  double overlap = 0.0;              // winnow containment at labeling
  bool unpacked = false;
  std::string unpacker;              // which unpacker fired (if any)
  std::string prototype_text;        // normalized unpacked prototype
  bool issued_signature = false;
  std::string signature_name;
  std::string signature_failure;     // non-empty if compilation failed
  double coverage = -1.0;  // fraction of samples existing signatures match
                           // (malicious clusters only)
};

// Wall seconds of each process_day stage, in order; they add up to
// DayReport::seconds less a few bookkeeping microseconds.
struct StageSeconds {
  double ingest = 0.0;   // script extraction, lex, abstraction, scan text
  double dedup = 0.0;    // identical streams merged into weighted points
  double cluster = 0.0;  // partitioned DBSCAN
  double label = 0.0;    // prototypes, labeling, coverage, signature issue
};

struct DayReport {
  int day = 0;
  std::size_t n_samples = 0;
  std::size_t n_clusters = 0;
  std::size_t n_noise_samples = 0;
  std::vector<ClusterReport> clusters;
  cluster::PipelineStats cluster_stats;
  double seconds = 0.0;
  StageSeconds stage_seconds;
};

class KizzlePipeline {
 public:
  KizzlePipeline(PipelineConfig cfg, std::uint64_t seed);

  // Registers a kit family with its labeling threshold and seeds it with a
  // known unpacked sample.
  void seed_family(const std::string& family, double threshold,
                   const std::string& unpacked_payload);

  // Processes one day's batch of HTML documents (ascending days).
  //
  // What runs on the pool: per-sample ingest (script extraction, lexing,
  // abstraction against the read-only interner, scan text), clustering,
  // and each cluster's prologue (medoid, prototype unpack and
  // normalization, winnow fingerprints, containment in every corpus entry
  // as of the start of the day). What stays ordered, on the calling
  // thread: interning each sample's unknown symbols in sample order, so
  // ids match a serial run; and labeling, coverage and signature issue in
  // cluster order, because a labeled prototype joins the corpus before the
  // next cluster is labeled and an issued signature joins the next
  // cluster's coverage check. The report, labels, overlaps, signatures and
  // artifacts are therefore the same for every PipelineConfig::threads.
  DayReport process_day(int day, const std::vector<std::string>& html_docs);

  // All signatures deployed so far, in issue order.
  const std::vector<DeployedSignature>& signatures() const {
    return signatures_;
  }

  // The compiled form of the deployed set, maintained incrementally across
  // releases (engine::Database::extend): scan it directly with
  // engine::scan and a Scratch of your own instead of recompiling
  // signatures(). Invalidated by the next process_day that deploys.
  const engine::Database& database() const { return db_; }

  // Persists the deployed signature set together with its already-built
  // literal prefilter as a `.kpf` bundle artifact (core/sigdb.h): the
  // automaton is built once here, at signature-release time, and the
  // deployment channels load it (SignatureBundle's istream constructor)
  // instead of rebuilding per process.
  void export_artifact(std::ostream& os) const;

  // Persists the *increment* since `base_day` as a `KZDELTA` delta
  // artifact (core/sigdb.h): added = signatures issued after `base_day`
  // (the deployed list is append-only in issue order, so the base set is
  // a prefix), retired = none (the paper's pipeline only ever issues).
  // The delta's lineage fingerprints bind it to the exact base set —
  // engine::Database::extend / serve refuse it anywhere else. An empty
  // base (nothing issued by `base_day`) is legal: the delta then carries
  // the whole set.
  void export_delta(std::ostream& os, int base_day) const;

  // Scans AV-normalized text against all deployed signatures; returns the
  // index into signatures() of the first match.
  std::optional<std::size_t> scan(std::string_view normalized_text) const;

  // Scans against signatures issued strictly before `day` plus — with the
  // caller's say — those issued on `day` (used by the evaluation harness
  // to model same-day deployment latency).
  std::optional<std::size_t> scan_as_of(std::string_view normalized_text,
                                        int day, bool include_same_day) const;

  const LabeledCorpus& corpus() const { return corpus_; }

 private:
  // Coverage check and, when the family's signatures no longer cover the
  // cluster, signature compilation and deployment. `normalized` holds each
  // sample's normalized token text (the scan target); the signature's
  // samples are lexed again from `html_docs`.
  void process_cluster(int day, const std::vector<std::string>& html_docs,
                       const std::vector<std::string>& normalized,
                       ClusterReport& report);

  PipelineConfig cfg_;
  Rng rng_;
  // Worker pool for ingest, clustering and the cluster prologues, created
  // on the first process_day (its workers are placed on the CPUs of that
  // caller's affinity mask) and reused across the campaign: spawning
  // threads per day showed up in the daily-run profile.
  std::unique_ptr<ThreadPool> pool_;
  Interner interner_;
  LabeledCorpus corpus_;
  std::vector<DeployedSignature> signatures_;
  // The compiled form of the deployed set (engine/engine.h): patterns plus
  // the shared literal prefilter, rebuilt on each (rare) deployment so
  // scan()/scan_as_of() confirm only candidate signatures out of pooled
  // per-worker scratches.
  engine::Database db_;
  mutable engine::ScratchPool scratches_;
  int sig_counter_ = 0;
};

}  // namespace kizzle::core
