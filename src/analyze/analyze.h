// kizzle lint — static analysis over compiled signature databases.
//
// Kizzle's premise is that signatures are compiled and re-released faster
// than kits mutate (paper §I), which cuts the human out of the release
// loop: a bad signature ships to every worker before anyone reads it. This
// module is the pre-deployment gate that reads it instead. It operates on
// the *compiled* forms — match::detail::Program instruction graphs,
// teddy::PlanSet shuffle masks and dense-shard routing — not on regex
// source, so what it certifies is what the scan path actually executes.
//
// Three analysis families, one Report:
//
//   VM program analysis (program.cpp) — walks each pattern's compiled
//     Instr graph. Unbounded repetitions are the only construct that emits
//     back-edges (pattern.cpp compile_rep), so loops are found as
//     back-edges of a DFS; nested loops whose consume byte-sets overlap
//     are the catastrophic-backtracking shape ((a+)+ and friends) and are
//     flagged as errors. A worst-case step bound per anchored attempt —
//     |code| × len^depth, 2^len once ambiguous — is checked against the
//     VM step budget (engine::ScanLimits.vm_step_budget, default
//     pattern budget when 0). The same walk finds unreachable
//     instructions and kRegex-tier programs shaped as alternations of
//     literals, which could compile to a cheaper ConfirmTier.
//
//   Prefilter quality analysis — scores each signature's required literal
//     against the normalized-JS byte prior (teddy::byte_prior): a missing
//     literal means the pattern confirms against every sample (fallback
//     list), a rarest window made of common bytes means the first stage
//     fires constantly. Per-shard hit-density estimates
//     (teddy::Plan::hit_density_estimate) surface shards past the
//     dense-route threshold.
//
//   Cross-signature analysis — duplicate sources, shadowed signatures
//     (an earlier pure-literal signature whose anchor is contained in a
//     later signature's guaranteed literal matches strictly earlier on
//     every sample the later one matches), and dead signatures whose
//     every accepting path requires a byte normalize_raw strips (the
//     scan path only ever sees normalized text).
//
// A `.kpf` artifact holds only signature source (core/sigdb.h), and every
// process compiles what it scans from that source, so there are no
// shipped tables that could diverge from it: analyze_artifact lints the
// compiled database exactly like analyze_database.
//
// Surfaces: `kizzle lint <artifact|sigdb>` (text or --json, nonzero exit
// on error-severity findings, for CI gating) and the KizzlePipeline
// pre-deployment gate (PipelineConfig::lint_deployments), which refuses
// to deploy a candidate signature that lints with errors.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "engine/engine.h"
#include "match/prefilter.h"

namespace kizzle::analyze {

enum class Severity : std::uint8_t { kInfo, kWarning, kError };

enum class Check : std::uint8_t {
  kBacktrackingBomb,     // nested unbounded loops over overlapping bytes
  kVmStepBound,          // worst-case VM steps exceed the step budget
  kUnreachableCode,      // instructions no path from entry reaches
  kTierDowngrade,        // kRegex tier but cheaper-tier shape
  kWeakLiteral,          // no usable required literal (fallback confirm)
  kCommonLiteralWindow,  // rarest prefilter window made of common bytes
  kDenseShard,           // plan-set shard past the dense-route threshold
  kShadowedSignature,    // an earlier pure-literal signature always wins
  kDuplicateSignature,   // identical pattern source issued twice
  kDeadSignature,        // requires bytes normalized text can never hold
  kDeltaLineage,         // delta fingerprints/indices disagree with base
};

// Findings not tied to one signature (dense shards, delta lineage) carry
// this sig_index.
inline constexpr std::size_t kNoSig = static_cast<std::size_t>(-1);

struct Finding {
  Check check = Check::kBacktrackingBomb;
  Severity severity = Severity::kInfo;
  std::size_t sig_index = kNoSig;  // index into the analyzed set
  std::string signature;           // its name; empty for database-wide
  std::string message;
};

struct Options {
  // Sample length the worst-case VM step bound is evaluated at (the
  // analyzer has no real text; normalized kit samples run tens of KiB).
  std::size_t reference_text_bytes = 64 * 1024;
  // Per-candidate VM step budget to check bounds against; 0 = the
  // pattern VM's built-in default (engine::ScanLimits semantics).
  std::uint64_t vm_step_budget = 0;
  // Per-shard expected-hits-per-byte level reported as a dense shard.
  double dense_shard_threshold = match::kDenseRouteHitsPerByte;
  // A required literal whose *best* window still has this expected
  // per-byte hit rate under the byte prior is reported as common.
  double common_window_threshold = 1e-3;
};

struct Report {
  std::vector<Finding> findings;

  std::size_t count(Severity s) const;
  std::size_t count(Check c) const;
  std::size_t errors() const { return count(Severity::kError); }
  std::size_t warnings() const { return count(Severity::kWarning); }
  // "Lints clean" for gating purposes: no error-severity findings.
  bool clean() const { return errors() == 0; }
};

// Lints a compiled database: every signature's program, literal quality,
// cross-signature relations, and the built prefilter's shard densities.
Report analyze_database(const engine::Database& db, const Options& opts = {});

// Lints one candidate signature against an already-deployed database —
// the KizzlePipeline gate. Covers the candidate's program, literal
// quality, and its relation (duplicate/shadowed/dead) to existing
// entries; database-wide findings about `db` itself are not repeated.
Report analyze_candidate(const engine::Database& db, std::string_view name,
                         const match::Pattern& candidate,
                         const Options& opts = {});

// Lints a `.kpf` bundle: loads it, compiles the embedded signatures and
// lints the result as analyze_database does. Malformed bundles — embedded
// patterns that do not compile included — throw the loader's
// kizzle::Error taxonomy (they are not findings: a bundle that fails to
// load never reaches deployment anyway).
Report analyze_artifact(std::istream& is, const Options& opts = {});

// Lints a `KZDELTA` delta artifact against the live base it would be
// applied to — the serve hot-swap gate for incremental deploys. Lineage
// problems are kDeltaLineage errors: a base fingerprint that does not
// match `base.fingerprint()` (wrong lineage / out-of-order apply),
// retired indices out of range or already tombstoned, an added pattern
// that does not compile, and a declared result fingerprint that disagrees
// with what applying the delta would actually produce. Each added
// signature additionally gets the full per-signature and cross-signature
// analysis against the base's entries, exactly as if it were a pipeline
// candidate. Database-wide findings about `base` itself are not repeated.
Report analyze_delta(const engine::Database& base,
                     const core::DeltaArtifact& delta,
                     const Options& opts = {});

// Human-readable report: one `severity: [check] signature: message` line
// per finding plus a summary line.
void write_text(std::ostream& os, const Report& report);
// Machine-readable report for CI: a single JSON object with a findings
// array and severity totals.
void write_json(std::ostream& os, const Report& report);

const char* check_name(Check c);
const char* severity_name(Severity s);

namespace detail {

// Facts the VM program walk derives for one compiled pattern; unit of the
// program-analysis family, exposed for tests.
struct ProgramFacts {
  std::size_t loops = 0;      // back-edge loops (unbounded repetitions)
  int max_loop_depth = 0;     // deepest loop nesting
  bool ambiguous_nesting = false;  // nested loops, overlapping consume sets
  std::string ambiguous_detail;
  std::size_t unreachable = 0;     // instructions DFS from entry misses
  bool literal_alternation = false;  // alternation-of-literals shape
  bool dead_normalized = false;  // accept unreachable on normalized bytes
  // log2 of the worst-case VM steps for one anchored attempt at
  // `reference_len` text bytes.
  double log2_step_bound = 0.0;
};

ProgramFacts program_facts(const match::detail::Program& prog,
                           std::size_t reference_len);

}  // namespace detail

}  // namespace kizzle::analyze
