// Orchestration of the three analysis families plus report rendering.
// The per-program walk lives in program.cpp (analyze::detail).

#include "analyze/analyze.h"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <sstream>
#include <unordered_map>

#include "core/sigdb.h"
#include "match/program.h"
#include "support/hash.h"
#include "match/teddy.h"

namespace kizzle::analyze {

namespace {

// The pattern VM's built-in per-attempt step budget (vm.cpp); mirrored
// here because the analyzer checks bounds against it when the caller
// leaves ScanLimits-style budget 0 (= pattern default).
constexpr std::uint64_t kDefaultVmBudget = 1u << 22;

std::string quote(std::string_view s, std::size_t max_len = 48) {
  std::string out = "\"";
  for (std::size_t i = 0; i < s.size() && i < max_len; ++i) {
    const char c = s[i];
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += "\\x??";  // control bytes never occur in patterns; keep short
      continue;
    }
    out += c;
  }
  out += "\"";
  if (s.size() > max_len) out += "…";
  return out;
}

void add_finding(Report& report, Check check, Severity severity,
                 std::size_t sig_index, std::string_view name,
                 std::string message) {
  report.findings.push_back(Finding{check, severity, sig_index,
                                    std::string(name), std::move(message)});
}

// The guaranteed-contained literal of a signature: a string every match
// must contain. Used by the shadowing analysis.
std::string_view guaranteed_literal(const match::Pattern& p) {
  const std::string& lit = p.required_literal();
  if (!lit.empty()) return lit;
  const match::detail::Program& prog = p.compiled_program();
  if (prog.tier != match::ConfirmTier::kRegex) return prog.confirm.anchor;
  return {};
}

// ---------------- per-signature checks (families 1 + 2) ----------------

void analyze_signature(std::size_t index, std::string_view name,
                       const match::Pattern& p, const Options& opts,
                       Report& report) {
  const match::detail::Program& prog = p.compiled_program();
  const detail::ProgramFacts facts =
      detail::program_facts(prog, opts.reference_text_bytes);
  const std::uint64_t budget =
      opts.vm_step_budget != 0 ? opts.vm_step_budget : kDefaultVmBudget;

  if (facts.ambiguous_nesting) {
    add_finding(report, Check::kBacktrackingBomb, Severity::kError, index,
                name,
                "catastrophic backtracking: " + facts.ambiguous_detail +
                    " — a non-matching sample can cost ~2^len VM steps");
  } else if (facts.loops > 0 &&
             facts.log2_step_bound >
                 std::log2(static_cast<double>(budget))) {
    std::ostringstream msg;
    msg << "worst-case VM attempt ~2^"
        << static_cast<int>(facts.log2_step_bound + 0.5) << " steps at "
        << opts.reference_text_bytes << "-byte samples exceeds the step "
        << "budget of " << budget
        << " — candidates may be dropped as budget-exhausted";
    add_finding(report, Check::kVmStepBound, Severity::kWarning, index, name,
                msg.str());
  }

  if (facts.unreachable > 0) {
    add_finding(report, Check::kUnreachableCode, Severity::kInfo, index, name,
                std::to_string(facts.unreachable) +
                    " compiled instruction(s) unreachable from the entry "
                    "point (compiler artifact; wasted program space)");
  }

  if (facts.literal_alternation) {
    add_finding(report, Check::kTierDowngrade, Severity::kInfo, index, name,
                "runs on the backtracking-VM tier but is an alternation of "
                "literals — eligible for a compiled confirm tier "
                "(per-branch anchored compare)");
  }

  if (facts.dead_normalized) {
    add_finding(report, Check::kDeadSignature, Severity::kError, index, name,
                "dead signature: every accepting path requires a byte "
                "normalization strips (whitespace/quote), so it can never "
                "match normalized scan input");
    return;  // literal-quality findings are noise on a dead signature
  }

  const std::string& lit = p.required_literal();
  if (lit.empty()) {
    add_finding(report, Check::kWeakLiteral, Severity::kWarning, index, name,
                "no usable required literal: the signature sits on the "
                "prefilter fallback list and is confirmed against every "
                "scanned sample");
    return;
  }
  // Rarest-window quality: the best (lowest expected hit rate) K-byte
  // window the prefilter could anchor this literal on. This mirrors the
  // planner's own scoring, against the same byte prior.
  const std::size_t k = std::min<std::size_t>(4, lit.size());
  double best = 1.0;
  for (std::size_t at = 0; at + k <= lit.size(); ++at) {
    double rate = 1.0;
    for (std::size_t i = 0; i < k; ++i) {
      rate *= match::teddy::byte_prior_probability(
          static_cast<unsigned char>(lit[at + i]));
    }
    best = std::min(best, rate);
  }
  if (best > opts.common_window_threshold) {
    std::ostringstream msg;
    msg << "prefilter-hostile literal " << quote(lit)
        << ": its rarest " << k << "-byte window still hits ~1 in "
        << static_cast<long long>(1.0 / best)
        << " scanned bytes under the normalized-JS byte prior";
    add_finding(report, Check::kCommonLiteralWindow, Severity::kWarning,
                index, name, msg.str());
  }
}

// ---------------- cross-signature checks (family 3) ----------------

struct SigRef {
  std::string_view name;
  const match::Pattern* pattern = nullptr;
};

// Duplicates and shadowing over `sigs`; `first_checked` is the first
// index findings are reported for (the candidate gate passes the
// database + candidate and only wants findings about the candidate).
void analyze_cross(const std::vector<SigRef>& sigs, std::size_t first_checked,
                   Report& report) {
  std::unordered_map<std::string_view, std::size_t> first_by_source;
  for (std::size_t j = 0; j < sigs.size(); ++j) {
    const auto [it, inserted] =
        first_by_source.emplace(sigs[j].pattern->source(), j);
    if (!inserted && j >= first_checked) {
      add_finding(report, Check::kDuplicateSignature, Severity::kWarning, j,
                  sigs[j].name,
                  "identical pattern source already issued as \"" +
                      std::string(sigs[it->second].name) + "\" (#" +
                      std::to_string(it->second) + ")");
    }
  }

  // Shadowing: an earlier signature that *is* one literal (kLiteral tier
  // matches any text containing its anchor) whose anchor is contained in
  // a later signature's guaranteed literal. Every sample the later
  // signature matches contains that literal, hence the earlier one — so
  // under first-match semantics the later signature never reports.
  for (std::size_t j = first_checked; j < sigs.size(); ++j) {
    const std::string_view t = guaranteed_literal(*sigs[j].pattern);
    if (t.empty()) continue;
    for (std::size_t i = 0; i < j; ++i) {
      const match::detail::Program& pi = sigs[i].pattern->compiled_program();
      if (pi.tier != match::ConfirmTier::kLiteral) continue;
      if (sigs[i].pattern->source() == sigs[j].pattern->source()) {
        continue;  // reported as a duplicate, not a shadow
      }
      const std::string& anchor = pi.confirm.anchor;
      if (anchor.empty() || t.find(anchor) == std::string_view::npos) {
        continue;
      }
      add_finding(report, Check::kShadowedSignature, Severity::kError, j,
                  sigs[j].name,
                  "shadowed: every match contains " + quote(t) +
                      ", which contains pure-literal signature \"" +
                      std::string(sigs[i].name) + "\" (#" +
                      std::to_string(i) + ", " + quote(anchor) +
                      ") — the earlier signature always matches first");
      break;  // one shadowing witness per signature
    }
  }
}

// ---------------- prefilter shard density (family 2) ----------------

void analyze_shards(const match::LiteralPrefilter& pf, const Options& opts,
                    Report& report) {
  const match::teddy::PlanSet* plans = pf.teddy_plans();
  if (plans == nullptr) return;
  const auto& shards = plans->shards();
  for (std::size_t s = 0; s < shards.size(); ++s) {
    const double d = shards[s].hit_density_estimate();
    if (d <= opts.dense_shard_threshold) continue;
    std::ostringstream msg;
    msg << "dense shard " << s << " (K=" << shards[s].prefix_len() << ", "
        << shards[s].literal_count() << " literals): expected ~" << d
        << " first-stage hits/byte (threshold "
        << opts.dense_shard_threshold << ")";
    if (pf.teddy_dense()) {
      msg << "; every literal walks the dense-shard automaton";
    } else {
      msg << "; the SIMD first stage is confirm-bound here";
    }
    add_finding(report, Check::kDenseShard, Severity::kWarning, kNoSig, "",
                msg.str());
  }
}

std::vector<SigRef> refs_of(std::span<const engine::Database::Entry> entries) {
  std::vector<SigRef> refs;
  refs.reserve(entries.size());
  for (const auto& e : entries) refs.push_back(SigRef{e.name, &e.pattern});
  return refs;
}

}  // namespace

// ------------------------------ entry points ------------------------------

Report analyze_database(const engine::Database& db, const Options& opts) {
  Report report;
  const auto entries = db.entries();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    analyze_signature(i, entries[i].name, entries[i].pattern, opts, report);
  }
  analyze_cross(refs_of(entries), 0, report);
  analyze_shards(db.prefilter(), opts, report);
  return report;
}

Report analyze_candidate(const engine::Database& db, std::string_view name,
                         const match::Pattern& candidate,
                         const Options& opts) {
  Report report;
  const auto entries = db.entries();
  analyze_signature(entries.size(), name, candidate, opts, report);
  std::vector<SigRef> refs = refs_of(entries);
  refs.push_back(SigRef{name, &candidate});
  analyze_cross(refs, entries.size(), report);
  return report;
}

Report analyze_artifact(std::istream& is, const Options& opts) {
  // Validating load: an embedded pattern that does not compile is a
  // malformed bundle (InputError), like any other loader failure.
  const core::BundleArtifact art = core::load_artifact(is);
  return analyze_database(engine::Database::compile(art.signatures), opts);
}

Report analyze_delta(const engine::Database& base,
                     const core::DeltaArtifact& delta, const Options& opts) {
  Report report;
  bool lineage_ok = true;
  if (delta.base_fingerprint != base.fingerprint()) {
    lineage_ok = false;
    add_finding(report, Check::kDeltaLineage, Severity::kError, kNoSig, "",
                "delta base fingerprint does not match the live database — "
                "wrong lineage or out-of-order apply");
  }
  for (const std::uint64_t idx : delta.retired) {
    if (idx >= base.size()) {
      lineage_ok = false;
      add_finding(report, Check::kDeltaLineage, Severity::kError, kNoSig, "",
                  "retired index " + std::to_string(idx) +
                      " is out of range for a base of " +
                      std::to_string(base.size()) + " signatures");
    } else if (base.entry_retired(static_cast<std::size_t>(idx))) {
      lineage_ok = false;
      add_finding(report, Check::kDeltaLineage, Severity::kError,
                  static_cast<std::size_t>(idx),
                  base.name(static_cast<std::size_t>(idx)),
                  "retired index " + std::to_string(idx) +
                      " is already tombstoned in the base");
    }
  }

  // Each added signature gets the candidate treatment: compile, program +
  // literal analysis, and cross checks against the base entries.
  const auto base_entries = base.entries();
  std::vector<SigRef> refs = refs_of(base_entries);
  const std::size_t first_checked = refs.size();
  std::vector<match::Pattern> added;
  added.reserve(delta.added.size());
  bool compiles = true;
  for (std::size_t j = 0; j < delta.added.size(); ++j) {
    const core::DeployedSignature& sig = delta.added[j];
    const std::size_t index = base.size() + j;
    try {
      added.push_back(match::Pattern::compile(sig.pattern));
    } catch (const match::PatternError& e) {
      compiles = false;
      add_finding(report, Check::kDeltaLineage, Severity::kError, index,
                  sig.name,
                  std::string("added pattern does not compile: ") + e.what());
      continue;
    }
    analyze_signature(index, sig.name, added.back(), opts, report);
    refs.push_back(SigRef{sig.name, &added.back()});
  }
  analyze_cross(refs, first_checked, report);

  // Only when the pieces are individually coherent is the declared result
  // fingerprint checkable: recompute what applying the delta would
  // produce (base identities + added identities, tombstone union) and
  // compare. This catches a tampered/miscomputed result_fingerprint at
  // the gate instead of as an extend() refusal mid-swap.
  if (lineage_ok && compiles) {
    std::uint64_t sum = core::kFingerprintBasis;
    const std::uint64_t n = base.size() + delta.added.size();
    checksum_update(sum, &n, sizeof n);
    for (const auto& e : base_entries) {
      core::fingerprint_mix(sum, e.name, e.family, e.pattern.source());
    }
    for (const core::DeployedSignature& sig : delta.added) {
      core::fingerprint_mix(sum, sig.name, sig.family, sig.pattern);
    }
    std::vector<std::uint64_t> tombstones;
    for (std::size_t i = 0; i < base.size(); ++i) {
      if (base.entry_retired(i)) tombstones.push_back(i);
    }
    tombstones.insert(tombstones.end(), delta.retired.begin(),
                      delta.retired.end());
    std::sort(tombstones.begin(), tombstones.end());
    core::fingerprint_retire(sum, tombstones);
    if (sum != delta.result_fingerprint) {
      add_finding(report, Check::kDeltaLineage, Severity::kError, kNoSig, "",
                  "declared result fingerprint disagrees with the set this "
                  "delta actually produces when applied");
    }
  }
  return report;
}

// ------------------------------ rendering ------------------------------

std::size_t Report::count(Severity s) const {
  return static_cast<std::size_t>(
      std::count_if(findings.begin(), findings.end(),
                    [s](const Finding& f) { return f.severity == s; }));
}

std::size_t Report::count(Check c) const {
  return static_cast<std::size_t>(
      std::count_if(findings.begin(), findings.end(),
                    [c](const Finding& f) { return f.check == c; }));
}

const char* check_name(Check c) {
  switch (c) {
    case Check::kBacktrackingBomb:
      return "backtracking-bomb";
    case Check::kVmStepBound:
      return "vm-step-bound";
    case Check::kUnreachableCode:
      return "unreachable-code";
    case Check::kTierDowngrade:
      return "tier-downgrade";
    case Check::kWeakLiteral:
      return "weak-literal";
    case Check::kCommonLiteralWindow:
      return "common-literal-window";
    case Check::kDenseShard:
      return "dense-shard";
    case Check::kShadowedSignature:
      return "shadowed-signature";
    case Check::kDuplicateSignature:
      return "duplicate-signature";
    case Check::kDeadSignature:
      return "dead-signature";
    case Check::kDeltaLineage:
      return "delta-lineage";
  }
  return "?";
}

const char* severity_name(Severity s) {
  switch (s) {
    case Severity::kInfo:
      return "info";
    case Severity::kWarning:
      return "warning";
    case Severity::kError:
      return "error";
  }
  return "?";
}

void write_text(std::ostream& os, const Report& report) {
  for (const Finding& f : report.findings) {
    os << severity_name(f.severity) << ": [" << check_name(f.check) << "]";
    if (f.sig_index != kNoSig) {
      os << " #" << f.sig_index;
      if (!f.signature.empty()) os << " \"" << f.signature << "\"";
    }
    os << ": " << f.message << "\n";
  }
  if (report.findings.empty()) {
    os << "clean: no findings\n";
  } else {
    os << report.findings.size() << " finding(s): " << report.errors()
       << " error(s), " << report.warnings() << " warning(s), "
       << report.count(Severity::kInfo) << " info\n";
  }
}

namespace {

void json_string(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\t':
        os << "\\t";
        break;
      case '\r':
        os << "\\r";
        break;
      default:
        if (u < 0x20) {
          const char hex[] = "0123456789abcdef";
          os << "\\u00" << hex[u >> 4] << hex[u & 15];
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

}  // namespace

void write_json(std::ostream& os, const Report& report) {
  os << "{\"findings\":[";
  for (std::size_t i = 0; i < report.findings.size(); ++i) {
    const Finding& f = report.findings[i];
    if (i > 0) os << ",";
    os << "{\"check\":";
    json_string(os, check_name(f.check));
    os << ",\"severity\":";
    json_string(os, severity_name(f.severity));
    if (f.sig_index != kNoSig) {
      os << ",\"sig_index\":" << f.sig_index;
    }
    os << ",\"signature\":";
    json_string(os, f.signature);
    os << ",\"message\":";
    json_string(os, f.message);
    os << "}";
  }
  os << "],\"errors\":" << report.errors()
     << ",\"warnings\":" << report.warnings()
     << ",\"info\":" << report.count(Severity::kInfo)
     << ",\"clean\":" << (report.clean() ? "true" : "false") << "}\n";
}

}  // namespace kizzle::analyze
