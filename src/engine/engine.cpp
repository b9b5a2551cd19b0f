#include "engine/engine.h"

#include <chrono>
#include <stdexcept>

#include "core/sigdb.h"
#include "support/errors.h"
#include "support/hash.h"

namespace kizzle::engine {

// ------------------------------ database ------------------------------

Database::Database() {
  // An empty prefilter is still a built prefilter: scans on an empty
  // database are legal and deliver nothing.
  prefilter_.build();
  refresh_fingerprint();
}

void Database::build_prefilter() {
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    prefilter_.add(i, entries_[i].pattern.required_literal());
  }
  prefilter_.build();
}

void Database::refresh_fingerprint() {
  std::uint64_t sum = core::kFingerprintBasis;
  const std::uint64_t n = entries_.size();
  checksum_update(sum, &n, sizeof n);
  for (const Entry& e : entries_) {
    core::fingerprint_mix(sum, e.name, e.family, e.pattern.source());
  }
  std::vector<std::uint64_t> retired;
  retired.reserve(retired_count_);
  for (std::size_t i = 0; i < retired_.size(); ++i) {
    if (retired_[i] != 0) retired.push_back(i);
  }
  core::fingerprint_retire(sum, retired);
  fingerprint_ = sum;
}

Database Database::compile(const std::vector<Spec>& specs) {
  Database db;
  db.entries_.reserve(specs.size());
  for (const Spec& s : specs) {
    db.entries_.push_back(
        Entry{s.name, s.family, match::Pattern::compile(s.pattern)});
  }
  db.build_prefilter();
  db.refresh_fingerprint();
  return db;
}

Database Database::compile(const std::vector<core::DeployedSignature>& sigs) {
  std::vector<Spec> specs;
  specs.reserve(sigs.size());
  for (const core::DeployedSignature& s : sigs) {
    specs.push_back(Spec{s.name, s.family, s.pattern});
  }
  return compile(specs);
}

Database Database::from_entries(std::vector<Entry> entries) {
  Database db;
  db.entries_ = std::move(entries);
  db.build_prefilter();
  db.refresh_fingerprint();
  return db;
}

Database Database::from_entries(std::vector<Entry> entries,
                                match::LiteralPrefilter prebuilt) {
  if (!prebuilt.built()) {
    throw ArtifactError("engine::Database: prefilter not built");
  }
  if (prebuilt.id_count() != entries.size()) {
    throw ArtifactError(
        "engine::Database: prefilter id count disagrees with entry list");
  }
  Database db;
  db.entries_ = std::move(entries);
  db.prefilter_ = std::move(prebuilt);
  db.refresh_fingerprint();
  return db;
}

Database Database::from_artifact(
    std::istream& artifact,
    std::vector<core::DeployedSignature>* signatures_out) {
  // No trial compilation inside the loader: every pattern is compiled for
  // real right below (and a bad one still throws).
  core::BundleArtifact loaded =
      core::load_artifact(artifact, /*validate_patterns=*/false);
  Database db = compile(loaded.signatures);
  if (signatures_out != nullptr) *signatures_out = std::move(loaded.signatures);
  return db;
}

Database Database::extend(Entry extra) const {
  Database out;
  out.entries_.reserve(entries_.size() + 1);
  // Shared programs: copying an existing entry is O(1).
  out.entries_.insert(out.entries_.end(), entries_.begin(), entries_.end());
  out.entries_.push_back(std::move(extra));
  out.retired_ = retired_;
  out.retired_count_ = retired_count_;
  out.build_prefilter();
  out.refresh_fingerprint();
  return out;
}

Database Database::extend(const core::DeltaArtifact& delta) const {
  if (delta.base_fingerprint != fingerprint_) {
    throw ArtifactError(
        "engine::Database::extend: delta base fingerprint does not match the "
        "live database (wrong lineage or out-of-order apply)");
  }
  Database out;
  out.entries_.reserve(entries_.size() + delta.added.size());
  // Shared programs: only the added patterns are compiled below.
  out.entries_.insert(out.entries_.end(), entries_.begin(), entries_.end());
  out.retired_ = retired_;
  out.retired_.resize(entries_.size(), 0);
  out.retired_count_ = retired_count_;
  for (const std::uint64_t idx : delta.retired) {
    if (idx >= entries_.size()) {
      throw ArtifactError(
          "engine::Database::extend: retired index out of range");
    }
    if (out.retired_[static_cast<std::size_t>(idx)] != 0) {
      throw ArtifactError(
          "engine::Database::extend: signature already retired");
    }
    out.retired_[static_cast<std::size_t>(idx)] = 1;
    ++out.retired_count_;
  }
  for (const core::DeployedSignature& s : delta.added) {
    out.entries_.push_back(
        Entry{s.name, s.family, match::Pattern::compile(s.pattern)});
  }
  // Retired slots keep their index in the rebuilt prefilter (candidate
  // ids stay lineage indices); the confirmation loop is the single choke
  // point that drops them.
  out.build_prefilter();
  out.refresh_fingerprint();
  if (out.fingerprint_ != delta.result_fingerprint) {
    throw ArtifactError(
        "engine::Database::extend: applied delta does not reproduce its "
        "declared result fingerprint");
  }
  return out;
}

const std::string& Database::name(std::size_t index) const {
  if (index >= entries_.size()) {
    throw std::out_of_range("engine::Database::name: bad index");
  }
  return entries_[index].name;
}

const std::string& Database::family(std::size_t index) const {
  if (index >= entries_.size()) {
    throw std::out_of_range("engine::Database::family: bad index");
  }
  return entries_[index].family;
}

const match::Pattern& Database::pattern(std::size_t index) const {
  if (index >= entries_.size()) {
    throw std::out_of_range("engine::Database::pattern: bad index");
  }
  return entries_[index].pattern;
}

// ------------------------------- scanning ------------------------------

namespace {

using Clock = std::chrono::steady_clock;

// Escalates the outcome's status to `status` if it is more severe than
// what is already recorded (the enum is ordered by severity), tagging the
// stage the limit took effect at.
void escalate(ScanOutcome& out, ScanStatus status, ScanStage stage) {
  if (status > out.status) {
    out.status = status;
    out.limited_stage = stage;
  }
}

// One scan's armed deadline: resolved once from the scratch's limits, then
// polled at cheap boundaries. An unarmed gate is two loads and no clock
// reads.
struct DeadlineGate {
  Clock::time_point at{};
  bool armed = false;

  static DeadlineGate arm(const ScanLimits& limits) {
    DeadlineGate g;
    if (limits.has_deadline()) {
      g.at = limits.effective_deadline(Clock::now());
      g.armed = g.at != Clock::time_point{};
    }
    return g;
  }
  static DeadlineGate from(Clock::time_point at) {
    return DeadlineGate{at, at != Clock::time_point{}};
  }
  bool expired() const { return armed && Clock::now() >= at; }
};

// How many candidate confirmations run between deadline polls. Confirming
// one candidate is itself bounded (compiled tiers can't blow up, the VM is
// step-budgeted), so a coarse interval keeps clock reads off the common
// path while still bounding overshoot.
constexpr std::size_t kDeadlinePollMask = 15;

// The one confirmation loop every scan shape funnels into. Candidates are
// ascending, so the first delivered event is the brute-force first match.
// Confirmation dispatches on the pattern's compile-time tier
// (Pattern::confirm_span): find() for pure literals, the compiled confirm
// program for literal-dominated signatures, the backtracking VM only for
// regex-shaped ones whose necessary factors are all present — and their
// budget overruns are counted and skipped, exactly like a per-signature
// Pattern::search (the compiled tiers cannot overrun). Tier
// counts land in scratch.stats_. The scratch's ScanLimits govern the loop:
// vm_step_budget tightens each VM confirmation, and the deadline gate is
// polled every few candidates — expiry abandons the remaining candidates
// and reports kDeadlineExpired rather than finishing late.
ScanOutcome confirm_loop(const Database& db,
                         std::span<const std::size_t> candidates,
                         std::string_view text, match::VmScratch& vm,
                         ScanStats& stats, const CandidateFn* should_confirm,
                         MatchFn on_match,
                         const std::vector<std::uint32_t>* hints,
                         std::uint64_t vm_budget, DeadlineGate gate) {
  ScanOutcome out;
  stats.candidates = candidates.size();
  stats.confirmed_literal = 0;
  stats.confirmed_literal_dominated = 0;
  stats.confirmed_vm = 0;
  stats.gated = 0;
  const std::span<const Database::Entry> entries = db.entries();
  std::size_t polled = 0;
  for (const std::size_t i : candidates) {
    if (gate.armed && (polled++ & kDeadlinePollMask) == 0 && gate.expired()) {
      escalate(out, ScanStatus::kDeadlineExpired, ScanStage::kConfirm);
      break;
    }
    if (i >= entries.size()) {
      throw std::out_of_range("engine::confirm: bad candidate index");
    }
    // Tombstoned by a delta: the slot keeps its index (the prefilter still
    // reports it) but must never produce an event. Every scan shape —
    // one-shot, pre-gated, stream finish — funnels through here.
    if (db.entry_retired(i)) continue;
    if (should_confirm != nullptr && !(*should_confirm)(i)) continue;
    const Database::Entry& entry = entries[i];  // bounds-checked above
    // The prefilter's tier-2 confirm already located each surviving id's
    // literal; seed the confirmation there instead of re-finding it.
    std::size_t hint = match::Pattern::knpos;
    if (hints != nullptr && i < hints->size() &&
        (*hints)[i] != match::teddy::kNoHint) {
      hint = (*hints)[i];
    }
    const match::SpanResult r =
        entry.pattern.confirm_span(text, vm, 0, vm_budget, hint);
    switch (entry.pattern.confirm_tier()) {
      case match::ConfirmTier::kLiteral:
        ++stats.confirmed_literal;
        break;
      case match::ConfirmTier::kLiteralDominated:
        ++stats.confirmed_literal_dominated;
        break;
      case match::ConfirmTier::kRegex:
        ++(r.gated ? stats.gated : stats.confirmed_vm);
        break;
    }
    if (r.budget_exceeded) {
      ++out.budget_exceeded;
      continue;
    }
    if (!r.matched) continue;
    ++out.events;
    const MatchEvent event{i, r.begin, r.end, entry.name, entry.family};
    if (on_match(event) == ScanDecision::Stop) {
      out.stopped = true;
      break;
    }
  }
  if (out.budget_exceeded > 0) {
    escalate(out, ScanStatus::kBudgetExhausted, ScanStage::kConfirm);
  }
  return out;
}

// Intake cap: clips `text` to the scratch's max_input_bytes and returns
// how many bytes were dropped (0 when unlimited or in bounds).
std::size_t clip_input(const ScanLimits& limits, std::string_view& text) {
  if (limits.max_input_bytes == 0 || text.size() <= limits.max_input_bytes) {
    return 0;
  }
  const std::size_t dropped = text.size() - limits.max_input_bytes;
  text = text.substr(0, limits.max_input_bytes);
  return dropped;
}

// The governed scan body scan() and Stream::finish() share: `text` has
// already passed the intake cap (`dropped` bytes cut) and `gate` is armed.
// An expired gate delivers nothing and reports `expired_at`; otherwise the
// prefilter pass hands its candidates and anchor hints to confirmation.
// The scratch's members arrive as explicit references because only the
// public entry points are friends of Scratch.
ScanOutcome scan_impl(const Database& db, std::string_view text,
                      std::size_t dropped, DeadlineGate gate,
                      ScanStage expired_at, const ScanLimits& limits,
                      std::vector<std::size_t>& candidates,
                      match::teddy::HitBuffer& teddy_hits,
                      std::vector<std::uint32_t>& hints, match::VmScratch& vm,
                      ScanStats& stats, const CandidateFn* should_confirm,
                      MatchFn on_match) {
  if (gate.expired()) {
    // Expired before any work: deliver nothing, report where it stopped.
    candidates.clear();
    stats = ScanStats{};
    ScanOutcome out;
    out.truncated_bytes = dropped;
    escalate(out, ScanStatus::kDeadlineExpired, expired_at);
    return out;
  }
  db.prefilter().candidates_into(text, candidates, teddy_hits,
                                 &stats.prefilter, &hints);
  ScanOutcome out =
      confirm_loop(db, candidates, text, vm, stats, should_confirm, on_match,
                   &hints, limits.vm_step_budget, gate);
  out.truncated_bytes = dropped;
  if (dropped > 0) escalate(out, ScanStatus::kTruncated, ScanStage::kInput);
  return out;
}

}  // namespace

ScanOutcome scan(const Database& db, std::string_view text, Scratch& scratch,
                 MatchFn on_match) {
  const std::size_t dropped = clip_input(scratch.limits_, text);
  return scan_impl(db, text, dropped, DeadlineGate::arm(scratch.limits_),
                   ScanStage::kPrefilter, scratch.limits_, scratch.candidates_,
                   scratch.teddy_hits_, scratch.hints_, scratch.vm_,
                   scratch.stats_, nullptr, on_match);
}

ScanOutcome scan(const Database& db, std::string_view text, Scratch& scratch,
                 CandidateFn should_confirm, MatchFn on_match) {
  const std::size_t dropped = clip_input(scratch.limits_, text);
  return scan_impl(db, text, dropped, DeadlineGate::arm(scratch.limits_),
                   ScanStage::kPrefilter, scratch.limits_, scratch.candidates_,
                   scratch.teddy_hits_, scratch.hints_, scratch.vm_,
                   scratch.stats_, &should_confirm, on_match);
}

ScanOutcome confirm(const Database& db, std::span<const std::size_t> candidates,
                    std::string_view text, Scratch& scratch, MatchFn on_match) {
  scratch.stats_.prefilter = match::PrefilterStats{};
  return confirm_loop(db, candidates, text, scratch.vm_, scratch.stats_,
                      nullptr, on_match, nullptr,
                      scratch.limits_.vm_step_budget,
                      DeadlineGate::arm(scratch.limits_));
}

std::optional<MatchEvent> first_match(const Database& db, std::string_view text,
                                      Scratch& scratch, ScanOutcome* outcome) {
  std::optional<MatchEvent> first;
  ScanOutcome out = scan(db, text, scratch, [&first](const MatchEvent& event) {
    first = event;
    return ScanDecision::Stop;
  });
  if (outcome != nullptr) *outcome = out;
  return first;
}

// ------------------------------- streams -------------------------------

Stream open_stream(const Database& db, Scratch& scratch) {
  scratch.normalized_.clear();
  // The stream's whole life runs under one deadline, armed here.
  scratch.stream_deadline_ =
      scratch.limits_.effective_deadline(Clock::now());
  scratch.stream_deadline_hit_ = false;
  scratch.stream_dropped_ = 0;
  return Stream(&db, &scratch);
}

void Stream::feed(std::string_view normalized_chunk) {
  Scratch& s = *scratch_;
  // Deadline poll per chunk: once the stream's deadline passes, feeding
  // becomes a counted no-op — finish() reports kDeadlineExpired.
  if (!s.stream_deadline_hit_ &&
      s.stream_deadline_ != Clock::time_point{} &&
      Clock::now() >= s.stream_deadline_) {
    s.stream_deadline_hit_ = true;
  }
  if (s.stream_deadline_hit_) {
    s.stream_dropped_ += normalized_chunk.size();
    return;
  }
  if (s.limits_.max_input_bytes != 0) {
    const std::size_t fed = s.normalized_.size();
    const std::size_t room =
        fed >= s.limits_.max_input_bytes ? 0
                                         : s.limits_.max_input_bytes - fed;
    if (normalized_chunk.size() > room) {
      s.stream_dropped_ += normalized_chunk.size() - room;
      normalized_chunk = normalized_chunk.substr(0, room);
      if (normalized_chunk.empty()) return;
    }
  }
  s.normalized_ += normalized_chunk;
}

ScanOutcome Stream::finish(MatchFn on_match) const {
  // A stream whose deadline passed (at a feed or since) delivers nothing:
  // scanning would only make it later. Feeding may continue after finish;
  // a later finish scans everything fed so far.
  Scratch& s = *scratch_;
  return scan_impl(*db_, s.normalized_, s.stream_dropped_,
                   DeadlineGate::from(s.stream_deadline_), ScanStage::kInput,
                   s.limits_, s.candidates_, s.teddy_hits_, s.hints_, s.vm_,
                   s.stats_, nullptr, on_match);
}

std::optional<MatchEvent> Stream::finish_first(ScanOutcome* outcome) const {
  std::optional<MatchEvent> first;
  ScanOutcome out = finish([&first](const MatchEvent& event) {
    first = event;
    return ScanDecision::Stop;
  });
  if (outcome != nullptr) *outcome = out;
  return first;
}

}  // namespace kizzle::engine
