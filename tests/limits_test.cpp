// Resource-governor tests (engine/limits.h + the channel degrade layer):
//
//   * every ScanLimits axis, breached in isolation, yields exactly the
//     documented ScanStatus/ScanStage on the ScanOutcome — one-shot and
//     streamed — and never an exception or a hang;
//   * default (unlimited) limits report kComplete and change nothing;
//   * the zero-allocation steady-state invariant survives with every
//     limit armed (governance state lives on the Scratch, not the heap);
//   * the channels translate incomplete scans through their
//     DegradePolicy: fail-open admits, fail-closed blocks, both flag the
//     verdict as degraded, BrowserGate never memoizes a degraded verdict,
//     and CdnFilter reports which placements the policy decided.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "core/deploy.h"
#include "core/pipeline.h"
#include "engine/engine.h"
#include "engine/limits.h"

// ------------------------ operator-new hook ------------------------
// Same global replacement as engine_test.cpp: counting is off by default
// and flipped on around the scan under test.
namespace {
std::atomic<bool> g_count_allocations{false};
std::atomic<std::size_t> g_allocation_count{0};
}  // namespace

void* operator new(std::size_t size) {
  if (g_count_allocations.load(std::memory_order_relaxed)) {
    g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace kizzle::engine {
namespace {

using core::DeployedSignature;
using std::chrono::steady_clock;

std::vector<DeployedSignature> test_signatures() {
  DeployedSignature lit;
  lit.name = "lit";
  lit.family = "RIG";
  lit.pattern = "documentwriteunescape";
  DeployedSignature tail;
  tail.name = "tail";
  tail.family = "RIG";
  tail.pattern = "evalfromcharcode[0-9]{2,6}end";
  DeployedSignature vm;
  vm.name = "vm";
  vm.family = "none";
  // Unbounded repetition cannot compile to a confirm program, so this is
  // guaranteed to land in ConfirmTier::kRegex — the only tier the VM
  // step budget applies to.
  vm.pattern = "zq[0-9]+zq";
  return {lit, tail, vm};
}

ScanLimits expired_deadline() {
  ScanLimits limits;
  limits.deadline = steady_clock::now() - std::chrono::seconds(1);
  return limits;
}

std::size_t count_events(const Database& db, std::string_view text,
                         Scratch& scratch) {
  std::size_t n = 0;
  scan(db, text, scratch, [&n](const MatchEvent&) {
    ++n;
    return ScanDecision::Continue;
  });
  return n;
}

// ------------------------------ one-shot ------------------------------

TEST(Limits, DefaultLimitsReportComplete) {
  const Database db = Database::compile(test_signatures());
  Scratch scratch;
  const ScanOutcome out =
      scan(db, "xxdocumentwriteunescapexx", scratch,
           [](const MatchEvent&) { return ScanDecision::Continue; });
  EXPECT_EQ(out.status, ScanStatus::kComplete);
  EXPECT_EQ(out.limited_stage, ScanStage::kNone);
  EXPECT_EQ(out.truncated_bytes, 0u);
  EXPECT_TRUE(out.complete());
  EXPECT_EQ(out.events, 1u);
}

TEST(Limits, InputCapTruncatesAndStillMatchesThePrefix) {
  const Database db = Database::compile(test_signatures());
  Scratch scratch;
  // The literal sits inside the cap; bytes beyond it must not be scanned.
  const std::string text =
      "xxdocumentwriteunescape" + std::string(100, 'y') + "zq123zq";
  ScanLimits limits;
  limits.max_input_bytes = 32;
  scratch.set_limits(limits);
  std::size_t events = 0;
  const ScanOutcome out = scan(db, text, scratch, [&](const MatchEvent& e) {
    EXPECT_EQ(e.name, "lit");
    ++events;
    return ScanDecision::Continue;
  });
  EXPECT_EQ(out.status, ScanStatus::kTruncated);
  EXPECT_EQ(out.limited_stage, ScanStage::kInput);
  EXPECT_EQ(out.truncated_bytes, text.size() - 32);
  EXPECT_FALSE(out.complete());
  EXPECT_EQ(events, 1u);  // "vm"'s span lies past the cap: never seen
}

TEST(Limits, ExpiredDeadlineShortCircuitsBeforeThePrefilter) {
  const Database db = Database::compile(test_signatures());
  Scratch scratch;
  scratch.set_limits(expired_deadline());
  const ScanOutcome out =
      scan(db, "xxdocumentwriteunescapexx", scratch,
           [](const MatchEvent&) { return ScanDecision::Continue; });
  EXPECT_EQ(out.status, ScanStatus::kDeadlineExpired);
  EXPECT_EQ(out.limited_stage, ScanStage::kPrefilter);
  EXPECT_EQ(out.events, 0u);
}

TEST(Limits, GenerousWallBudgetCompletes) {
  const Database db = Database::compile(test_signatures());
  Scratch scratch;
  ScanLimits limits;
  limits.wall_budget = std::chrono::seconds(30);
  scratch.set_limits(limits);
  const ScanOutcome out =
      scan(db, "xxzq123zqxx", scratch,
           [](const MatchEvent&) { return ScanDecision::Continue; });
  EXPECT_EQ(out.status, ScanStatus::kComplete);
  EXPECT_EQ(out.events, 1u);
}

TEST(Limits, TinyVmBudgetReportsBudgetExhausted) {
  const Database db = Database::compile(test_signatures());
  Scratch scratch;
  // The fallback pattern "zq[0-9]{3}zq" is VM-confirmed on every scan; a
  // one-step budget cannot finish it.
  ScanLimits limits;
  limits.vm_step_budget = 1;
  scratch.set_limits(limits);
  const ScanOutcome out =
      scan(db, "xxzq123zqxx", scratch,
           [](const MatchEvent&) { return ScanDecision::Continue; });
  EXPECT_EQ(out.status, ScanStatus::kBudgetExhausted);
  EXPECT_EQ(out.limited_stage, ScanStage::kConfirm);
  EXPECT_GE(out.budget_exceeded, 1u);
  EXPECT_EQ(out.events, 0u);
}

TEST(Limits, MatchBeatsVmBudgetOnOtherCandidates) {
  const Database db = Database::compile(test_signatures());
  Scratch scratch;
  ScanLimits limits;
  limits.vm_step_budget = 1;
  scratch.set_limits(limits);
  // The pure-literal signature confirms without the VM: its event is
  // delivered even while the VM-tier candidate blows its budget.
  std::vector<std::string> names;
  const ScanOutcome out = scan(db, "documentwriteunescape zq123zq", scratch,
                               [&](const MatchEvent& e) {
                                 names.emplace_back(e.name);
                                 return ScanDecision::Continue;
                               });
  EXPECT_EQ(out.status, ScanStatus::kBudgetExhausted);
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], "lit");
}

TEST(Limits, LimitsPersistAcrossScansUntilChanged) {
  const Database db = Database::compile(test_signatures());
  Scratch scratch;
  scratch.set_limits(expired_deadline());
  EXPECT_EQ(scan(db, "zq123zq", scratch,
                 [](const MatchEvent&) { return ScanDecision::Continue; })
                .status,
            ScanStatus::kDeadlineExpired);
  scratch.set_limits(ScanLimits{});
  const ScanOutcome out =
      scan(db, "zq123zq", scratch,
           [](const MatchEvent&) { return ScanDecision::Continue; });
  EXPECT_EQ(out.status, ScanStatus::kComplete);
  EXPECT_EQ(out.events, 1u);
}

// ------------------------------- streams -------------------------------

TEST(Limits, StreamDeadlineExpiryDropsFeedsAndReportsAtFinish) {
  const Database db = Database::compile(test_signatures());
  Scratch scratch;
  scratch.set_limits(expired_deadline());
  Stream stream = open_stream(db, scratch);
  stream.feed("documentwrite");
  stream.feed("unescape");
  const ScanOutcome out = stream.finish(
      [](const MatchEvent&) { return ScanDecision::Continue; });
  EXPECT_EQ(out.status, ScanStatus::kDeadlineExpired);
  EXPECT_EQ(out.limited_stage, ScanStage::kInput);
  EXPECT_EQ(out.events, 0u);
  EXPECT_EQ(out.truncated_bytes, std::string("documentwriteunescape").size());
}

TEST(Limits, StreamInputCapTruncatesAcrossChunks) {
  const Database db = Database::compile(test_signatures());
  Scratch scratch;
  ScanLimits limits;
  limits.max_input_bytes = 24;
  scratch.set_limits(limits);
  Stream stream = open_stream(db, scratch);
  stream.feed("xxdocumentwriteunescape");  // 23 bytes: fits
  stream.feed("yyyyzq123zq");              // 1 byte kept, 10 dropped
  const ScanOutcome out = stream.finish(
      [](const MatchEvent& e) {
        EXPECT_EQ(e.name, "lit");
        return ScanDecision::Continue;
      });
  EXPECT_EQ(out.status, ScanStatus::kTruncated);
  EXPECT_EQ(out.limited_stage, ScanStage::kInput);
  EXPECT_EQ(out.truncated_bytes, 10u);
  EXPECT_EQ(out.events, 1u);
  EXPECT_EQ(scratch.stream_text().size(), 24u);
}

TEST(Limits, StreamWithDefaultLimitsIsUngoverned) {
  const Database db = Database::compile(test_signatures());
  Scratch scratch;
  Stream stream = open_stream(db, scratch);
  stream.feed("documentwrite");
  stream.feed("unescape");
  const ScanOutcome out = stream.finish(
      [](const MatchEvent&) { return ScanDecision::Continue; });
  EXPECT_EQ(out.status, ScanStatus::kComplete);
  EXPECT_EQ(out.events, 1u);
}

// ----------------------- zero-alloc steady state -----------------------

TEST(Limits, GovernedScanStaysAllocationFree) {
  const Database db = Database::compile(test_signatures());
  Scratch scratch;
  ScanLimits limits;
  limits.max_input_bytes = 1 << 20;
  limits.vm_step_budget = 10'000;
  limits.wall_budget = std::chrono::seconds(30);
  scratch.set_limits(limits);
  const std::string text = "xx documentwriteunescape zq123zq "
                           "evalfromcharcode1234end yy";
  // Warm-up: buffers grow to their high-water mark.
  (void)count_events(db, text, scratch);
  g_allocation_count.store(0, std::memory_order_relaxed);
  g_count_allocations.store(true, std::memory_order_relaxed);
  const std::size_t events = count_events(db, text, scratch);
  g_count_allocations.store(false, std::memory_order_relaxed);
  EXPECT_EQ(g_allocation_count.load(std::memory_order_relaxed), 0u)
      << "governed steady-state scan must not allocate";
  EXPECT_EQ(events, 3u);
}

// --------------------------- channel policy ---------------------------

TEST(Limits, BrowserGateFailsOpenAndDoesNotCacheDegradedVerdicts) {
  const Database db = Database::compile(test_signatures());
  core::BrowserGate gate(&db);
  gate.set_limits(expired_deadline());
  const std::string script = "documentwriteunescape('%75%6e')";
  const core::Verdict degraded = gate.check_script(script);
  EXPECT_TRUE(degraded.degraded);
  EXPECT_FALSE(degraded.malicious);  // fail-open: admit
  EXPECT_EQ(degraded.scan_status, ScanStatus::kDeadlineExpired);
  // Lifting the limits must yield the true verdict — a cached degraded
  // answer here would mean the policy decision was memoized.
  gate.set_limits(ScanLimits{});
  const core::Verdict real = gate.check_script(script);
  EXPECT_FALSE(real.degraded);
  EXPECT_TRUE(real.malicious);
  EXPECT_EQ(real.signature, "lit");
}

TEST(Limits, BrowserGateFailClosedBlocksOnBreach) {
  const Database db = Database::compile(test_signatures());
  core::BrowserGate gate(&db);
  gate.set_limits(expired_deadline());
  gate.set_degrade_policy(core::DegradePolicy::kFailClosed);
  const core::Verdict v = gate.check_script("entirely benign content");
  EXPECT_TRUE(v.degraded);
  EXPECT_TRUE(v.malicious);
  EXPECT_EQ(v.signature_index, core::Verdict::npos);  // no signature: policy
}

TEST(Limits, BrowserGateStreamedScriptDegradesLikeOneShot) {
  const Database db = Database::compile(test_signatures());
  core::BrowserGate gate(&db);
  gate.set_limits(expired_deadline());
  auto stream = gate.begin_script();
  stream.feed("documentwrite");
  stream.feed("unescape('x')");
  const core::Verdict v = stream.finish();
  EXPECT_TRUE(v.degraded);
  EXPECT_FALSE(v.malicious);
  EXPECT_EQ(v.scan_status, ScanStatus::kDeadlineExpired);
}

TEST(Limits, DesktopScannerDefaultsFailClosed) {
  const Database db = Database::compile(test_signatures());
  core::DesktopScanner scanner(&db);
  scanner.set_limits(expired_deadline());
  const core::Verdict blocked = scanner.scan_file("benign file content");
  EXPECT_TRUE(blocked.degraded);
  EXPECT_TRUE(blocked.malicious);  // fail-closed: quarantine
  scanner.set_degrade_policy(core::DegradePolicy::kFailOpen);
  const core::Verdict admitted = scanner.scan_file("benign file content");
  EXPECT_TRUE(admitted.degraded);
  EXPECT_FALSE(admitted.malicious);
}

TEST(Limits, DesktopFileStreamDegrades) {
  const Database db = Database::compile(test_signatures());
  core::DesktopScanner scanner(&db);
  scanner.set_limits(expired_deadline());
  auto stream = scanner.begin_file();
  stream.feed("some file bytes");
  const core::Verdict v = stream.finish();
  EXPECT_TRUE(v.degraded);
  EXPECT_TRUE(v.malicious);
  EXPECT_EQ(v.scan_status, ScanStatus::kDeadlineExpired);
}

TEST(Limits, MatchTrumpsDegradationEverywhere) {
  const Database db = Database::compile(test_signatures());
  core::DesktopScanner scanner(&db);
  ScanLimits limits;
  limits.max_input_bytes = 32;  // truncates, but the literal fits in it
  scanner.set_limits(limits);
  const core::Verdict v = scanner.scan_file(
      "documentwriteunescape" + std::string(200, 'x'));
  EXPECT_TRUE(v.malicious);
  EXPECT_FALSE(v.degraded);  // a found match is a real verdict
  EXPECT_EQ(v.signature, "lit");
  EXPECT_EQ(v.scan_status, ScanStatus::kTruncated);
}

TEST(Limits, CdnFilterRecordsDegradedPlacements) {
  const Database db = Database::compile(test_signatures());
  core::CdnFilter filter(&db, 2);
  filter.set_limits(expired_deadline());
  const std::vector<std::string> candidates = {"benign one", "benign two",
                                               "benign three"};
  const core::CdnFilter::Report closed = filter.filter(candidates);
  EXPECT_EQ(closed.degraded.size(), candidates.size());
  EXPECT_EQ(closed.rejected.size(), candidates.size());  // fail-closed
  EXPECT_TRUE(closed.hostable.empty());
  EXPECT_TRUE(closed.hits_per_signature.empty());  // no signature fired

  filter.set_degrade_policy(core::DegradePolicy::kFailOpen);
  const core::CdnFilter::Report open = filter.filter(candidates);
  EXPECT_EQ(open.degraded.size(), candidates.size());
  EXPECT_EQ(open.hostable.size(), candidates.size());  // fail-open
  EXPECT_TRUE(open.rejected.empty());
}

TEST(Limits, UnpackLimitsBridgeMapsGovernorKnobs) {
  ScanLimits sl;
  const unpack::UnpackLimits defaults;
  // All-zero governor knobs keep the unpacker's own defaults.
  unpack::UnpackLimits ul = core::unpack_limits_of(sl);
  EXPECT_EQ(ul.max_layers, defaults.max_layers);
  EXPECT_EQ(ul.max_total_bytes, defaults.max_total_bytes);
  sl.max_unpack_layers = 9;
  sl.max_unpack_total_bytes = 1234;
  ul = core::unpack_limits_of(sl);
  EXPECT_EQ(ul.max_layers, 9);
  EXPECT_EQ(ul.max_total_bytes, 1234u);
  // A non-zero expansion ratio caps decoded output at ratio × input when
  // that is the tighter bound...
  sl.max_expansion_ratio = 2.0;
  ul = core::unpack_limits_of(sl, /*input_bytes=*/100);
  EXPECT_EQ(ul.max_total_bytes, 200u);
  // ...and defers to the absolute byte cap when it is looser.
  ul = core::unpack_limits_of(sl, /*input_bytes=*/10'000);
  EXPECT_EQ(ul.max_total_bytes, 1234u);
}

TEST(Limits, CdnFilterUngovernedReportsNothingDegraded) {
  const Database db = Database::compile(test_signatures());
  core::CdnFilter filter(&db, 2);
  const std::vector<std::string> candidates = {
      "documentwriteunescape('x')", "clean"};
  const core::CdnFilter::Report report = filter.filter(candidates);
  EXPECT_TRUE(report.degraded.empty());
  ASSERT_EQ(report.rejected.size(), 1u);
  EXPECT_EQ(report.rejected[0], 0u);
  ASSERT_EQ(report.hostable.size(), 1u);
  EXPECT_EQ(report.hostable[0], 1u);
}

}  // namespace
}  // namespace kizzle::engine
