// kizzle lint (analyze/analyze.h) contract tests:
//
//   * program facts — the Instr-graph walk finds exactly the unbounded
//     loops, tells catastrophic nesting ((a+)+) from merely polynomial
//     nesting ((a+b+)+), and prices loop-free programs below any budget;
//   * a handcrafted pathological database triggers each diagnostic class
//     exactly once (backtracking bomb, shadowed, duplicate, dead);
//   * the kitgen pipeline's own signature databases lint clean — the
//     deployment gate must never veto what the signature compiler
//     actually produces;
//   * artifacts — a round-tripped artifact lints exactly like its compiled
//     database, a bundle whose embedded source does not compile is a
//     typed loader rejection (there are no shipped tables to diverge from
//     the source any more), and every committed `.kpf` corpus seed lints
//     clean;
//   * dense shards are reported once the estimated first-stage hit rate
//     passes the routing threshold.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analyze/analyze.h"
#include "core/pipeline.h"
#include "core/sigdb.h"
#include "engine/engine.h"
#include "kitgen/stream.h"
#include "match/pattern.h"
#include "match/program.h"
#include "support/errors.h"

namespace kizzle::analyze {
namespace {

detail::ProgramFacts facts_of(const std::string& pattern,
                              std::size_t reference_len = 64 * 1024) {
  const match::Pattern p = match::Pattern::compile(pattern);
  return detail::program_facts(p.compiled_program(), reference_len);
}

TEST(ProgramFacts, BoundedRepetitionsCompileLoopFree) {
  const auto facts = facts_of("ab{2,5}c{3}[a-z]{1,4}d");
  EXPECT_EQ(facts.loops, 0u);
  EXPECT_EQ(facts.max_loop_depth, 0);
  EXPECT_FALSE(facts.ambiguous_nesting);
  // Loop-free = one DAG walk per attempt: far below any real budget.
  EXPECT_LT(facts.log2_step_bound, 22.0);
}

TEST(ProgramFacts, NestedOverlappingQuantifiersAreAmbiguous) {
  const auto facts = facts_of("([a-z]+)+qzvwxk");
  EXPECT_GE(facts.loops, 2u);
  EXPECT_GE(facts.max_loop_depth, 2);
  EXPECT_TRUE(facts.ambiguous_nesting);
  EXPECT_FALSE(facts.ambiguous_detail.empty());
}

TEST(ProgramFacts, AlternationInsideOuterLoopIsAmbiguous) {
  // (a+|b+)+ blows up on "aaaa…!": the run of a's splits between the
  // inner and outer quantifier in exponentially many ways.
  const auto facts = facts_of("(a+|b+)+x");
  EXPECT_TRUE(facts.ambiguous_nesting);
}

TEST(ProgramFacts, SequentialInnerLoopsArePolynomialNotFlagged) {
  // (a+b+)+ is only quadratic: the outer loop cannot return to the a+
  // entry without consuming a mandatory b.
  const auto facts = facts_of("(a+b+)+x");
  EXPECT_GE(facts.loops, 3u);
  EXPECT_GE(facts.max_loop_depth, 2);
  EXPECT_FALSE(facts.ambiguous_nesting);
  // Depth-2 nesting still prices past the default 2^22 VM budget at
  // 64 KiB samples — that is the step-bound warning's trigger.
  EXPECT_GT(facts.log2_step_bound, 22.0);
}

TEST(ProgramFacts, LiteralAlternationShapeIsDetected) {
  const auto facts = facts_of("abcdef|ghijkl|mnopqr");
  EXPECT_EQ(facts.loops, 0u);
  EXPECT_TRUE(facts.literal_alternation);
}

TEST(ProgramFacts, DeadOnNormalizedText) {
  // Normalization strips whitespace and quotes before any scan, so a
  // pattern whose every accepting path needs a quote can never fire.
  EXPECT_TRUE(facts_of("uvw\"xyz").dead_normalized);
  EXPECT_FALSE(facts_of("uvwxyz").dead_normalized);
  // A quote behind an alternation leaves a live path.
  EXPECT_FALSE(facts_of("uvw(\"|z)xyz").dead_normalized);
}

// A bounded one-byte repeat compiles to a Run op; wrapped in a
// non-capturing group the same repeat unrolls into Splits. Every fact the
// lint reads must come out the same for both: a Run with min == 0 is
// skippable in the reachability walks, and the step bound counts it at
// its unrolled width.
TEST(ProgramFacts, RunOpFactsEqualTheUnrolledForm) {
  const std::vector<std::pair<std::string, std::string>> pairs = {
      {"ab{2,5}c{3}[a-z]{1,4}d", "a(?:b){2,5}(?:c){3}(?:[a-z]){1,4}d"},
      {"uvw[\"]{0,4}xyz", "uvw(?:[\"]){0,4}xyz"},
      {"uvw[\"]{1,4}xyz", "uvw(?:[\"]){1,4}xyz"},
      {"uvw[ ']{3}xyz|q\"", "uvw(?:[ ']){3}xyz|q\""},
      {"(?:[a-z]{1,3})+qzv", "(?:(?:[a-z]){1,3})+qzv"},
      {"([0-9]{0,4}[a-z]+)+x", "((?:[0-9]){0,4}[a-z]+)+x"},
      {"([0-9]{2,4}[a-z]+)+x", "((?:[0-9]){2,4}[a-z]+)+x"},
      {"([a-z]{0,4}[a-z]+)+x", "((?:[a-z]){0,4}[a-z]+)+x"},
      {"ab{0,3}c|xyz", "a(?:b){0,3}c|xyz"},
      {"a{3}bc|xyz", "(?:a){3}bc|xyz"},
      {"[a-z]{5000,9000}(x+)+y", "(?:[a-z]){5000,9000}(x+)+y"},
      {"k.{0,40}(a+b+)+x", "k(?:.){0,40}(a+b+)+x"},
  };
  for (const auto& [run, unrolled] : pairs) {
    SCOPED_TRACE(run);
    EXPECT_LT(match::Pattern::compile(run).compiled_program().code.size(),
              match::Pattern::compile(unrolled)
                  .compiled_program()
                  .code.size());
    const auto a = facts_of(run);
    const auto b = facts_of(unrolled);
    EXPECT_EQ(a.unreachable, b.unreachable);
    EXPECT_EQ(a.loops, b.loops);
    EXPECT_EQ(a.max_loop_depth, b.max_loop_depth);
    EXPECT_EQ(a.ambiguous_nesting, b.ambiguous_nesting);
    EXPECT_EQ(a.literal_alternation, b.literal_alternation);
    EXPECT_EQ(a.dead_normalized, b.dead_normalized);
    EXPECT_DOUBLE_EQ(a.log2_step_bound, b.log2_step_bound);
  }
  // The pairs cover both answers of the walks a Run takes part in.
  EXPECT_FALSE(facts_of("uvw[\"]{0,4}xyz").dead_normalized);
  EXPECT_TRUE(facts_of("uvw[\"]{1,4}xyz").dead_normalized);
  EXPECT_TRUE(facts_of("([0-9]{0,4}[a-z]+)+x").ambiguous_nesting);
  EXPECT_FALSE(facts_of("([0-9]{2,4}[a-z]+)+x").ambiguous_nesting);
  EXPECT_TRUE(facts_of("ab{0,3}c|xyz").literal_alternation);
}

// The pathological table: one signature per diagnostic class, each
// triggering its class exactly once.
TEST(AnalyzeDatabase, PathologicalTableTriggersEachClassOnce) {
  const engine::Database db = engine::Database::compile({
      {"bomb", "Evil", "([a-z]+)+qzvwxk"},
      {"shadow.early", "Evil", "mnopqr"},
      {"shadow.late", "Evil", "zzmnopqrzz"},
      {"dead", "Evil", "uvw\"xyz"},
      {"dup.first", "Evil", "tuvwxy"},
      {"dup.second", "Evil", "tuvwxy"},
  });
  const Report report = analyze_database(db);

  EXPECT_EQ(report.count(Check::kBacktrackingBomb), 1u);
  EXPECT_EQ(report.count(Check::kShadowedSignature), 1u);
  EXPECT_EQ(report.count(Check::kDeadSignature), 1u);
  EXPECT_EQ(report.count(Check::kDuplicateSignature), 1u);
  EXPECT_EQ(report.errors(), 3u);
  EXPECT_FALSE(report.clean());

  // The findings point at the right signatures.
  for (const Finding& f : report.findings) {
    switch (f.check) {
      case Check::kBacktrackingBomb:
        EXPECT_EQ(f.signature, "bomb");
        break;
      case Check::kShadowedSignature:
        EXPECT_EQ(f.signature, "shadow.late");
        break;
      case Check::kDeadSignature:
        EXPECT_EQ(f.signature, "dead");
        break;
      case Check::kDuplicateSignature:
        EXPECT_EQ(f.signature, "dup.second");
        break;
      default:
        break;
    }
  }
}

TEST(AnalyzeCandidate, GateFlagsOnlyTheCandidate) {
  const engine::Database db = engine::Database::compile({
      {"deployed.literal", "Evil", "mnopqr"},
  });
  // A candidate whose guaranteed literal contains the deployed anchor is
  // shadowed: it would never report a match.
  const match::Pattern shadowed = match::Pattern::compile("zzmnopqrzz");
  const Report bad = analyze_candidate(db, "candidate", shadowed);
  EXPECT_EQ(bad.count(Check::kShadowedSignature), 1u);
  EXPECT_FALSE(bad.clean());

  const match::Pattern fine = match::Pattern::compile("qrstuvwx");
  EXPECT_TRUE(analyze_candidate(db, "candidate", fine).clean());
}

TEST(AnalyzePipeline, DeploymentGateVetoesErrorFindings) {
  // The same veto the KizzlePipeline applies pre-deployment
  // (PipelineConfig::lint_deployments): error findings block the release.
  const engine::Database db =
      engine::Database::compile(std::vector<engine::Database::Spec>{});
  const match::Pattern bomb = match::Pattern::compile("([a-z]+)+qzvwxk");
  const Report report = analyze_candidate(db, "candidate", bomb);
  EXPECT_GE(report.errors(), 1u);
}

// The signature compiler only emits bounded quantifiers and literal
// classes over normalized text, so everything the pipeline actually
// deploys must pass its own gate — on the compiled database and on the
// exported artifact alike.
TEST(AnalyzeKitgen, PipelineDatabaseAndArtifactLintClean) {
  kitgen::StreamConfig scfg;
  scfg.volume_scale = 0.25;
  kitgen::StreamSimulator sim(scfg);

  core::PipelineConfig pcfg;
  pcfg.partitions = 4;
  pcfg.threads = 4;
  core::KizzlePipeline pipeline(pcfg, 12345);
  for (const auto& [family, payload] : sim.seed_corpus()) {
    pipeline.seed_family(std::string(kitgen::family_name(family)), 0.60,
                         payload);
  }
  const auto batch = sim.generate_day(kitgen::kAug1);
  std::vector<std::string> htmls;
  for (const auto& s : batch.samples) htmls.push_back(s.html);
  pipeline.process_day(kitgen::kAug1, htmls);
  ASSERT_FALSE(pipeline.signatures().empty());

  const Report db_report = analyze_database(pipeline.database());
  EXPECT_EQ(db_report.errors(), 0u) << [&] {
    std::ostringstream os;
    write_text(os, db_report);
    return os.str();
  }();

  std::stringstream bundle;
  pipeline.export_artifact(bundle);
  const Report art_report = analyze_artifact(bundle);
  EXPECT_EQ(art_report.errors(), 0u) << [&] {
    std::ostringstream os;
    write_text(os, art_report);
    return os.str();
  }();
}

std::vector<core::DeployedSignature> two_signatures() {
  core::DeployedSignature a;
  a.name = "KZ.T.1";
  a.family = "T";
  a.issued_day = 1;
  a.pattern = "abcdefgh";
  a.token_length = 1;
  core::DeployedSignature b = a;
  b.name = "KZ.T.2";
  b.issued_day = 2;
  b.pattern = "qrstuvwx";
  return {a, b};
}

TEST(AnalyzeArtifact, CleanRoundTripLintsLikeItsDatabase) {
  std::stringstream os;
  core::save_artifact(os, two_signatures());
  const Report report = analyze_artifact(os);
  EXPECT_TRUE(report.clean());
  const Report direct =
      analyze_database(engine::Database::compile(two_signatures()));
  EXPECT_EQ(report.findings.size(), direct.findings.size());
}

TEST(AnalyzeArtifact, UncompilableEmbeddedSourceIsATypedRejection) {
  // The seal is intact, but the embedded source cannot be compiled by
  // this binary: the bundle is malformed, not a finding.
  auto sigs = two_signatures();
  sigs[1].pattern = "unbalanced(paren";
  std::stringstream os;
  core::save_artifact(os, sigs);
  EXPECT_THROW(analyze_artifact(os), kizzle::InputError);
}

TEST(AnalyzeArtifact, CommittedCorpusSeedsLintClean) {
  const std::filesystem::path dir =
      std::filesystem::path(KIZZLE_FUZZ_DIR) / "corpus" / "load_artifact";
  std::size_t checked = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".kpf") continue;
    std::ifstream is(entry.path(), std::ios::binary);
    ASSERT_TRUE(is) << entry.path();
    const Report report = analyze_artifact(is);
    EXPECT_EQ(report.errors(), 0u) << entry.path();
    ++checked;
  }
  EXPECT_GE(checked, 2u);  // demo.kpf and tiny.kpf at minimum
}

TEST(AnalyzeDatabase, DenseShardsAreReported) {
  // Compiled patterns only register literals of 3+ bytes, and the planner
  // buckets them by prefix, so a database's shards sit well under the
  // dense-ROUTE threshold by construction (the raw-registration dense
  // case, where routing actually flips, is covered in teddy_test).
  // Operators can still ask the analyzer to report shard density at their
  // own level: thousands of common-alphabet patterns against a tightened
  // threshold must surface the estimate.
  constexpr std::string_view kAlpha = "abcdefghijklmnopqrstuvwxyz0123456789";
  std::vector<engine::Database::Spec> specs;
  for (std::size_t i = 0; i < 2000; ++i) {
    std::string lit;
    lit.push_back(kAlpha[i % 36]);
    lit.push_back(kAlpha[(i / 36) % 36]);
    lit.push_back(kAlpha[(i / (36 * 36)) % 36]);
    specs.push_back({"d" + std::to_string(i), "T", lit});
  }
  const engine::Database db = engine::Database::compile(specs);

  // Default threshold: nothing to report, and nothing routed away.
  EXPECT_FALSE(db.prefilter().teddy_dense());
  EXPECT_EQ(analyze_database(db).count(Check::kDenseShard), 0u);

  Options opts;
  opts.dense_shard_threshold = 1e-3;
  const Report report = analyze_database(db, opts);
  EXPECT_GE(report.count(Check::kDenseShard), 1u);
  // Dense shards are a routing fact, not a deployment blocker.
  for (const Finding& f : report.findings) {
    if (f.check == Check::kDenseShard) {
      EXPECT_EQ(f.severity, Severity::kWarning);
      EXPECT_NE(f.message.find("dense shard"), std::string::npos);
    }
  }
}

TEST(AnalyzeReport, RendersTextAndJson) {
  const engine::Database db = engine::Database::compile({
      {"dup.first", "Evil", "tuvwxy"},
      {"dup.second", "Evil", "tuvwxy"},
  });
  const Report report = analyze_database(db);
  ASSERT_EQ(report.count(Check::kDuplicateSignature), 1u);

  std::ostringstream text;
  write_text(text, report);
  EXPECT_NE(text.str().find("[duplicate-signature]"), std::string::npos);
  EXPECT_NE(text.str().find("warning"), std::string::npos);

  std::ostringstream json;
  write_json(json, report);
  EXPECT_NE(json.str().find("\"check\":\"duplicate-signature\""),
            std::string::npos);
  EXPECT_NE(json.str().find("\"clean\":true"), std::string::npos);
}

}  // namespace
}  // namespace kizzle::analyze
