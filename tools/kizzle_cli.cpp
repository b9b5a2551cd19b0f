// kizzle — command-line front end for the library.
//
//   kizzle tokenize <file>             token table (paper Fig 8)
//   kizzle normalize <file>            AV-normalized scan text
//   kizzle unpack <file>               static unpack (multi-layer)
//   kizzle compile <file>...           signature from a sample cluster
//   kizzle fragments <file>...         multi-fragment signature (§V ext.)
//   kizzle scan [--stats] [--limits k=v[,k=v...]] <sigfile> <file>...
//                                      scan files against signatures
//                                      (sigfile: one regex per line,
//                                      optional "name<TAB>pattern", a
//                                      signature DB, or a .kpf artifact —
//                                      artifacts load the prebuilt
//                                      automaton and stream each file;
//                                      --limits keys: input-bytes,
//                                      vm-steps, wall-ms — each scan then
//                                      reports its ScanOutcome when it
//                                      was cut short)
//   kizzle lint [--json] [--strict] <artifact|sigdb|sigfile>
//                                      static analysis of a signature set
//                                      (backtracking bombs, weak/dead/
//                                      shadowed signatures, dense shards;
//                                      .kpf artifacts are also verified by
//                                      recompile-and-compare); exit 1 on
//                                      error-severity findings
//   kizzle pack <sigdb> <out.kpf>      compile a deployed signature DB to
//                                      a binary bundle artifact (prebuilt
//                                      literal-prefilter automaton; v2
//                                      layout, mmap/zero-copy loadable)
//   kizzle pack --delta <base-sigdb> <full-sigdb> <out.kzd>
//                                      diff two databases of one lineage
//                                      into a KZDELTA incremental artifact
//                                      (fingerprint-chained; hot-applies
//                                      via serve --watch)
//   kizzle gen <kit> [n] [seed]        emit synthetic landing pages
//                                      (kit: nuclear|sweetorange|angler|rig)
//   kizzle serve [--watch <a.kpf>] [--workers N] [--clients N]
//                [--duration-ms N] [--stream-fraction F] [--seed N]
//                [<artifact.kpf>]      run the async scan service under the
//                                      built-in load generator (mixed
//                                      one-shot/stream traffic, latency
//                                      percentiles on stderr); --watch
//                                      lint-verifies and hot-swaps the
//                                      watched file when it changes — full
//                                      .kpf bundles reload the epoch,
//                                      KZDELTA deltas apply incrementally
//                                      (compile only the added signatures)
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analyze/analyze.h"
#include "core/deploy.h"
#include "core/pipeline.h"
#include "core/sigdb.h"
#include "engine/engine.h"
#include "kitgen/families.h"
#include "kitgen/stream.h"
#include "match/pattern.h"
#include "serve/loadgen.h"
#include "serve/server.h"
#include "support/mapped_file.h"
#include "sig/compiler.h"
#include "sig/multi_fragment.h"
#include "support/table.h"
#include "text/html.h"
#include "text/lexer.h"
#include "text/normalize.h"
#include "unpack/unpackers.h"

namespace {

using namespace kizzle;

std::string read_file(const std::string& path) {
  if (path == "-") {
    std::ostringstream buf;
    buf << std::cin.rdbuf();
    return buf.str();
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot open " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// HTML documents contribute their inline scripts; bare JS passes through.
std::string script_of(const std::string& content) {
  const auto blocks = text::extract_scripts(content);
  if (blocks.empty()) return content;
  return text::inline_script_text(content);
}

int cmd_tokenize(const std::vector<std::string>& args) {
  if (args.size() != 1) {
    std::fprintf(stderr, "usage: kizzle tokenize <file>\n");
    return 2;
  }
  const std::string source = script_of(read_file(args[0]));
  Table table({"offset", "class", "text"});
  for (const text::Token& t : text::lex(source)) {
    std::string shown = t.text.substr(0, 48);
    if (shown.size() < t.text.size()) shown += "...";
    table.add_row({std::to_string(t.offset),
                   std::string(token_class_name(t.cls)), shown});
  }
  std::printf("%s", table.to_string().c_str());
  return 0;
}

int cmd_normalize(const std::vector<std::string>& args) {
  if (args.size() != 1) {
    std::fprintf(stderr, "usage: kizzle normalize <file>\n");
    return 2;
  }
  std::printf("%s\n", text::normalize_raw(read_file(args[0])).c_str());
  return 0;
}

int cmd_unpack(const std::vector<std::string>& args) {
  if (args.size() != 1) {
    std::fprintf(stderr, "usage: kizzle unpack <file>\n");
    return 2;
  }
  const std::string source = script_of(read_file(args[0]));
  const auto result = unpack::unpack_fixpoint(source);
  if (!result) {
    std::fprintf(stderr, "no registered unpacker matched\n");
    return 1;
  }
  std::fprintf(stderr, "[unpacked by '%s']\n",
               std::string(result->unpacker).c_str());
  std::printf("%s\n", result->text.c_str());
  return 0;
}

int cmd_compile(const std::vector<std::string>& args, bool fragments) {
  if (args.empty()) {
    std::fprintf(stderr, "usage: kizzle %s <file>...\n",
                 fragments ? "fragments" : "compile");
    return 2;
  }
  std::vector<std::vector<text::Token>> samples;
  for (const std::string& path : args) {
    samples.push_back(text::lex(script_of(read_file(path))));
  }
  if (fragments) {
    sig::MultiFragmentParams params;
    params.base.length_slack = 0.15;
    params.base.max_literal_run = 64;
    const sig::FragmentSignature signature =
        sig::compile_multi_fragment(samples, params);
    if (!signature.ok) {
      std::fprintf(stderr, "compilation failed: %s\n",
                   signature.failure.c_str());
      return 1;
    }
    std::fprintf(stderr, "[%zu fragments, %zu tokens, %zu chars]\n",
                 signature.fragments.size(), signature.total_tokens(),
                 signature.length());
    for (const sig::Signature& f : signature.fragments) {
      std::printf("%s\n", f.pattern.c_str());
    }
    return 0;
  }
  sig::CompilerParams params;
  params.length_slack = 0.15;
  params.max_literal_run = 64;
  const sig::Signature signature = sig::compile_signature(samples, params);
  if (!signature.ok) {
    std::fprintf(stderr, "compilation failed: %s\n", signature.failure.c_str());
    return 1;
  }
  std::fprintf(stderr, "[%zu tokens, %zu chars]\n", signature.token_length,
               signature.length());
  std::printf("%s\n", signature.pattern.c_str());
  return 0;
}

// --limits k=v[,k=v...]: the resource-governor knobs (engine/limits.h)
// that bound a scan against hostile input. Unknown keys are an error so a
// typo can't silently run ungoverned.
bool parse_limits(const std::string& spec, engine::ScanLimits& limits) {
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string_view item(spec.data() + pos, comma - pos);
    pos = comma + 1;
    const std::size_t eq = item.find('=');
    if (eq == std::string_view::npos) {
      std::fprintf(stderr, "--limits: expected key=value in '%.*s'\n",
                   static_cast<int>(item.size()), item.data());
      return false;
    }
    const std::string_view key = item.substr(0, eq);
    const std::string_view val = item.substr(eq + 1);
    std::uint64_t n = 0;
    const auto [ptr, ec] =
        std::from_chars(val.data(), val.data() + val.size(), n);
    if (ec != std::errc{} || ptr != val.data() + val.size()) {
      std::fprintf(stderr, "--limits: bad number '%.*s'\n",
                   static_cast<int>(val.size()), val.data());
      return false;
    }
    if (key == "input-bytes") {
      limits.max_input_bytes = static_cast<std::size_t>(n);
    } else if (key == "vm-steps") {
      limits.vm_step_budget = n;
    } else if (key == "wall-ms") {
      limits.wall_budget = std::chrono::milliseconds(n);
    } else {
      std::fprintf(stderr,
                   "--limits: unknown key '%.*s' "
                   "(known: input-bytes, vm-steps, wall-ms)\n",
                   static_cast<int>(key.size()), key.data());
      return false;
    }
  }
  return true;
}

// Appended to a verdict line whenever the governor cut the scan short, so
// a "clean" under exhausted budget is distinguishable from a real clean.
std::string outcome_suffix(const engine::ScanOutcome& out) {
  if (out.complete()) return "";
  std::string s = " [";
  s += engine::scan_status_name(out.status);
  s += " @ ";
  s += engine::scan_stage_name(out.limited_stage);
  s += "]";
  return s;
}

// --stats output: the per-scan observability counters from the scratch
// (engine::ScanStats), one stderr line per scanned file, so stdout stays
// the parseable verdict stream.
const char* first_stage_name(match::PrefilterFallback fallback) {
  switch (fallback) {
    case match::PrefilterFallback::kNone:
      return "simd";
    case match::PrefilterFallback::kForcedAutomaton:
      return "automaton";
    case match::PrefilterFallback::kTextTooLarge:
      return "automaton(large-text)";
    case match::PrefilterFallback::kNoLiterals:
      return "no-literals";
    case match::PrefilterFallback::kDenseLiterals:
      return "automaton(dense-literals)";
  }
  return "?";
}

void print_scan_stats(const engine::ScanStats& st) {
  std::fprintf(stderr,
               "  [first-stage=%s hits=%zu shards=%zu dense=%zu "
               "survivors=%zu candidates=%zu confirm: find=%zu program=%zu "
               "vm=%zu]\n",
               first_stage_name(st.prefilter.fallback),
               st.prefilter.first_stage_hits, st.prefilter.shards_scanned,
               st.prefilter.dense_shards, st.prefilter.literal_survivors,
               st.candidates, st.confirmed_literal,
               st.confirmed_literal_dominated, st.confirmed_vm);
}

// Artifact path: load the release-built automaton into an engine database
// (no per-process rebuild) and stream each file through an engine stream
// in fixed-size chunks — the raw file is never fully resident. One scratch
// serves every file.
int scan_with_artifact(const std::string& content,
                       const std::vector<std::string>& args,
                       bool show_stats, const engine::ScanLimits& limits) {
  std::istringstream artifact(content);
  const engine::Database db = engine::Database::from_artifact(artifact);
  engine::Scratch scratch;
  scratch.set_limits(limits);
  int exit_code = 0;
  std::string buf(1 << 16, '\0');
  std::string stage;
  for (std::size_t i = 1; i < args.size(); ++i) {
    std::ifstream file;
    std::istream* in = &std::cin;
    if (args[i] != "-") {
      file.open(args[i], std::ios::binary);
      if (!file) throw std::runtime_error("cannot open " + args[i]);
      in = &file;
    }
    engine::Stream stream = engine::open_stream(db, scratch);
    while (*in) {
      in->read(buf.data(), static_cast<std::streamsize>(buf.size()));
      const std::streamsize got = in->gcount();
      if (got <= 0) break;
      stage.clear();
      text::normalize_raw_append(
          std::string_view(buf.data(), static_cast<std::size_t>(got)), stage);
      stream.feed(stage);
    }
    std::optional<engine::MatchEvent> first;
    const engine::ScanOutcome out =
        stream.finish([&first](const engine::MatchEvent& event) {
          first = event;
          return engine::ScanDecision::Stop;
        });
    if (first) {
      exit_code = 1;
      std::printf("%-40s MATCH (%s @ %zu-%zu)%s\n", args[i].c_str(),
                  std::string(first->name).c_str(), first->begin, first->end,
                  outcome_suffix(out).c_str());
    } else {
      std::printf("%-40s clean%s\n", args[i].c_str(),
                  outcome_suffix(out).c_str());
    }
    if (show_stats) print_scan_stats(scratch.stats());
  }
  return exit_code;
}

int cmd_scan(const std::vector<std::string>& raw_args) {
  bool show_stats = false;
  engine::ScanLimits limits;
  std::vector<std::string> args;
  args.reserve(raw_args.size());
  for (std::size_t i = 0; i < raw_args.size(); ++i) {
    const std::string& a = raw_args[i];
    if (a == "--stats") {
      show_stats = true;
    } else if (a == "--limits") {
      if (i + 1 >= raw_args.size()) {
        std::fprintf(stderr, "--limits needs an argument\n");
        return 2;
      }
      if (!parse_limits(raw_args[++i], limits)) return 2;
    } else {
      args.push_back(a);
    }
  }
  if (args.size() < 2) {
    std::fprintf(stderr,
                 "usage: kizzle scan [--stats] [--limits k=v[,k=v...]] "
                 "<sigfile> <file>...\n");
    return 2;
  }
  // Each signature is compiled exactly once, straight into database
  // entries (per-line error reporting for the plain format).
  std::vector<engine::Database::Entry> entries;
  {
    const std::string content = read_file(args[0]);
    if (content.rfind(core::kDeltaMagic, 0) == 0) {
      std::fprintf(stderr,
                   "scan: %s is a KZDELTA delta artifact — it carries only "
                   "the increment over its base and cannot be scanned "
                   "alone; scan the full .kpf bundle, or hot-apply the "
                   "delta via `kizzle serve --watch`\n",
                   args[0].c_str());
      return 2;
    }
    if (content.rfind(core::kArtifactMagic, 0) == 0) {
      return scan_with_artifact(content, args, show_stats, limits);
    }
    if (content.rfind("# kizzle-signatures", 0) == 0) {
      // A signature database written by `kizzle demo` / save_signatures.
      // Compilation below is the validation; skip the loader's trial pass.
      std::istringstream is(content);
      for (const core::DeployedSignature& s :
           core::load_signatures(is, /*validate_patterns=*/false)) {
        entries.push_back(engine::Database::Entry{
            s.name, s.family, match::Pattern::compile(s.pattern)});
      }
    } else {
      // Plain format: one regex per line, optional "name<TAB>pattern".
      std::istringstream sigs(content);
      std::string line;
      std::size_t n = 0;
      while (std::getline(sigs, line)) {
        if (line.empty() || line[0] == '#') continue;
        std::string name = "sig" + std::to_string(++n);
        std::string pattern = line;
        const std::size_t tab = line.find('\t');
        if (tab != std::string::npos) {
          name = line.substr(0, tab);
          pattern = line.substr(tab + 1);
        }
        try {
          match::Pattern compiled = match::Pattern::compile(pattern);
          entries.push_back(engine::Database::Entry{std::move(name), "",
                                                    std::move(compiled)});
        } catch (const match::PatternError& e) {
          std::fprintf(stderr, "bad signature '%s': %s\n", name.c_str(),
                       e.what());
          return 2;
        }
      }
    }
  }
  // One compiled database, one recycled scratch, event-driven matching:
  // every matching signature is reported per file.
  const engine::Database db =
      engine::Database::from_entries(std::move(entries));
  engine::Scratch scratch;
  scratch.set_limits(limits);
  int exit_code = 0;
  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string normalized = text::normalize_raw(read_file(args[i]));
    std::string names;
    const engine::ScanOutcome out =
        engine::scan(db, normalized, scratch,
                     [&names](const engine::MatchEvent& event) {
                       if (!names.empty()) names += ", ";
                       names += event.name;
                       return engine::ScanDecision::Continue;
                     });
    if (names.empty()) {
      std::printf("%-40s clean%s\n", args[i].c_str(),
                  outcome_suffix(out).c_str());
    } else {
      exit_code = 1;
      std::printf("%-40s MATCH (%s)%s\n", args[i].c_str(), names.c_str(),
                  outcome_suffix(out).c_str());
    }
    if (show_stats) print_scan_stats(scratch.stats());
  }
  return exit_code;
}

// `pack --delta`: diff two signature databases of the same lineage into a
// KZDELTA artifact. The deployed set is append-only, so the base must be
// an exact prefix of the full set — anything else is a different lineage
// and is refused here rather than at some worker's hot-swap.
int cmd_pack_delta(const std::vector<std::string>& args) {
  if (args.size() != 3) {
    std::fprintf(stderr,
                 "usage: kizzle pack --delta <base-sigdb> <full-sigdb> "
                 "<out.kzd>\n");
    return 2;
  }
  const auto base = core::load_signatures(read_file(args[0]));
  const auto full = core::load_signatures(read_file(args[1]));
  if (base.size() > full.size()) {
    std::fprintf(stderr,
                 "pack --delta: base has %zu signatures but full has only "
                 "%zu — not the same lineage\n",
                 base.size(), full.size());
    return 1;
  }
  for (std::size_t i = 0; i < base.size(); ++i) {
    if (base[i].name != full[i].name || base[i].family != full[i].family ||
        base[i].pattern != full[i].pattern) {
      std::fprintf(stderr,
                   "pack --delta: base is not a prefix of full (first "
                   "divergence at #%zu: \"%s\" vs \"%s\") — the deployed "
                   "set is append-only, so these are different lineages\n",
                   i, base[i].name.c_str(), full[i].name.c_str());
      return 1;
    }
  }
  core::DeltaArtifact delta;
  delta.base_fingerprint = core::fingerprint(base);
  delta.result_fingerprint = core::fingerprint(full);
  delta.added.assign(full.begin() + static_cast<std::ptrdiff_t>(base.size()),
                     full.end());
  std::ofstream out(args[2], std::ios::binary);
  if (!out) throw std::runtime_error("cannot open " + args[2]);
  core::save_delta(out, delta);
  out.flush();
  if (!out) throw std::runtime_error("write failed: " + args[2]);
  std::fprintf(stderr,
               "[packed delta into %s: %zu-signature base + %zu added]\n",
               args[2].c_str(), base.size(), delta.added.size());
  return 0;
}

int cmd_pack(const std::vector<std::string>& args) {
  if (!args.empty() && args[0] == "--delta") {
    return cmd_pack_delta({args.begin() + 1, args.end()});
  }
  if (args.size() != 2) {
    std::fprintf(stderr,
                 "usage: kizzle pack <sigdb> <out.kpf>\n"
                 "       kizzle pack --delta <base-sigdb> <full-sigdb> "
                 "<out.kzd>\n");
    return 2;
  }
  const auto signatures = core::load_signatures(read_file(args[0]));
  std::ofstream out(args[1], std::ios::binary);
  if (!out) throw std::runtime_error("cannot open " + args[1]);
  core::save_artifact(out, signatures);
  out.flush();
  if (!out) throw std::runtime_error("write failed: " + args[1]);
  std::fprintf(stderr, "[packed %zu signatures into %s]\n", signatures.size(),
               args[1].c_str());
  return 0;
}

int cmd_gen(const std::vector<std::string>& args) {
  if (args.empty()) {
    std::fprintf(stderr, "usage: kizzle gen <nuclear|sweetorange|angler|rig>"
                         " [n] [seed]\n");
    return 2;
  }
  kitgen::KitFamily family;
  if (args[0] == "nuclear") {
    family = kitgen::KitFamily::Nuclear;
  } else if (args[0] == "sweetorange") {
    family = kitgen::KitFamily::SweetOrange;
  } else if (args[0] == "angler") {
    family = kitgen::KitFamily::Angler;
  } else if (args[0] == "rig") {
    family = kitgen::KitFamily::Rig;
  } else {
    std::fprintf(stderr, "unknown kit '%s'\n", args[0].c_str());
    return 2;
  }
  const std::size_t n = args.size() > 1 ? std::stoul(args[1]) : 1;
  const std::uint64_t seed = args.size() > 2 ? std::stoull(args[2]) : 1;
  auto gen = kitgen::make_kit_generator(family, seed);
  gen->begin_day(kitgen::kAug1);
  Rng rng(seed ^ 0xABCDEF);
  for (std::size_t i = 0; i < n; ++i) {
    if (n > 1) std::printf("<!-- sample %zu -->\n", i + 1);
    std::printf("%s\n", gen->sample_html(rng).c_str());
  }
  return 0;
}

int cmd_demo(const std::vector<std::string>& args) {
  const int days = args.empty() ? 3 : std::stoi(args[0]);
  const std::string artifact_path = args.size() > 1 ? args[1] : "";
  if (days < 1 || days > 31) {
    std::fprintf(stderr, "demo: days must be in [1,31]\n");
    return 2;
  }
  kitgen::StreamConfig scfg;
  scfg.volume_scale = 0.3;
  kitgen::StreamSimulator sim(scfg);
  core::KizzlePipeline pipeline(core::PipelineConfig{}, 20140801);
  for (const auto& [family, payload] : sim.seed_corpus()) {
    pipeline.seed_family(std::string(kitgen::family_name(family)), 0.55,
                         payload);
  }
  for (int day = kitgen::kAug1; day < kitgen::kAug1 + days; ++day) {
    const auto batch = sim.generate_day(day);
    std::vector<std::string> htmls;
    for (const auto& s : batch.samples) htmls.push_back(s.html);
    const auto report = pipeline.process_day(day, htmls);
    const core::StageSeconds& st = report.stage_seconds;
    std::fprintf(stderr,
                 "[%s] %zu samples, %zu clusters, %zu signatures deployed "
                 "(ingest %.3fs, dedup %.3fs, cluster %.3fs, label %.3fs)\n",
                 kitgen::date_label(day).c_str(), report.n_samples,
                 report.n_clusters, pipeline.signatures().size(), st.ingest,
                 st.dedup, st.cluster, st.label);
  }
  // The deployable artifact: a signature database on stdout, and — when a
  // path is given — the binary bundle artifact with the release-built
  // automaton for the deployment channels.
  std::printf("%s", core::save_signatures(pipeline.signatures()).c_str());
  if (!artifact_path.empty()) {
    std::ofstream out(artifact_path, std::ios::binary);
    if (!out) throw std::runtime_error("cannot open " + artifact_path);
    pipeline.export_artifact(out);
    out.flush();
    if (!out) throw std::runtime_error("write failed: " + artifact_path);
    std::fprintf(stderr, "[bundle artifact written to %s]\n",
                 artifact_path.c_str());
  }
  return 0;
}

// ------------------------------- serve -------------------------------

// Runs the asynchronous scan service (serve/server.h) and drives it with
// the built-in load generator: a kitgen day's traffic replayed as mixed
// one-shot/chunked-stream requests by closed-loop clients. With --watch,
// an ArtifactWatcher polls the given `.kpf` and hot-swaps it through the
// lint gate while the load runs — replace the file (atomic rename) from
// another process to exercise a live release. All reporting goes to
// stderr as parseable `[serve] key=value` lines (the smoke script greps
// them); exit 1 when any accepted request failed or nothing completed.
int cmd_serve(const std::vector<std::string>& raw_args) {
  serve::ServerConfig scfg;
  scfg.workers = 2;
  serve::LoadConfig lcfg;
  lcfg.clients = 4;
  lcfg.duration = std::chrono::milliseconds(2000);
  serve::FixtureConfig fcfg;
  std::string watch_path;
  std::chrono::milliseconds poll{200};
  std::string artifact_path;

  const auto num = [](const std::string& v) { return std::stoull(v); };
  for (std::size_t i = 0; i < raw_args.size(); ++i) {
    const std::string& a = raw_args[i];
    const auto next = [&]() -> const std::string& {
      if (i + 1 >= raw_args.size()) {
        throw std::runtime_error("serve: missing value for " + a);
      }
      return raw_args[++i];
    };
    if (a == "--watch") {
      watch_path = next();
    } else if (a == "--workers") {
      scfg.workers = static_cast<std::size_t>(num(next()));
    } else if (a == "--queue-capacity") {
      scfg.queue_capacity = static_cast<std::size_t>(num(next()));
    } else if (a == "--clients") {
      lcfg.clients = static_cast<std::size_t>(num(next()));
    } else if (a == "--duration-ms") {
      lcfg.duration = std::chrono::milliseconds(num(next()));
    } else if (a == "--stream-fraction") {
      lcfg.stream_fraction = std::stod(next());
    } else if (a == "--seed") {
      fcfg.seed = num(next());
      lcfg.seed = fcfg.seed;
    } else if (a == "--poll-ms") {
      poll = std::chrono::milliseconds(num(next()));
    } else if (!a.empty() && a[0] == '-') {
      std::fprintf(stderr,
                   "usage: kizzle serve [--watch <artifact.kpf>] "
                   "[--workers N] [--queue-capacity N] [--clients N]\n"
                   "                    [--duration-ms N] "
                   "[--stream-fraction F] [--seed N] [--poll-ms N]\n"
                   "                    [<artifact.kpf>]\n");
      return 2;
    } else {
      artifact_path = a;
    }
  }

  // The corpus (and, absent an artifact argument, the database) comes from
  // the deterministic serve fixture: one kitgen day compiled by the
  // pipeline, normalized for scanning.
  const serve::ServeFixture fixture = serve::make_fixture(fcfg);
  std::shared_ptr<const engine::Database> db = fixture.database;
  if (!artifact_path.empty()) {
    // Map the artifact instead of streaming it: a v2 bundle serves its
    // automaton tables straight out of the page cache (zero-copy), and a
    // fleet of workers loading the same release shares the pages.
    auto mapped = std::make_shared<const support::MappedFile>(
        support::MappedFile::open(artifact_path));
    db = std::make_shared<const engine::Database>(
        engine::Database::from_artifact(std::move(mapped)));
  }

  serve::ScanServer server(db, scfg);
  std::optional<serve::ArtifactWatcher> watcher;
  if (!watch_path.empty()) watcher.emplace(server, watch_path, poll);
  std::fprintf(stderr,
               "[serve] workers=%zu queue=%zu signatures=%zu docs=%zu "
               "epoch=%llu watch=%s\n",
               server.worker_count(), scfg.queue_capacity, db->size(),
               fixture.docs.size(),
               static_cast<unsigned long long>(server.epoch()),
               watch_path.empty() ? "-" : watch_path.c_str());

  const serve::LoadReport report =
      serve::run_load(server, fixture.docs, lcfg);
  server.drain();
  serve::ArtifactWatcher::Stats wstats;
  if (watcher) {
    wstats = watcher->stats();
    watcher->stop();
  }
  const serve::ServerStats stats = server.stats();
  server.stop();

  using ull = unsigned long long;
  std::fprintf(stderr,
               "[serve] completed=%llu one-shot=%llu stream=%llu "
               "matched=%llu shed=%llu failed=%llu deadline-expired=%llu\n",
               static_cast<ull>(report.completed),
               static_cast<ull>(report.one_shot),
               static_cast<ull>(report.stream),
               static_cast<ull>(report.matched), static_cast<ull>(report.shed),
               static_cast<ull>(report.failed),
               static_cast<ull>(report.deadline_expired));
  std::fprintf(stderr,
               "[serve] rps=%.1f p50-us=%.1f p99-us=%.1f p999-us=%.1f\n",
               report.rps(),
               static_cast<double>(report.latency.percentile(0.50)) / 1e3,
               static_cast<double>(report.latency.percentile(0.99)) / 1e3,
               static_cast<double>(report.latency.percentile(0.999)) / 1e3);
  std::fprintf(stderr,
               "[serve] epoch-swaps=%llu swaps-rejected=%llu final-epoch=%llu "
               "batches=%llu batched-jobs=%llu\n",
               static_cast<ull>(stats.epoch_swaps),
               static_cast<ull>(stats.swaps_rejected),
               static_cast<ull>(server.epoch()),
               static_cast<ull>(stats.batches),
               static_cast<ull>(stats.batched_jobs));
  if (watcher) {
    std::fprintf(stderr, "[serve] watch-swaps=%llu watch-rejected=%llu\n",
                 static_cast<ull>(wstats.swaps),
                 static_cast<ull>(wstats.rejected));
  }
  return (report.failed > 0 || report.completed == 0) ? 1 : 0;
}

// ------------------------------- lint -------------------------------

// Static analysis over a signature set (analyze/analyze.h): text findings
// to stdout (or one JSON object with --json, for CI), exit 1 on
// error-severity findings — with --strict, on warnings too. Accepts the
// same inputs as `kizzle scan`'s sigfile argument: a `.kpf` bundle
// (additionally verified by recompile-and-compare), a signature DB, or a
// plain regex-per-line file.
int cmd_lint(const std::vector<std::string>& raw_args) {
  bool json = false;
  bool strict = false;
  std::vector<std::string> args;
  for (const std::string& a : raw_args) {
    if (a == "--json") {
      json = true;
    } else if (a == "--strict") {
      strict = true;
    } else {
      args.push_back(a);
    }
  }
  if (args.size() != 1) {
    std::fprintf(stderr,
                 "usage: kizzle lint [--json] [--strict] "
                 "<artifact|sigdb|sigfile>\n");
    return 2;
  }
  const std::string content = read_file(args[0]);
  analyze::Report report;
  if (content.rfind(core::kDeltaMagic, 0) == 0) {
    std::fprintf(stderr,
                 "lint: %s is a KZDELTA delta artifact — it only makes "
                 "sense against the base it extends, which the serve "
                 "hot-swap gate lints automatically (analyze_delta); lint "
                 "the full .kpf bundle it produces instead\n",
                 args[0].c_str());
    return 2;
  }
  if (content.rfind(core::kArtifactMagic, 0) == 0) {
    std::istringstream is(content);
    report = analyze::analyze_artifact(is);
  } else if (content.rfind("# kizzle-signatures", 0) == 0) {
    std::istringstream is(content);
    std::vector<engine::Database::Entry> entries;
    for (const core::DeployedSignature& s :
         core::load_signatures(is, /*validate_patterns=*/false)) {
      entries.push_back(engine::Database::Entry{
          s.name, s.family, match::Pattern::compile(s.pattern)});
    }
    report = analyze::analyze_database(
        engine::Database::from_entries(std::move(entries)));
  } else {
    // Plain format: one regex per line, optional "name<TAB>pattern".
    std::vector<engine::Database::Spec> specs;
    std::istringstream sigs(content);
    std::string line;
    std::size_t n = 0;
    while (std::getline(sigs, line)) {
      if (line.empty() || line[0] == '#') continue;
      ++n;
      std::string name = "sig" + std::to_string(n);
      std::string pattern = line;
      const auto tab = line.find('\t');
      if (tab != std::string::npos) {
        name = line.substr(0, tab);
        pattern = line.substr(tab + 1);
      }
      specs.push_back(engine::Database::Spec{name, "", pattern});
    }
    report = analyze::analyze_database(engine::Database::compile(specs));
  }
  std::ostringstream os;
  if (json) {
    analyze::write_json(os, report);
  } else {
    analyze::write_text(os, report);
  }
  std::fputs(os.str().c_str(), stdout);
  return (!report.clean() || (strict && report.warnings() > 0)) ? 1 : 0;
}

int usage() {
  std::fprintf(stderr,
               "kizzle — exploit-kit signature compiler\n"
               "  kizzle tokenize <file>\n"
               "  kizzle normalize <file>\n"
               "  kizzle unpack <file>\n"
               "  kizzle compile <file>...\n"
               "  kizzle fragments <file>...\n"
               "  kizzle scan [--stats] [--limits k=v,...] "
               "<sigfile> <file>...\n"
               "  kizzle lint [--json] [--strict] <artifact|sigdb|sigfile>\n"
               "                            static analysis: backtracking\n"
               "                            bombs, weak/dead/shadowed\n"
               "                            signatures, dense prefilter\n"
               "                            shards, artifact verification\n"
               "                            (exit 1 on error findings)\n"
               "  kizzle pack <sigdb> <out.kpf>\n"
               "  kizzle pack --delta <base-sigdb> <full-sigdb> <out.kzd>\n"
               "                            diff two databases of one\n"
               "                            lineage into an incremental\n"
               "                            KZDELTA artifact\n"
               "  kizzle gen <kit> [n] [seed]\n"
               "  kizzle demo [days] [out.kpf]\n"
               "                            run the pipeline on a simulated\n"
               "                            stream, emit a signature DB (and\n"
               "                            optionally a bundle artifact)\n"
               "  kizzle serve [--watch <artifact.kpf>] [--workers N]\n"
               "               [--clients N] [--duration-ms N]\n"
               "               [--stream-fraction F] [--seed N] "
               "[<artifact.kpf>]\n"
               "                            run the async scan service under\n"
               "                            built-in mixed load; --watch\n"
               "                            hot-swaps a changed artifact\n"
               "                            (.kpf full reload or KZDELTA\n"
               "                            incremental apply) through the\n"
               "                            lint gate mid-run\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  try {
    if (cmd == "tokenize") return cmd_tokenize(args);
    if (cmd == "normalize") return cmd_normalize(args);
    if (cmd == "unpack") return cmd_unpack(args);
    if (cmd == "compile") return cmd_compile(args, false);
    if (cmd == "fragments") return cmd_compile(args, true);
    if (cmd == "scan") return cmd_scan(args);
    if (cmd == "lint") return cmd_lint(args);
    if (cmd == "pack") return cmd_pack(args);
    if (cmd == "gen") return cmd_gen(args);
    if (cmd == "demo") return cmd_demo(args);
    if (cmd == "serve") return cmd_serve(args);
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
