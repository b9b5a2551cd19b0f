// scan_stream: a SOC-style view of one simulated day.
//
// Runs Kizzle and the simulated manual-AV engine side by side on a daily
// grayware batch and prints the detection log: which engine flagged which
// sample, with ground truth for comparison.
//
// Build & run:  ./build/examples/scan_stream [days]
#include <cstdio>
#include <cstdlib>

#include "av/analyst.h"
#include "core/pipeline.h"
#include "engine/engine.h"
#include "kitgen/stream.h"
#include "text/normalize.h"

int main(int argc, char** argv) {
  using namespace kizzle;
  const int n_days = argc > 1 ? std::atoi(argv[1]) : 2;

  kitgen::StreamConfig scfg;
  scfg.volume_scale = 0.15;  // keep the log readable
  kitgen::StreamSimulator sim(scfg);
  core::KizzlePipeline pipeline(core::PipelineConfig{}, 5);
  for (const auto& [family, payload] : sim.seed_corpus()) {
    pipeline.seed_family(std::string(kitgen::family_name(family)), 0.60,
                         payload);
  }
  av::ManualAvEngine av_engine;
  av::Analyst analyst;
  analyst.install_initial_signatures(sim, av_engine);

  // The SOC's scan loop is deployment-side code: the pipeline maintains
  // the compiled engine::Database incrementally across releases, and every
  // sample is scanned with the same recycled Scratch — the steady-state
  // per-sample cost is one first-stage pass plus candidate confirmation.
  engine::Scratch scratch;
  for (int day = kitgen::kAug1; day < kitgen::kAug1 + n_days; ++day) {
    const auto batch = sim.generate_day(day);
    analyst.observe_day(day, sim, av_engine);
    std::vector<std::string> htmls;
    for (const auto& s : batch.samples) htmls.push_back(s.html);
    const auto report = pipeline.process_day(day, htmls);
    const engine::Database& db = pipeline.database();

    std::printf("=== %s — %zu samples, %zu clusters, %zu signatures live ===\n",
                kitgen::date_label(day).c_str(), batch.samples.size(),
                report.n_clusters, db.size());
    std::size_t agree = 0;
    std::size_t shown = 0;
    for (const auto& s : batch.samples) {
      const std::string norm = text::normalize_raw(s.html);
      const auto kz = engine::first_match(db, norm, scratch);
      const auto av = av_engine.match(day, norm);
      const bool malicious = s.truth != kitgen::Truth::Benign;
      if (kz.has_value() == malicious && av.has_value() == malicious) {
        ++agree;
        if (!malicious) continue;  // don't print thousands of clean lines
      }
      if (++shown > 40) continue;
      std::printf("  %-18s truth=%-12s kizzle=%-18s av=%s\n", s.id.c_str(),
                  std::string(kitgen::truth_name(s.truth)).c_str(),
                  kz ? std::string(kz->name).c_str() : "-",
                  av ? av->name.c_str() : "-");
    }
    std::printf("  (%zu samples where both engines agreed with ground "
                "truth)\n\n",
                agree);
  }
  return 0;
}
