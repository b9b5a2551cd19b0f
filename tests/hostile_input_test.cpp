// Hostile-input hardening tests (ROADMAP item 4): the ingest path fed
// systematically corrupted bytes.
//
//   * mutation corpus — starting from a valid `.kpf` v3 bundle and a
//     valid KZDELTA, every byte is bit-flipped and every prefix truncation
//     is tried; each mutant must produce either a successful load or a
//     kizzle::Error subclass. Any other exception type, crash,
//     hang or sanitizer report (the asan/ubsan CI job runs this test) is
//     a regression.
//   * targeted header-field mutations — magic, version, endianness,
//     declared sizes, the lineage fingerprint — must map to the
//     documented taxonomy classes (ArtifactError for malformed,
//     ResourceError for implausible sizes); retired layouts (v1/v2
//     bundles with prebuilt tables, bare KZPF prefilter blobs) are
//     refused with ArtifactError.
//   * committed-corpus replay — every seed and regression input under
//     fuzz/ (KIZZLE_FUZZ_DIR) is replayed through its loader on every
//     ctest run, so fuzzing findings stay fixed forever.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analyze/analyze.h"
#include "core/sigdb.h"
#include "match/pattern.h"
#include "support/errors.h"
#include "support/hash.h"
#include "text/normalize.h"
#include "unpack/unpackers.h"

namespace kizzle {
namespace {

std::vector<core::DeployedSignature> sample_signatures() {
  core::DeployedSignature a;
  a.name = "KZ.RIG.1";
  a.family = "RIG";
  a.issued_day = 64;
  a.token_length = 120;
  a.pattern = "documentwriteunescape[0-9a-f]{2,8}";
  core::DeployedSignature b;
  b.name = "KZ.Nuclear.2";
  b.family = "Nuclear";
  b.issued_day = 77;
  b.token_length = 88;
  b.pattern = "evalstringfromcharcode";
  return {a, b};
}

std::string valid_artifact_bytes() {
  std::ostringstream os;
  core::save_artifact(os, sample_signatures());
  return os.str();
}

// Runs one loader invocation on `bytes`. Success and kizzle::Error are
// both acceptable; anything else fails the test with the mutation's
// coordinates.
template <typename LoadFn>
void expect_typed_rejection(const std::string& bytes, LoadFn load,
                            const char* what, std::size_t at) {
  try {
    load(bytes);
  } catch (const Error&) {
    // The taxonomy working as designed.
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << " at offset " << at
                  << ": escaped the taxonomy with: " << e.what();
  } catch (...) {
    ADD_FAILURE() << what << " at offset " << at
                  << ": escaped with a non-exception throw";
  }
}

void load_artifact_bytes(const std::string& bytes) {
  std::istringstream is(bytes);
  (void)core::load_artifact(is);
}

template <typename LoadFn>
void mutation_sweep(const std::string& valid, LoadFn load) {
  // Sanity: the unmutated bytes load.
  ASSERT_NO_THROW(load(valid));
  // Every prefix truncation (byte granularity).
  for (std::size_t cut = 0; cut < valid.size(); ++cut) {
    expect_typed_rejection(valid.substr(0, cut), load, "truncation", cut);
  }
  // A bit flip in every byte (rotating bit position keeps the sweep to
  // one load per byte while still exercising every bit lane).
  for (std::size_t i = 0; i < valid.size(); ++i) {
    std::string mutant = valid;
    mutant[i] = static_cast<char>(
        static_cast<unsigned char>(mutant[i]) ^ (1u << (i % 8)));
    expect_typed_rejection(mutant, load, "bit flip", i);
  }
}

std::string valid_delta_bytes() {
  const auto sigs = sample_signatures();
  const std::vector<core::DeployedSignature> base(sigs.begin(),
                                                  sigs.begin() + 1);
  core::DeltaArtifact delta;
  delta.base_fingerprint = core::fingerprint(base);
  delta.added = {sigs[1]};
  delta.result_fingerprint = core::fingerprint(sigs);
  std::ostringstream os;
  core::save_delta(os, delta);
  return os.str();
}

void load_delta_bytes(const std::string& bytes) {
  std::istringstream is(bytes);
  (void)core::load_delta(is);
}

TEST(HostileInput, ArtifactSurvivesFullMutationSweep) {
  mutation_sweep(valid_artifact_bytes(), load_artifact_bytes);
}

TEST(HostileInput, DeltaSurvivesFullMutationSweep) {
  mutation_sweep(valid_delta_bytes(), load_delta_bytes);
}

// --------------------- targeted header mutations ---------------------

std::string with_u64_at(std::string bytes, std::size_t offset,
                        std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    bytes[offset + static_cast<std::size_t>(i)] =
        static_cast<char>((value >> (8 * i)) & 0xFF);
  }
  return bytes;
}

TEST(HostileInput, ArtifactBadMagicIsArtifactError) {
  std::string bytes = valid_artifact_bytes();
  bytes[0] = 'X';
  EXPECT_THROW(load_artifact_bytes(bytes), ArtifactError);
}

TEST(HostileInput, ArtifactBadVersionIsArtifactError) {
  std::string bytes = valid_artifact_bytes();
  bytes[8] = 0x7F;  // version field follows the 8-byte magic
  EXPECT_THROW(load_artifact_bytes(bytes), ArtifactError);
}

TEST(HostileInput, ArtifactForeignEndiannessIsArtifactError) {
  std::string bytes = valid_artifact_bytes();
  std::swap(bytes[12], bytes[15]);  // byte-swap the endian sentinel
  EXPECT_THROW(load_artifact_bytes(bytes), ArtifactError);
}

TEST(HostileInput, ArtifactHugeDeclaredDbIsResourceError) {
  // db_len lives at offset 16 (magic 8 + version 4 + endian 4). A
  // declared multi-terabyte database must be refused before allocation.
  const std::string bytes =
      with_u64_at(valid_artifact_bytes(), 16, std::uint64_t{1} << 40);
  EXPECT_THROW(load_artifact_bytes(bytes), ResourceError);
}

// Re-seals `bytes` (a v3 bundle) after a header edit: the checksum is the
// trailing u64 over everything before it, so the edit reaches the check
// it targets instead of dying at the seal.
std::string resealed(std::string bytes) {
  const std::size_t sealed = bytes.size() - 8;
  std::uint64_t sum = kChecksumBasis;
  checksum_update(sum, bytes.data(), sealed);
  return with_u64_at(std::move(bytes), sealed, sum);
}

TEST(HostileInput, RetiredArtifactVersionsAreArtifactErrors) {
  for (const std::uint32_t version : {1u, 2u, 4u}) {
    std::string bytes = valid_artifact_bytes();
    for (int i = 0; i < 4; ++i) {
      bytes[8 + static_cast<std::size_t>(i)] =
          static_cast<char>((version >> (8 * i)) & 0xFF);
    }
    try {
      load_artifact_bytes(resealed(bytes));
      ADD_FAILURE() << "version " << version << " accepted";
    } catch (const ArtifactError& e) {
      EXPECT_NE(std::string(e.what()).find(std::to_string(version)),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(HostileInput, BareKzpfBlobIsArtifactError) {
  std::string bytes = valid_artifact_bytes();
  bytes.replace(0, 8, "KZPF\x02\0\0\0", 8);
  EXPECT_THROW(load_artifact_bytes(bytes), ArtifactError);
}

TEST(HostileInput, FingerprintMismatchIsArtifactError) {
  // A sealed artifact whose recorded lineage is not its signature set's.
  const std::string good = valid_artifact_bytes();
  const std::size_t fp_at = good.size() - 16;
  std::uint64_t fp = 0;
  std::memcpy(&fp, good.data() + fp_at, sizeof fp);
  EXPECT_THROW(load_artifact_bytes(resealed(with_u64_at(good, fp_at, fp ^ 1))),
               ArtifactError);
}

TEST(HostileInput, TypedErrorsShareTheCommonBase) {
  // One handler for "any clean rejection" is the whole point of the base
  // class; verify the hierarchy is wired the way fuzz harnesses assume.
  EXPECT_THROW(load_artifact_bytes("KZBUNDLEgarbage"), Error);
  EXPECT_THROW(load_artifact_bytes("KZBUNDLEgarbage"), std::runtime_error);
  EXPECT_THROW(load_delta_bytes("XXXX"), Error);
}

// ------------------------- corpus replay -------------------------

std::vector<std::filesystem::path> corpus_files(const std::string& target) {
  std::vector<std::filesystem::path> files;
  for (const char* root : {"corpus", "regressions"}) {
    const std::filesystem::path dir =
        std::filesystem::path(KIZZLE_FUZZ_DIR) / root / target;
    if (!std::filesystem::is_directory(dir)) continue;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      if (entry.is_regular_file() &&
          entry.path().filename() != ".gitkeep") {
        files.push_back(entry.path());
      }
    }
  }
  return files;
}

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(HostileInput, CommittedArtifactCorpusReplays) {
  const auto files = corpus_files("load_artifact");
  ASSERT_FALSE(files.empty()) << "seed corpus missing from fuzz/";
  std::size_t retired = 0;
  for (const auto& file : files) {
    const std::string name = file.filename().string();
    if (name.rfind("v1_", 0) == 0 || name.rfind("v2_", 0) == 0 ||
        name.rfind("kzpf_", 0) == 0) {
      // Artifacts of retired layouts, committed as they were released.
      EXPECT_THROW(load_artifact_bytes(slurp(file)), ArtifactError) << file;
      ++retired;
    } else {
      expect_typed_rejection(slurp(file), load_artifact_bytes,
                             file.c_str(), 0);
    }
  }
  EXPECT_EQ(retired, 3u) << "v1, v2 and KZPF refusal cases missing";
}

TEST(HostileInput, CommittedNormalizeCorpusNeverThrows) {
  const auto files = corpus_files("normalize");
  ASSERT_FALSE(files.empty()) << "seed corpus missing from fuzz/";
  for (const auto& file : files) {
    const std::string bytes = slurp(file);
    EXPECT_NO_THROW({
      (void)text::normalize_raw(bytes);
      (void)text::normalize_js(bytes);
      (void)text::normalize_document(bytes);
    }) << file;
  }
}

TEST(HostileInput, CommittedUnpackCorpusNeverThrows) {
  const auto files = corpus_files("unpack");
  ASSERT_FALSE(files.empty()) << "seed corpus missing from fuzz/";
  for (const auto& file : files) {
    const std::string bytes = slurp(file);
    EXPECT_NO_THROW((void)unpack::unpack_fixpoint(bytes)) << file;
  }
}

TEST(HostileInput, CommittedArtifactV3CorpusReplays) {
  const auto files = corpus_files("artifact_v3");
  ASSERT_FALSE(files.empty()) << "seed corpus missing from fuzz/";
  for (const auto& file : files) {
    const std::string bytes = slurp(file);
    if (bytes.size() >= 8 && bytes.compare(0, 8, core::kDeltaMagic) == 0) {
      expect_typed_rejection(bytes, load_delta_bytes, file.c_str(), 0);
    } else {
      expect_typed_rejection(bytes, load_artifact_bytes, file.c_str(), 0);
    }
  }
}

TEST(HostileInput, CommittedLintCorpusReplays) {
  const auto files = corpus_files("lint");
  ASSERT_FALSE(files.empty()) << "seed corpus missing from fuzz/";
  const auto lint_bytes = [](const std::string& bytes) {
    std::istringstream is(bytes);
    (void)analyze::analyze_artifact(is);
  };
  for (const auto& file : files) {
    expect_typed_rejection(slurp(file), lint_bytes, file.c_str(), 0);
  }
  // The mutation sweep over a valid bundle: the linter must diagnose or
  // reject every near-valid mutant, never crash or hang on one.
  mutation_sweep(valid_artifact_bytes(), lint_bytes);
}

// fuzz_pattern's contract on its committed seeds (signature source, '\n',
// sample text): the source compiles, and the factor-gated confirm_span
// reports exactly the ungated VM's span.
TEST(HostileInput, CommittedPatternCorpusReplays) {
  const auto files = corpus_files("pattern");
  ASSERT_FALSE(files.empty()) << "seed corpus missing from fuzz/";
  match::VmScratch scratch;
  for (const auto& file : files) {
    const std::string bytes = slurp(file);
    const std::size_t cut = bytes.find('\n');
    ASSERT_NE(cut, std::string::npos) << file;
    const std::string_view text = std::string_view(bytes).substr(cut + 1);
    const match::Pattern p = match::Pattern::compile(bytes.substr(0, cut));
    const match::SpanResult want = p.search_span(text, scratch);
    const match::SpanResult got = p.confirm_span(text, scratch);
    ASSERT_FALSE(want.budget_exceeded) << file;
    EXPECT_EQ(got.matched, want.matched) << file;
    EXPECT_EQ(got.begin, want.begin) << file;
    EXPECT_EQ(got.end, want.end) << file;
  }
}

}  // namespace
}  // namespace kizzle
