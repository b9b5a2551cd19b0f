#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/pipeline.h"
#include "core/sigdb.h"
#include "engine/engine.h"
#include "support/errors.h"

namespace kizzle::core {
namespace {

std::vector<DeployedSignature> sample_set() {
  DeployedSignature a;
  a.name = "KZ.RIG.1";
  a.family = "RIG";
  a.issued_day = 64;
  a.token_length = 120;
  a.pattern = "var(?<var0>[0-9a-zA-Z]{3,7})=;function";
  DeployedSignature b;
  b.name = "KZ.Nuclear.2";
  b.family = "Nuclear";
  b.issued_day = 77;
  b.token_length = 88;
  b.pattern = "\\(ev3fwrwg4al\\)";
  return {a, b};
}

TEST(SigDb, RoundTrip) {
  const auto original = sample_set();
  const std::string text = save_signatures(original);
  const auto loaded = load_signatures(text);
  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(loaded[i].name, original[i].name);
    EXPECT_EQ(loaded[i].family, original[i].family);
    EXPECT_EQ(loaded[i].issued_day, original[i].issued_day);
    EXPECT_EQ(loaded[i].token_length, original[i].token_length);
    EXPECT_EQ(loaded[i].pattern, original[i].pattern);
  }
}

TEST(SigDb, LoadedSetDrivesADatabase) {
  const auto loaded = load_signatures(save_signatures(sample_set()));
  const engine::Database db = engine::Database::compile(loaded);
  engine::Scratch scratch;
  EXPECT_TRUE(
      engine::first_match(db, "xxx(ev3fwrwg4al)yyy", scratch).has_value());
  EXPECT_FALSE(engine::first_match(db, "clean content", scratch).has_value());
}

TEST(SigDb, DeterministicOutput) {
  EXPECT_EQ(save_signatures(sample_set()), save_signatures(sample_set()));
}

TEST(SigDb, EmptySetHasHeaderOnly) {
  const std::string text = save_signatures({});
  EXPECT_EQ(text, "# kizzle-signatures v1\n");
  EXPECT_TRUE(load_signatures(text).empty());
}

TEST(SigDb, CommentsAndBlankLinesSkipped) {
  const std::string text =
      "# kizzle-signatures v1\n\n# a comment\n"
      "S\tF\t1\t2\tabc\n";
  const auto loaded = load_signatures(text);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0].name, "S");
}

TEST(SigDb, RejectsMissingHeader) {
  EXPECT_THROW(load_signatures(std::string("S\tF\t1\t2\tabc\n")),
               std::runtime_error);
}

TEST(SigDb, RejectsWrongFieldCount) {
  EXPECT_THROW(
      load_signatures(std::string("# kizzle-signatures v1\nS\tF\t1\n")),
      std::runtime_error);
}

TEST(SigDb, RejectsBadNumbers) {
  EXPECT_THROW(load_signatures(std::string(
                   "# kizzle-signatures v1\nS\tF\tx\t2\tabc\n")),
               std::runtime_error);
}

TEST(SigDb, RejectsNonCompilingPattern) {
  EXPECT_THROW(load_signatures(std::string(
                   "# kizzle-signatures v1\nS\tF\t1\t2\t(unclosed\n")),
               std::runtime_error);
}

TEST(SigDb, RejectsTabInPattern) {
  DeployedSignature s;
  s.name = "S";
  s.family = "F";
  s.pattern = "a\tb";
  EXPECT_THROW(save_signatures({s}), std::invalid_argument);
}

// ------------------------ typed-error taxonomy ------------------------

TEST(SigDb, ParseFailuresAreTypedInputErrors) {
  EXPECT_THROW(load_signatures(std::string("bogus header\n")), InputError);
  EXPECT_THROW(
      load_signatures(std::string("# kizzle-signatures v1\nS\tF\t1\n")),
      InputError);
  EXPECT_THROW(load_signatures(std::string(
                   "# kizzle-signatures v1\nS\tF\tx\t2\tabc\n")),
               InputError);
  EXPECT_THROW(load_signatures(std::string(
                   "# kizzle-signatures v1\nS\tF\t1\t2\t(unclosed\n")),
               InputError);
}

TEST(SigDb, RejectsNumberWithTrailingGarbage) {
  // std::stoi-era prefix parsing accepted "12junk"; from_chars must not.
  EXPECT_THROW(load_signatures(std::string(
                   "# kizzle-signatures v1\nS\tF\t12junk\t2\tabc\n")),
               InputError);
}

TEST(SigDb, ErrorsCarryLineAndByteOffset) {
  // Header (22+1 bytes), one good line, then the bad one: the message
  // must pin both the line number and the byte offset of its first byte.
  const std::string good_line = "S\tF\t1\t2\tabc\n";
  const std::string text =
      "# kizzle-signatures v1\n" + good_line + "BAD LINE\n";
  const std::size_t expect_offset = 23 + good_line.size();
  try {
    load_signatures(text);
    FAIL() << "expected InputError";
  } catch (const InputError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 3"), std::string::npos) << what;
    EXPECT_NE(what.find("byte " + std::to_string(expect_offset)),
              std::string::npos)
        << what;
  }
}

TEST(SigDb, OverlongLineIsResourceError) {
  const std::string text = "# kizzle-signatures v1\n# " +
                           std::string(kMaxSignatureLineBytes, 'x') + "\n";
  EXPECT_THROW(load_signatures(text), ResourceError);
}

TEST(SigDb, SignatureCountCapIsResourceError) {
  // validate_patterns = false: the cap must trip on parsing alone,
  // without paying a million trial compilations first.
  std::string text = "# kizzle-signatures v1\n";
  const std::string line = "S\tF\t1\t2\tabc\n";
  text.reserve(text.size() + line.size() * (kMaxSignatureCount + 1));
  for (std::size_t i = 0; i <= kMaxSignatureCount; ++i) text += line;
  std::istringstream is(text);
  EXPECT_THROW(load_signatures(is, /*validate_patterns=*/false),
               ResourceError);
}

TEST(SigDb, ArtifactFailuresAreTypedArtifactErrors) {
  std::istringstream bad_magic("NOTMAGIC and then some");
  EXPECT_THROW(load_artifact(bad_magic), ArtifactError);
  // Typed errors remain catchable as std::runtime_error: pre-taxonomy
  // call sites keep working.
  std::istringstream bad_magic2("NOTMAGIC and then some");
  EXPECT_THROW(load_artifact(bad_magic2), std::runtime_error);
}

}  // namespace
}  // namespace kizzle::core
