#include "core/sigdb.h"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "match/pattern.h"
#include "support/errors.h"
#include "support/strings.h"

namespace kizzle::core {

namespace {

constexpr std::string_view kHeader = "# kizzle-signatures v1";

// "line 3 (byte 57)" — every InputError from the text loader pins the
// offending line by both coordinates so operators can seek straight to it
// in multi-megabyte databases.
std::string at(std::size_t line_no, std::size_t byte_offset) {
  return "line " + std::to_string(line_no) + " (byte " +
         std::to_string(byte_offset) + ")";
}

// Strict integer field parse: the whole field must be digits (with an
// optional leading '-' for signed targets). std::stoi-style prefix
// parsing accepted "12junk"; from_chars + full-consumption check doesn't.
template <typename T>
bool parse_field(std::string_view field, T& out) {
  const char* first = field.data();
  const char* last = field.data() + field.size();
  const auto [ptr, ec] = std::from_chars(first, last, out);
  return ec == std::errc{} && ptr == last;
}

}  // namespace

void save_signatures(std::ostream& os,
                     const std::vector<DeployedSignature>& signatures) {
  os << kHeader << '\n';
  for (const DeployedSignature& s : signatures) {
    if (s.name.find_first_of("\t\n") != std::string::npos ||
        s.family.find_first_of("\t\n") != std::string::npos ||
        s.pattern.find_first_of("\t\n") != std::string::npos) {
      throw std::invalid_argument(
          "save_signatures: field contains tab/newline: " + s.name);
    }
    os << s.name << '\t' << s.family << '\t' << s.issued_day << '\t'
       << s.token_length << '\t' << s.pattern << '\n';
  }
}

std::string save_signatures(
    const std::vector<DeployedSignature>& signatures) {
  std::ostringstream os;
  save_signatures(os, signatures);
  return os.str();
}

std::vector<DeployedSignature> load_signatures(std::istream& is,
                                               bool validate_patterns) {
  std::string line;
  if (!std::getline(is, line) || trim(line) != kHeader) {
    throw InputError("load_signatures: missing or bad header");
  }
  std::vector<DeployedSignature> out;
  std::size_t line_no = 1;
  // Byte offset of the start of the current line ('\n' included per line).
  std::size_t offset = line.size() + 1;
  while (std::getline(is, line)) {
    ++line_no;
    const std::size_t line_start = offset;
    offset += line.size() + 1;
    if (line.size() > kMaxSignatureLineBytes) {
      throw ResourceError("load_signatures: " + at(line_no, line_start) +
                          ": line of " + std::to_string(line.size()) +
                          " bytes exceeds the " +
                          std::to_string(kMaxSignatureLineBytes) +
                          "-byte cap");
    }
    if (line.empty() || line[0] == '#') continue;
    if (out.size() >= kMaxSignatureCount) {
      throw ResourceError("load_signatures: " + at(line_no, line_start) +
                          ": signature count exceeds the cap of " +
                          std::to_string(kMaxSignatureCount));
    }
    const auto fields = split(line, "\t");
    if (fields.size() != 5) {
      throw InputError("load_signatures: " + at(line_no, line_start) +
                       ": expected 5 tab-separated fields, got " +
                       std::to_string(fields.size()));
    }
    DeployedSignature s;
    s.name = fields[0];
    s.family = fields[1];
    if (!parse_field(fields[2], s.issued_day) ||
        !parse_field(fields[3], s.token_length)) {
      throw InputError("load_signatures: " + at(line_no, line_start) +
                       ": bad number");
    }
    s.pattern = fields[4];
    if (validate_patterns) {
      try {
        match::Pattern::compile(s.pattern);
      } catch (const match::PatternError& e) {
        throw InputError("load_signatures: " + at(line_no, line_start) +
                         ": pattern does not compile: " + e.what());
      }
    }
    out.push_back(std::move(s));
  }
  return out;
}

std::vector<DeployedSignature> load_signatures(const std::string& content) {
  std::istringstream is(content);
  return load_signatures(is);
}

// ---------------------------- bundle artifact ----------------------------

namespace {

constexpr std::uint32_t kArtifactEndianSentinel = 0x01020304u;

// Fixed bundle header: magic(8) + version(4) + endian(4) + db_len(8).
constexpr std::size_t kBundleHeaderBytes = 24;

template <typename T>
void put_raw(std::ostream& os, T v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof v);
}

template <typename T>
void put_raw(std::string& out, T v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof v);
}

template <typename T>
T get_raw(std::istream& is) {
  T v;
  is.read(reinterpret_cast<char*>(&v), sizeof v);
  if (!is) throw ArtifactError("load_artifact: truncated artifact");
  return v;
}

// Cap on the embedded text database: kMaxSignatureCount lines of
// kMaxSignatureLineBytes is the most the text loader would accept anyway,
// so anything larger is rejected before the buffer for it is allocated.
constexpr std::uint64_t kMaxEmbeddedDbBytes = 1ull << 30;  // 1 GiB

}  // namespace

void save_artifact(std::ostream& os,
                   const std::vector<DeployedSignature>& signatures,
                   const match::LiteralPrefilter* /*prebuilt*/) {
  const std::string db = save_signatures(signatures);
  std::string bytes;
  bytes.reserve(kBundleHeaderBytes + db.size() + 16);
  bytes.append(kArtifactMagic);
  put_raw<std::uint32_t>(bytes, kArtifactVersion);
  put_raw<std::uint32_t>(bytes, kArtifactEndianSentinel);
  put_raw<std::uint64_t>(bytes, db.size());
  bytes.append(db);
  put_raw<std::uint64_t>(bytes, fingerprint(signatures));
  std::uint64_t sum = kChecksumBasis;
  checksum_update(sum, bytes.data(), bytes.size());
  put_raw<std::uint64_t>(bytes, sum);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!os) throw std::runtime_error("save_artifact: write failed");
}

BundleArtifact load_artifact(std::istream& is, bool validate_patterns) {
  std::string bytes(kBundleHeaderBytes, '\0');
  is.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!is) {
    throw ArtifactError("load_artifact: truncated artifact");
  }
  if (bytes.compare(0, kArtifactMagic.size(), kArtifactMagic) != 0) {
    throw ArtifactError("load_artifact: bad magic");
  }
  std::uint32_t version = 0;
  std::uint32_t endian = 0;
  std::uint64_t db_len = 0;
  std::memcpy(&version, bytes.data() + 8, 4);
  std::memcpy(&endian, bytes.data() + 12, 4);
  std::memcpy(&db_len, bytes.data() + 16, 8);
  if (version != kArtifactVersion) {
    throw ArtifactError("load_artifact: unsupported format version " +
                        std::to_string(version));
  }
  if (endian != kArtifactEndianSentinel) {
    throw ArtifactError(
        "load_artifact: artifact endianness does not match this host");
  }
  if (db_len > kMaxEmbeddedDbBytes) {
    throw ResourceError(
        "load_artifact: declared database size " + std::to_string(db_len) +
        " exceeds the " + std::to_string(kMaxEmbeddedDbBytes) + "-byte cap");
  }
  // The text and the fingerprint behind it, then the seal over all of it.
  bytes.resize(kBundleHeaderBytes + static_cast<std::size_t>(db_len) + 8);
  is.read(bytes.data() + kBundleHeaderBytes,
          static_cast<std::streamsize>(bytes.size() - kBundleHeaderBytes));
  if (!is) throw ArtifactError("load_artifact: truncated artifact");
  const auto stored_sum = get_raw<std::uint64_t>(is);
  std::uint64_t sum = kChecksumBasis;
  checksum_update(sum, bytes.data(), bytes.size());
  if (sum != stored_sum) {
    throw ArtifactError("load_artifact: checksum mismatch (corrupt artifact)");
  }

  BundleArtifact out;
  std::memcpy(&out.fingerprint, bytes.data() + bytes.size() - 8, 8);
  bytes.resize(bytes.size() - 8);
  std::istringstream db_is(bytes.substr(kBundleHeaderBytes));
  out.signatures = load_signatures(db_is, validate_patterns);
  if (fingerprint(out.signatures) != out.fingerprint) {
    throw ArtifactError(
        "load_artifact: embedded signatures do not reproduce the recorded "
        "fingerprint");
  }
  return out;
}

// ---------------------------- delta artifact -----------------------------

void fingerprint_mix(std::uint64_t& sum, std::string_view name,
                     std::string_view family, std::string_view pattern) {
  const auto field = [&sum](std::string_view s) {
    const std::uint64_t len = s.size();
    checksum_update(sum, &len, sizeof len);
    checksum_update(sum, s.data(), s.size());
  };
  field(name);
  field(family);
  field(pattern);
}

void fingerprint_retire(std::uint64_t& sum,
                        std::span<const std::uint64_t> retired) {
  const std::uint64_t n = retired.size();
  checksum_update(sum, &n, sizeof n);
  for (const std::uint64_t idx : retired) {
    checksum_update(sum, &idx, sizeof idx);
  }
}

std::uint64_t fingerprint(const std::vector<DeployedSignature>& signatures,
                          std::span<const std::uint64_t> retired) {
  std::uint64_t sum = kFingerprintBasis;
  const std::uint64_t n = signatures.size();
  checksum_update(sum, &n, sizeof n);
  for (const DeployedSignature& s : signatures) {
    fingerprint_mix(sum, s.name, s.family, s.pattern);
  }
  fingerprint_retire(sum, retired);
  return sum;
}

namespace {

// A delta's payload is bounded by what its parts could legitimately be:
// an embedded text database plus a retired-index list no longer than the
// signature cap.
constexpr std::uint64_t kMaxDeltaPayloadBytes =
    kMaxEmbeddedDbBytes + 8ull * kMaxSignatureCount + 64;

void check_retired_ascending(std::span<const std::uint64_t> retired,
                             const char* who) {
  for (std::size_t i = 1; i < retired.size(); ++i) {
    if (retired[i] <= retired[i - 1]) {
      throw ArtifactError(std::string(who) +
                          ": retired indices not strictly ascending");
    }
  }
}

}  // namespace

void save_delta(std::ostream& os, const DeltaArtifact& delta) {
  check_retired_ascending(delta.retired, "save_delta");
  const std::string db = save_signatures(delta.added);

  std::string payload;
  const auto num = [&payload](std::uint64_t v) {
    payload.append(reinterpret_cast<const char*>(&v), sizeof v);
  };
  num(delta.base_fingerprint);
  num(delta.result_fingerprint);
  num(delta.retired.size());
  for (const std::uint64_t idx : delta.retired) num(idx);
  num(db.size());
  payload.append(db);

  std::uint64_t sum = kChecksumBasis;
  checksum_update(sum, payload.data(), payload.size());

  os.write(kDeltaMagic.data(),
           static_cast<std::streamsize>(kDeltaMagic.size()));
  put_raw<std::uint32_t>(os, kDeltaVersion);
  put_raw<std::uint32_t>(os, kArtifactEndianSentinel);
  put_raw<std::uint64_t>(os, payload.size());
  os.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  put_raw<std::uint64_t>(os, sum);
  if (!os) throw std::runtime_error("save_delta: write failed");
}

DeltaArtifact load_delta(std::istream& is, bool validate_patterns) {
  char magic[8];
  is.read(magic, sizeof magic);
  if (!is || std::string_view(magic, sizeof magic) != kDeltaMagic) {
    throw ArtifactError("load_delta: bad magic");
  }
  const auto version = get_raw<std::uint32_t>(is);
  if (version != kDeltaVersion) {
    throw ArtifactError("load_delta: unsupported format version " +
                        std::to_string(version));
  }
  const auto endian = get_raw<std::uint32_t>(is);
  if (endian != kArtifactEndianSentinel) {
    throw ArtifactError(
        "load_delta: delta endianness does not match this host");
  }
  const auto payload_size = get_raw<std::uint64_t>(is);
  if (payload_size < 3 * 8 + 8 || payload_size > kMaxDeltaPayloadBytes) {
    throw ResourceError("load_delta: implausible payload size " +
                        std::to_string(payload_size));
  }
  std::string payload(static_cast<std::size_t>(payload_size), '\0');
  is.read(payload.data(), static_cast<std::streamsize>(payload.size()));
  if (!is) throw ArtifactError("load_delta: truncated delta");
  const auto declared_sum = get_raw<std::uint64_t>(is);

  // Verify the seal before interpreting a single payload field.
  std::uint64_t sum = kChecksumBasis;
  checksum_update(sum, payload.data(), payload.size());
  if (sum != declared_sum) {
    throw ArtifactError("load_delta: checksum mismatch (corrupt delta)");
  }

  std::size_t pos = 0;
  const auto num = [&payload, &pos]() {
    if (payload.size() - pos < 8) {
      throw ArtifactError("load_delta: truncated payload");
    }
    std::uint64_t v;
    std::memcpy(&v, payload.data() + pos, 8);
    pos += 8;
    return v;
  };
  DeltaArtifact out;
  out.base_fingerprint = num();
  out.result_fingerprint = num();
  const std::uint64_t n_retired = num();
  if (n_retired > kMaxSignatureCount) {
    throw ResourceError("load_delta: retired count " +
                        std::to_string(n_retired) + " exceeds the cap of " +
                        std::to_string(kMaxSignatureCount));
  }
  if (payload.size() - pos < n_retired * 8) {
    throw ArtifactError("load_delta: truncated payload");
  }
  out.retired.resize(static_cast<std::size_t>(n_retired));
  for (std::uint64_t& idx : out.retired) idx = num();
  check_retired_ascending(out.retired, "load_delta");
  const std::uint64_t db_len = num();
  if (db_len != payload.size() - pos) {
    throw ArtifactError(
        "load_delta: embedded database length disagrees with payload size");
  }
  std::istringstream db_is(payload.substr(pos));
  out.added = load_signatures(db_is, validate_patterns);
  return out;
}

}  // namespace kizzle::core
