// Signature database serialization.
//
// The deployable artifact of a Kizzle run is its signature set; AV
// distribution channels ship such sets as versioned database files
// (paper §I.A: "AV signatures enjoy a well-established deployment channel
// with frequent, automatic updates"). The format is a line-oriented,
// diff-friendly text file:
//
//   # kizzle-signatures v1
//   <name> \t <family> \t <issued_day> \t <token_length> \t <pattern>
//
// Patterns contain no tabs or newlines by construction (they are compiled
// from normalized text, which strips whitespace).
//
// Next to the text database there are two binary release formats, both
// little-endian, both sealed with the shared checksum primitive
// (kizzle::checksum_update, one pass over the whole sealed range):
//
// *Bundle artifact* (`.kpf`, magic "KZBUNDLE", version 3): a full
// signature set and its lineage — nothing derived. Every process compiles
// its matcher (patterns, Teddy plan set, dense-shard automaton) from the
// embedded source at load, deterministically, so what a deployment runs
// is by construction the compilation of what was released; no prebuilt
// table can disagree with its source. Layout:
//
//   "KZBUNDLE"(8) | u32 version=3 | u32 endian 0x01020304 |
//   u64 db_len | db text (save_signatures format) |
//   u64 fingerprint (core::fingerprint of the set) |
//   u64 checksum (single pass over every preceding byte)
//
// Versions 1 and 2 shipped prebuilt prefilter tables ("KZPF" blobs) next
// to the text; loading the tables was no cheaper than deriving them, so
// they are gone. The version check refuses those artifacts, and the magic
// check bare KZPF blobs, with a typed ArtifactError — repack the
// signatures with `kizzle pack`.
//
// *Delta artifact* (`.kzd`, magic "KZDELTAF", version 1): an incremental
// update from one deployed signature set to the next — the daily Kizzle
// cycle retires a few signatures and issues a few new ones, and shipping
// a full multi-megabyte bundle for an 8-signature day wastes the
// distribution channel. Layout:
//
//   "KZDELTAF"(8) | u32 version=1 | u32 endian |
//   u64 payload_size | u64 base_fingerprint | u64 result_fingerprint |
//   u64 n_retired | u64 retired[n_retired] (ascending indices into the
//   base set) | u64 db_len | added-signature text db (save_signatures
//   format) | u64 checksum (single pass over the payload_size bytes
//   between the payload_size field and the checksum)
//
// Lineage is enforced by fingerprints: `fingerprint(signatures, retired)`
// chains the identity of every entry (name, family, pattern) and the
// retired set through checksum_update. A delta records the fingerprint of
// the exact base it was diffed against and of the set that must result;
// engine::Database::extend refuses a delta whose base_fingerprint does
// not match the live database, and verifies result_fingerprint after
// applying, so out-of-order or cross-lineage deltas cannot silently
// corrupt a deployment.
//
// Version policy: any layout change bumps the version; loaders accept
// exactly the current version and reject every other one, and foreign
// endianness, with ArtifactError.
// All loaders run on untrusted bytes and throw the kizzle typed-error
// taxonomy (support/errors.h): InputError for unparsable text (messages
// carry line number AND byte offset), ArtifactError for a malformed
// binary bundle or delta, ResourceError when declared/observed sizes
// exceed the loader caps below. No other exception escapes on bad input,
// and no allocation happens before the size that justifies it is
// validated.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/pipeline.h"
#include "match/prefilter.h"
#include "support/hash.h"

namespace kizzle::core {

// Loader caps: a signature line longer than this, or a database with more
// signatures than this, is rejected with ResourceError before it is
// stored. Generous against any legitimate set (patterns are normalized
// script excerpts, databases are a few thousand signatures) yet small
// enough that a hostile stream can't balloon memory line by line.
inline constexpr std::size_t kMaxSignatureLineBytes = 1 << 16;  // 64 KiB
inline constexpr std::size_t kMaxSignatureCount = 1 << 17;      // 131072

// Serializes a signature set. Deterministic output.
std::string save_signatures(const std::vector<DeployedSignature>& signatures);
void save_signatures(std::ostream& os,
                     const std::vector<DeployedSignature>& signatures);

// Parses a database back. Throws kizzle::InputError on malformed input
// (bad header, wrong field count, bad numbers, patterns that fail to
// compile) with line number and byte offset in the message, and
// kizzle::ResourceError past the caps above. `validate_patterns` = false
// skips the trial compilation of every pattern — for callers that compile
// the set themselves right after (engine::Database::from_artifact) and
// would otherwise pay it twice.
std::vector<DeployedSignature> load_signatures(const std::string& content);
std::vector<DeployedSignature> load_signatures(std::istream& is,
                                               bool validate_patterns = true);

// ---------------------------- bundle artifact ----------------------------

inline constexpr std::string_view kArtifactMagic = "KZBUNDLE";
inline constexpr std::uint32_t kArtifactVersion = 3;

struct BundleArtifact {
  std::vector<DeployedSignature> signatures;
  std::uint64_t fingerprint = 0;  // == fingerprint(signatures), verified
};

// Writes a signature set as one deployable artifact. `prebuilt` is
// accepted for source compatibility and ignored: no matcher state is
// shipped.
void save_artifact(std::ostream& os,
                   const std::vector<DeployedSignature>& signatures,
                   const match::LiteralPrefilter* prebuilt = nullptr);

// Parses an artifact back. Throws kizzle::ArtifactError on malformed,
// corrupt or foreign-version input (v1/v2 bundles and bare KZPF blobs
// included) and when the embedded set does not reproduce its recorded
// fingerprint, kizzle::ResourceError on implausible declared sizes, and
// load_signatures' errors for the embedded text. `validate_patterns` as in
// load_signatures.
BundleArtifact load_artifact(std::istream& is, bool validate_patterns = true);

// ---------------------------- delta artifact -----------------------------

inline constexpr std::string_view kDeltaMagic = "KZDELTAF";
inline constexpr std::uint32_t kDeltaVersion = 1;

// An incremental update: retire `retired` (indices into the base set, in
// ascending order) and append `added`. Application order is retire-then-
// append, so added signatures receive ids starting at the base set's size.
struct DeltaArtifact {
  std::uint64_t base_fingerprint = 0;    // set the delta applies to
  std::uint64_t result_fingerprint = 0;  // set that must result
  std::vector<std::uint64_t> retired;    // ascending indices into base
  std::vector<DeployedSignature> added;
};

// Lineage fingerprint of a deployed set: chains each entry's identity
// (name, family, pattern — deployment metadata like issued_day is not
// part of identity) and then the retired index set, all through
// kizzle::checksum_update with length-prefixed mixing so field boundaries
// are unambiguous. Two sets fingerprint equal iff they hold the same
// signatures in the same slots with the same tombstones.
inline constexpr std::uint64_t kFingerprintBasis = kChecksumBasis;
std::uint64_t fingerprint(const std::vector<DeployedSignature>& signatures,
                          std::span<const std::uint64_t> retired = {});

// Mixing steps, exposed so engine::Database (which stores entries, not
// DeployedSignatures) can compute the identical fingerprint.
void fingerprint_mix(std::uint64_t& sum, std::string_view name,
                     std::string_view family, std::string_view pattern);
void fingerprint_retire(std::uint64_t& sum,
                        std::span<const std::uint64_t> retired);

// Writes / parses a delta artifact. save_delta validates that `retired`
// is strictly ascending and that no field contains tab/newline (via
// save_signatures); load_delta runs on untrusted bytes with the same
// error taxonomy as load_artifact and re-validates ordering, caps and the
// checksum before returning.
void save_delta(std::ostream& os, const DeltaArtifact& delta);
DeltaArtifact load_delta(std::istream& is, bool validate_patterns = true);

}  // namespace kizzle::core
