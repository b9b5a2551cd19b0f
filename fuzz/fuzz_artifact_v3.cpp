// Fuzz target: the binary release formats — `.kpf` v3 bundles (KZBUNDLE)
// and KZDELTA delta artifacts.
//
// Contract under test (support/errors.h): fed any byte string, each
// loader either returns a valid artifact or throws a kizzle::Error
// subclass — never UB, never unbounded allocation, never another
// exception type. For bundles this harness is also a round-trip oracle:
// whatever load_artifact accepts, save_artifact must write back into
// bytes that load to the same signatures and the same lineage
// fingerprint, or a re-released set would not be the set that was loaded.
//
// The custom mutator below is what buys coverage PAST the seals: random
// byte flips die at the whole-artifact checksum with probability ~1, so
// it parses the real header fields and mutates inside the structure —
// the embedded signature text (then recomputing its fingerprint when the
// text still parses, to reach the pattern checks behind the lineage
// gate), the declared length, the fingerprint itself, the version field
// (v1/v2 refusal paths) — and then re-seals the checksum with the
// production kizzle::checksum_update. It is self-contained (xorshift, no
// LLVMFuzzerMutate) so it links under both libFuzzer and the GCC
// standalone driver, which invokes it through a weak symbol.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/sigdb.h"
#include "support/errors.h"
#include "support/hash.h"

namespace {

bool has_magic(const std::uint8_t* data, std::size_t size,
               std::string_view magic) {
  return size >= 8 && std::memcmp(data, magic.data(), 8) == 0;
}

std::uint64_t u64_at(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

void put_u64(std::uint8_t* p, std::uint64_t v) {
  std::memcpy(p, &v, sizeof v);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string bytes(reinterpret_cast<const char*>(data), size);
  if (has_magic(data, size, kizzle::core::kDeltaMagic)) {
    std::istringstream is(bytes);
    try {
      const kizzle::core::DeltaArtifact delta = kizzle::core::load_delta(is);
      (void)delta;
    } catch (const kizzle::Error&) {
      // Typed rejection is the expected outcome for malformed bytes.
    }
    return 0;
  }

  kizzle::core::BundleArtifact loaded;
  try {
    std::istringstream is(bytes);
    loaded = kizzle::core::load_artifact(is);
  } catch (const kizzle::Error&) {
    return 0;  // typed rejection
  }
  std::ostringstream os;
  kizzle::core::save_artifact(os, loaded.signatures);
  std::istringstream again(os.str());
  const kizzle::core::BundleArtifact reloaded =
      kizzle::core::load_artifact(again);  // must not throw
  if (reloaded.fingerprint != loaded.fingerprint ||
      kizzle::core::save_signatures(reloaded.signatures) !=
          kizzle::core::save_signatures(loaded.signatures)) {
    __builtin_trap();  // the accepted set did not survive a re-release
  }
  return 0;
}

// ----------------------- structure-aware mutator -----------------------

namespace {

struct XorShift {
  std::uint64_t s;
  explicit XorShift(unsigned seed) : s(seed | 1u) {}
  std::uint64_t next() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  }
  std::size_t below(std::size_t n) { return n ? next() % n : 0; }
};

// Values that probe boundary checks when dropped into a length field.
std::uint64_t interesting_u64(XorShift& rng) {
  static const std::uint64_t kValues[] = {
      0,          1,          7,           8,
      63,         64,         255,         4096,
      0x7FFFFFFF, 0xFFFFFFFF, 1ull << 30,  (1ull << 30) + 1,
      1ull << 40, ~0ull,      ~0ull - 7,
  };
  return kValues[rng.below(sizeof(kValues) / sizeof(kValues[0]))];
}

// Flip/overwrite a few bytes anywhere in [begin, end).
void scribble(std::uint8_t* data, std::size_t begin, std::size_t end,
              XorShift& rng) {
  if (end <= begin) return;
  const std::size_t n = 1 + rng.below(8);
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t at = begin + rng.below(end - begin);
    data[at] = static_cast<std::uint8_t>(rng.next());
  }
}

// KZDELTA: ... | u64 payload_size@16 | payload@24 | u64 checksum.
// Mutate inside the payload (occasionally a whole u64 field at its
// start: base/result fingerprint, n_retired, db_len), then re-seal.
std::size_t mutate_delta(std::uint8_t* data, std::size_t size,
                         XorShift& rng) {
  const std::size_t kPayloadAt = 24;
  if (size < kPayloadAt + 8) return size;
  const std::uint64_t declared = u64_at(data + 16);
  if (declared > size - kPayloadAt - 8) return size;  // already hostile
  const std::size_t payload = static_cast<std::size_t>(declared);

  switch (rng.below(4)) {
    case 0:  // a u64 field at the head of the payload
      if (payload >= 32) {
        put_u64(data + kPayloadAt + 8 * rng.below(4), interesting_u64(rng));
      }
      break;
    case 1:  // the retired list / embedded db text
      scribble(data, kPayloadAt + 32, kPayloadAt + payload, rng);
      break;
    case 2:  // anywhere in the payload
      scribble(data, kPayloadAt, kPayloadAt + payload, rng);
      break;
    default:  // leave the checksum stale: the gate itself stays fuzzed
      scribble(data, 0, size, rng);
      return size;
  }
  std::uint64_t sum = kizzle::kChecksumBasis;
  kizzle::checksum_update(sum, data + kPayloadAt, payload);
  put_u64(data + kPayloadAt + payload, sum);
  return size;
}

// KZBUNDLE v3: u32 version@8 | u64 db_len@16 | db text@24 |
// u64 fingerprint@24+db_len | u64 checksum over everything before it.
std::size_t mutate_bundle(std::uint8_t* data, std::size_t size,
                          XorShift& rng) {
  const std::size_t kDbAt = 24;
  if (size < kDbAt + 16) return size;
  const std::uint64_t db_len64 = u64_at(data + 16);
  if (db_len64 > size - kDbAt - 16) {  // already hostile
    scribble(data, 0, size, rng);
    return size;
  }
  const std::size_t db_len = static_cast<std::size_t>(db_len64);
  const std::size_t fp_at = kDbAt + db_len;
  switch (rng.below(5)) {
    case 0: {  // the signature text, with a fingerprint that matches it
      scribble(data, kDbAt, fp_at, rng);
      try {
        std::istringstream is(std::string(
            reinterpret_cast<const char*>(data) + kDbAt, db_len));
        put_u64(data + fp_at,
                kizzle::core::fingerprint(kizzle::core::load_signatures(
                    is, /*validate_patterns=*/false)));
      } catch (const kizzle::Error&) {
        // Unparsable text: leave the fingerprint stale.
      }
      break;
    }
    case 1:  // the declared text length
      put_u64(data + 16, interesting_u64(rng));
      break;
    case 2:  // the lineage fingerprint alone
      put_u64(data + fp_at, rng.next());
      break;
    case 3: {  // the version field: retired, current and future versions
      const std::uint32_t version = static_cast<std::uint32_t>(rng.below(5));
      std::memcpy(data + 8, &version, sizeof version);
      break;
    }
    default:  // stale checksum path
      scribble(data, 0, size, rng);
      return size;
  }
  std::uint64_t sum = kizzle::kChecksumBasis;
  kizzle::checksum_update(sum, data, fp_at + 8);
  put_u64(data + fp_at + 8, sum);
  return size;
}

}  // namespace

extern "C" std::size_t LLVMFuzzerCustomMutator(std::uint8_t* data,
                                               std::size_t size,
                                               std::size_t max_size,
                                               unsigned int seed) {
  XorShift rng(seed);
  if (has_magic(data, size, kizzle::core::kDeltaMagic)) {
    return mutate_delta(data, size, rng);
  }
  if (has_magic(data, size, kizzle::core::kArtifactMagic)) {
    return mutate_bundle(data, size, rng);
  }
  // Unrecognized input: plain scribble keeps the magic dispatch fuzzed.
  if (size == 0 && max_size > 0) {
    data[0] = static_cast<std::uint8_t>(rng.next());
    return 1;
  }
  scribble(data, 0, size, rng);
  return size;
}
