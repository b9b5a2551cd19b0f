// Deployment channels (paper §I.A).
//
// "We envision the possibilities of deploying Kizzle in a variety of
//  settings: within a browser, client-side, to scan all or some of the
//  incoming JavaScript code; on the desktop to scan files that are saved
//  to the file system ...; lastly, server-side, for instance, a CDN
//  administrator may decide which JavaScript files to host."
//
// All three channels consume one compiled signature set, an immutable
// engine::Database (engine/engine.h) the caller owns: built with
// Database::compile at signature-release time, or loaded from a `.kpf`
// artifact (core/sigdb.h) with Database::from_artifact, which re-derives
// the literal first stage (Teddy plans plus an automaton over dense shards
// only) at load. The channels are policy layers over that one scan call:
// each scans on its caller's thread with per-worker engine::Scratch
// instances drawn from a pool, so the steady-state scan path allocates
// nothing. Matching is event-driven: the engine delivers MatchEvents and
// the channels stop at the first one, which is also where the Verdict's
// signature index and match span come from. The channels differ only in
// what they scan and in their latency budget:
//
//   BrowserGate   per-script admission at execution time. Pages re-serve
//                 the same scripts constantly, so verdicts are memoized on
//                 a content-hash LRU — the common case must cost a hash
//                 lookup, not a scan. Scripts that arrive from the network
//                 in pieces go through begin_script()/feed()/finish(): the
//                 engine stream accumulates the chunks as they arrive and
//                 finish() pays one first-stage pass plus candidate
//                 confirmation over the whole script — the same scan a
//                 script delivered in one piece gets.
//   DesktopScanner  scans whole files written to disk (browser caches);
//                 file content is arbitrary, so raw normalization is used.
//                 Large files stream through begin_file()/scan_stream() in
//                 fixed-size chunks — the raw bytes are never fully
//                 resident, only the (whitespace-stripped) normalized
//                 text.
//   CdnFilter     batch admission: partitions a candidate set into
//                 hostable / rejected, with deterministic per-signature
//                 hit counts for the administrator. Candidates are scanned
//                 in parallel across a thread pool; batches are isolated
//                 per call, so concurrent filter() calls may share it.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "engine/engine.h"

namespace kizzle {
class ThreadPool;
}

namespace kizzle::core {

// What a channel answers when a scan hits its resource envelope
// (engine::ScanLimits) without having found a match: admit the content
// anyway (fail-open — availability over coverage, the browser's choice:
// blocking every slow page script is indistinguishable from breaking the
// web) or block it (fail-closed — coverage over availability, the
// desktop/CDN choice: an unscannable file is a suspicious file). Either
// way the verdict records that it was degraded, so the decision is
// auditable and a hostile stream can't silently exhaust a worker into
// one behavior or the other. A match found *before* the limit tripped is
// never degraded: a partial scan that already found the kit is a real
// verdict.
enum class DegradePolicy : std::uint8_t { kFailOpen, kFailClosed };

inline const char* degrade_policy_name(DegradePolicy p) {
  return p == DegradePolicy::kFailOpen ? "fail-open" : "fail-closed";
}

struct Verdict {
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  bool malicious = false;
  std::string signature;  // name of the matching signature when malicious
  std::string family;
  // Populated from the engine's MatchEvent when malicious: the index of
  // the matching signature in the database and the match span in the
  // normalized scan text — callers no longer re-derive them by name. All
  // three are npos on a clean verdict.
  std::size_t signature_index = npos;
  std::size_t match_begin = npos;
  std::size_t match_end = npos;
  // How the underlying scan ended (engine/limits.h) and whether
  // `malicious` was decided by the channel's DegradePolicy rather than by
  // the scan itself (no match found, scan incomplete). Degraded verdicts
  // are never memoized.
  engine::ScanStatus scan_status = engine::ScanStatus::kComplete;
  bool degraded = false;
};

// ------------------------------- browser -------------------------------

class BrowserGate {
 public:
  // Testing seam: the primary cache key function. Production uses
  // fnv1a64; tests inject deliberately weak hashes to force collisions.
  using HashFn = std::uint64_t (*)(std::string_view);

  // `db` must outlive the gate; null throws std::invalid_argument.
  BrowserGate(const engine::Database* db, std::size_t cache_capacity = 512,
              HashFn hash = nullptr);

  // Admission check for one inline script about to execute. Verdicts are
  // memoized by content hash (LRU); a cache entry additionally records the
  // script length and an independent second fingerprint, so a primary-hash
  // collision between two distinct scripts falls through to a real scan
  // instead of returning the other script's verdict. Thread-safe: the
  // cache is mutex-guarded, and the scan itself runs outside the lock on a
  // pooled per-worker scratch.
  Verdict check_script(std::string_view script_source);

  // Chunked admission for a script still arriving from the network. The
  // engine stream runs over the raw-normalized bytes as they land;
  // finish() resolves the verdict through the same memoization cache as
  // check_script (and is byte-for-byte equivalent to it). One ScriptStream
  // per in-flight script; distinct streams on one gate are safe
  // concurrently.
  class ScriptStream {
   public:
    void feed(std::string_view chunk);
    Verdict finish();

   private:
    friend class BrowserGate;
    explicit ScriptStream(BrowserGate* gate);
    BrowserGate* gate_;
    std::string raw_;    // full source (cache key + normalize_js)
    std::string stage_;  // per-chunk normalization staging buffer
    engine::ScratchPool::Handle scratch_;  // warm, returned to the gate's pool
    engine::Stream stream_;
    bool done_ = false;
  };
  ScriptStream begin_script() { return ScriptStream(this); }

  // Resource governance: every scan this gate runs (one-shot and
  // streamed) uses `limits`; on breach without a match the verdict
  // follows the degrade policy (default fail-open: an admission gate
  // that blocks slow-but-benign scripts breaks pages). Configure before
  // scanning — not synchronized with in-flight scans.
  void set_limits(const engine::ScanLimits& limits) { limits_ = limits; }
  const engine::ScanLimits& limits() const { return limits_; }
  void set_degrade_policy(DegradePolicy policy) { policy_ = policy; }
  DegradePolicy degrade_policy() const { return policy_; }

  std::uint64_t cache_hits() const;
  std::uint64_t cache_misses() const;
  // Primary-hash collisions detected (entry found but length/second
  // fingerprint disagreed; a real scan was performed).
  std::uint64_t cache_collisions() const;

 private:
  struct Entry {
    Verdict verdict;
    std::size_t length = 0;          // collision guard 1: exact size
    std::uint64_t fingerprint2 = 0;  // collision guard 2: independent hash
    std::list<std::uint64_t>::iterator position;
  };

  // Cache probe/insert under lock; the scan between them runs unlocked.
  std::optional<Verdict> cache_lookup(std::uint64_t key, std::size_t length,
                                      std::uint64_t fp2);
  void cache_store(std::uint64_t key, std::size_t length, std::uint64_t fp2,
                   const Verdict& verdict);
  Verdict finish_stream(ScriptStream& stream);

  const engine::Database* db_;
  std::size_t capacity_;
  HashFn hash_;
  engine::ScanLimits limits_;
  DegradePolicy policy_ = DegradePolicy::kFailOpen;
  engine::ScratchPool scratches_;
  // Guards lru_/cache_ and all counters: check_script and concurrent
  // ScriptStream finishes race on them otherwise (CdnFilter already
  // advertises concurrent use of the sibling channel).
  mutable std::mutex mu_;
  std::list<std::uint64_t> lru_;  // hash keys, most recent first
  std::unordered_map<std::uint64_t, Entry> cache_;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t cache_misses_ = 0;
  std::uint64_t cache_collisions_ = 0;
};

// ------------------------------- desktop -------------------------------

class DesktopScanner {
 public:
  // `db` must outlive the scanner; null throws std::invalid_argument.
  explicit DesktopScanner(const engine::Database* db);

  // Scans one file's content (any type: cached HTML, bare .js, fragments —
  // raw AV normalization handles all of them).
  Verdict scan_file(std::string_view content) const;

  // Chunked variant for files too large to slurp: raw normalization is
  // per-byte, so each chunk is normalized and streamed through the engine
  // as it is read; only the normalized text is kept for candidate
  // confirmation. Equivalent to scan_file on the concatenated content.
  class FileStream {
   public:
    void feed(std::string_view raw_chunk);
    Verdict finish() const;

   private:
    friend class DesktopScanner;
    explicit FileStream(const DesktopScanner* scanner);
    const DesktopScanner* scanner_;  // for the degrade policy at finish()
    std::string stage_;  // per-chunk normalization staging buffer
    engine::ScratchPool::Handle scratch_;  // warm, from the scanner's pool
    engine::Stream stream_;
  };
  FileStream begin_file() const { return FileStream(this); }

  // Reads `in` to EOF in `chunk_size`-byte pieces through a FileStream.
  Verdict scan_stream(std::istream& in, std::size_t chunk_size = 1 << 16) const;

  // Resource governance, as on BrowserGate. Default fail-closed: a file
  // the scanner could not fully cover stays quarantined — on disk there
  // is no page to break, and an unscannable file is a suspicious file.
  void set_limits(const engine::ScanLimits& limits) { limits_ = limits; }
  const engine::ScanLimits& limits() const { return limits_; }
  void set_degrade_policy(DegradePolicy policy) { policy_ = policy; }
  DegradePolicy degrade_policy() const { return policy_; }

 private:
  const engine::Database* db_;
  engine::ScanLimits limits_;
  DegradePolicy policy_ = DegradePolicy::kFailClosed;
  mutable engine::ScratchPool scratches_;
};

// --------------------------------- CDN ---------------------------------

class CdnFilter {
 public:
  // `threads` sizes the scan pool owned by the filter (created lazily on
  // the first batch that fans out, reused across filter() calls); 0 =
  // hardware concurrency. `db` must outlive the filter; null throws
  // std::invalid_argument.
  explicit CdnFilter(const engine::Database* db, std::size_t threads = 0);
  ~CdnFilter();

  struct Report {
    std::vector<std::size_t> hostable;  // indices into the candidate list
    std::vector<std::size_t> rejected;
    // Hit counts per signature name, sorted ascending by name: byte-stable
    // across runs, platforms and scheduling.
    std::vector<std::pair<std::string, std::size_t>> hits_per_signature;
    // Candidates whose scan breached the filter's ScanLimits without a
    // match: the degrade policy placed them (fail-closed → rejected,
    // fail-open → hostable), and they are listed here so the
    // administrator sees which placements the policy decided. Ascending,
    // disjoint from signature hits.
    std::vector<std::size_t> degraded;
  };

  // Partitions candidate files for hosting. Candidates are normalized and
  // scanned in parallel; the report lists indices in ascending order
  // regardless of scheduling. Safe to call from several threads —
  // concurrent batches share the pool, each waiting on its own completion
  // latch.
  Report filter(std::span<const std::string> candidates) const;

  // Resource governance, as on the other channels. Default fail-closed:
  // a CDN administrator would rather re-review a file than host one the
  // scanner never finished looking at.
  void set_limits(const engine::ScanLimits& limits) { limits_ = limits; }
  const engine::ScanLimits& limits() const { return limits_; }
  void set_degrade_policy(DegradePolicy policy) { policy_ = policy; }
  DegradePolicy degrade_policy() const { return policy_; }

 private:
  const engine::Database* db_;
  engine::ScanLimits limits_;
  DegradePolicy policy_ = DegradePolicy::kFailClosed;
  std::size_t threads_;
  mutable engine::ScratchPool scratches_;
  mutable std::mutex pool_mu_;  // guards lazy pool creation only
  mutable std::unique_ptr<ThreadPool> pool_;
};

}  // namespace kizzle::core
