#include "core/deploy.h"

#include <istream>
#include <map>
#include <optional>
#include <stdexcept>

#include "support/hash.h"
#include "support/thread_pool.h"
#include "text/html.h"
#include "text/normalize.h"

namespace kizzle::core {

namespace {

Verdict verdict_from(const std::optional<engine::MatchEvent>& hit) {
  Verdict v;
  if (hit) {
    v.malicious = true;
    v.signature = std::string(hit->name);
    v.family = std::string(hit->family);
    v.signature_index = hit->sig_index;
    v.match_begin = hit->begin;
    v.match_end = hit->end;
  }
  return v;
}

// The channel-side verdict rule: a match is a match no matter how the
// scan ended; an incomplete scan with NO match is decided by the degrade
// policy and flagged so it never enters a memoization cache.
Verdict degrade(Verdict v, engine::ScanStatus status, DegradePolicy policy) {
  v.scan_status = status;
  if (!v.malicious && status != engine::ScanStatus::kComplete) {
    v.degraded = true;
    v.malicious = policy == DegradePolicy::kFailClosed;
  }
  return v;
}

// One-shot first-match scan of `normalized` on a pooled scratch, governed
// by the channel's limits and policy.
Verdict verdict_of(const engine::Database& db, engine::ScratchPool& pool,
                   std::string_view normalized,
                   const engine::ScanLimits& limits, DegradePolicy policy) {
  auto scratch = pool.acquire();
  scratch->set_limits(limits);
  std::optional<engine::MatchEvent> hit;
  const engine::ScanOutcome outcome = engine::scan(
      db, normalized, *scratch,
      [&hit](const engine::MatchEvent& event) {
        hit = event;
        return engine::ScanDecision::Stop;
      });
  return degrade(verdict_from(hit), outcome.status, policy);
}

// Opens an engine stream on a pooled scratch with the channel's limits
// armed (open_stream arms the stream deadline from the scratch's limits,
// so they must be set first).
engine::Stream open_governed(const engine::Database& db,
                             engine::Scratch& scratch,
                             const engine::ScanLimits& limits) {
  scratch.set_limits(limits);
  return engine::open_stream(db, scratch);
}

// First-match finish of a governed stream: outcome + event in one pass.
Verdict finish_governed(const engine::Stream& stream, DegradePolicy policy) {
  std::optional<engine::MatchEvent> hit;
  const engine::ScanOutcome outcome =
      stream.finish([&hit](const engine::MatchEvent& event) {
        hit = event;
        return engine::ScanDecision::Stop;
      });
  return degrade(verdict_from(hit), outcome.status, policy);
}

// Second, algorithm-independent content fingerprint for the BrowserGate
// cache: a 64-bit polynomial hash (different base and basis than fnv1a64)
// folded with the length and finalized with splitmix64. Two scripts that
// collide on the primary key are vanishingly unlikely to also collide
// here AND share a length.
std::uint64_t second_fingerprint(std::string_view s) {
  std::uint64_t h = 0x9AE16A3B2F90404Full;
  for (const unsigned char c : s) {
    h = h * 0x9DDFEA08EB382D69ull + c;
  }
  return splitmix64_mix(h ^ static_cast<std::uint64_t>(s.size()));
}

}  // namespace

// ------------------------------- browser -------------------------------

BrowserGate::BrowserGate(const engine::Database* db,
                         std::size_t cache_capacity, HashFn hash)
    : db_(db),
      capacity_(cache_capacity),
      hash_(hash != nullptr ? hash
                            : static_cast<HashFn>(
                                  [](std::string_view s) { return fnv1a64(s); })) {
  if (db_ == nullptr) {
    throw std::invalid_argument("BrowserGate: null database");
  }
  if (capacity_ == 0) capacity_ = 1;
}

std::optional<Verdict> BrowserGate::cache_lookup(std::uint64_t key,
                                                 std::size_t length,
                                                 std::uint64_t fp2) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = cache_.find(key);
  if (it == cache_.end()) {
    ++cache_misses_;
    return std::nullopt;
  }
  if (it->second.length != length || it->second.fingerprint2 != fp2) {
    // Primary-hash collision between distinct scripts: the cached verdict
    // belongs to someone else's content. Fall through to a real scan.
    ++cache_collisions_;
    ++cache_misses_;
    return std::nullopt;
  }
  ++cache_hits_;
  lru_.erase(it->second.position);
  lru_.push_front(key);
  it->second.position = lru_.begin();
  return it->second.verdict;
}

void BrowserGate::cache_store(std::uint64_t key, std::size_t length,
                              std::uint64_t fp2, const Verdict& verdict) {
  std::lock_guard<std::mutex> lock(mu_);
  if (const auto it = cache_.find(key); it != cache_.end()) {
    // Either a concurrent miss on the same script or a collision victim:
    // latest scan wins the slot.
    it->second.verdict = verdict;
    it->second.length = length;
    it->second.fingerprint2 = fp2;
    lru_.erase(it->second.position);
    lru_.push_front(key);
    it->second.position = lru_.begin();
    return;
  }
  lru_.push_front(key);
  cache_.emplace(key, Entry{verdict, length, fp2, lru_.begin()});
  if (cache_.size() > capacity_) {
    cache_.erase(lru_.back());
    lru_.pop_back();
  }
}

Verdict BrowserGate::check_script(std::string_view script_source) {
  const std::uint64_t key = hash_(script_source);
  const std::uint64_t fp2 = second_fingerprint(script_source);
  if (const auto cached = cache_lookup(key, script_source.size(), fp2)) {
    return *cached;
  }
  // Scan outside the lock: memoization must not serialize the scans.
  const Verdict v = verdict_of(*db_, scratches_,
                               text::normalize_js(script_source), limits_,
                               policy_);
  // A degraded verdict reflects this scan's resource weather, not the
  // script's content: caching it would pin a policy answer onto a hash.
  if (!v.degraded) cache_store(key, script_source.size(), fp2, v);
  return v;
}

BrowserGate::ScriptStream::ScriptStream(BrowserGate* gate)
    : gate_(gate),
      scratch_(gate->scratches_.acquire()),
      stream_(open_governed(*gate->db_, *scratch_,
                            gate->limits_)) {}

void BrowserGate::ScriptStream::feed(std::string_view chunk) {
  raw_ += chunk;
  // Raw normalization is per-byte, so it streams chunk by chunk; the
  // engine stream accumulates the normalized text for finish().
  stage_.clear();
  text::normalize_raw_append(chunk, stage_);
  stream_.feed(stage_);
}

Verdict BrowserGate::ScriptStream::finish() {
  if (done_) {
    throw std::logic_error("BrowserGate::ScriptStream: finish() called twice");
  }
  done_ = true;
  return gate_->finish_stream(*this);
}

Verdict BrowserGate::finish_stream(ScriptStream& stream) {
  const std::uint64_t key = hash_(stream.raw_);
  const std::uint64_t fp2 = second_fingerprint(stream.raw_);
  if (const auto cached = cache_lookup(key, stream.raw_.size(), fp2)) {
    return *cached;
  }
  Verdict v;
  const std::string normalized = text::normalize_js(stream.raw_);
  if (normalized == stream.stream_.text()) {
    // Comment-free script (the overwhelmingly common case): token-level
    // normalization equals the raw normalization the engine stream already
    // ran over, so the prefilter pass is done — only the candidates still
    // need VM confirmation.
    v = finish_governed(stream.stream_, policy_);
  } else {
    // Comments (or lexer divergence) changed the scan text: rerun the
    // one-shot path on the token-normalized form check_script would use.
    // (A truncated stream also lands here — the dropped raw bytes make
    // the texts differ — so truncation still yields a full governed scan
    // of the token-normalized source rather than a half-scanned stream.)
    v = verdict_of(*db_, scratches_, normalized, limits_, policy_);
  }
  if (!v.degraded) cache_store(key, stream.raw_.size(), fp2, v);
  return v;
}

std::uint64_t BrowserGate::cache_hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cache_hits_;
}

std::uint64_t BrowserGate::cache_misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cache_misses_;
}

std::uint64_t BrowserGate::cache_collisions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cache_collisions_;
}

// ------------------------------- desktop -------------------------------

DesktopScanner::DesktopScanner(const engine::Database* db) : db_(db) {
  if (db_ == nullptr) {
    throw std::invalid_argument("DesktopScanner: null database");
  }
}

Verdict DesktopScanner::scan_file(std::string_view content) const {
  // Files on disk are arbitrary bytes (cached HTML, bare .js, fragments):
  // raw AV normalization handles all of them, and signature construction
  // guarantees raw-normalized script content is matchable (see
  // text/normalize.h).
  return verdict_of(*db_, scratches_, text::normalize_raw(content),
                    limits_, policy_);
}

DesktopScanner::FileStream::FileStream(const DesktopScanner* scanner)
    : scanner_(scanner),
      scratch_(scanner->scratches_.acquire()),
      stream_(open_governed(*scanner->db_, *scratch_,
                            scanner->limits_)) {}

void DesktopScanner::FileStream::feed(std::string_view raw_chunk) {
  stage_.clear();
  text::normalize_raw_append(raw_chunk, stage_);
  stream_.feed(stage_);
}

Verdict DesktopScanner::FileStream::finish() const {
  return finish_governed(stream_, scanner_->policy_);
}

Verdict DesktopScanner::scan_stream(std::istream& in,
                                    std::size_t chunk_size) const {
  if (chunk_size == 0) chunk_size = 1;
  FileStream stream = begin_file();
  std::string buf(chunk_size, '\0');
  while (in) {
    in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
    const std::streamsize got = in.gcount();
    if (got <= 0) break;
    stream.feed(std::string_view(buf.data(), static_cast<std::size_t>(got)));
  }
  return stream.finish();
}

// --------------------------------- CDN ---------------------------------

CdnFilter::CdnFilter(const engine::Database* db, std::size_t threads)
    : db_(db), threads_(threads) {
  if (db_ == nullptr) {
    throw std::invalid_argument("CdnFilter: null database");
  }
}

CdnFilter::~CdnFilter() = default;

CdnFilter::Report CdnFilter::filter(
    std::span<const std::string> candidates) const {
  // Normalize + scan each candidate in parallel (the database is immutable
  // and shared read-only; scratches come from the per-worker pool), then
  // aggregate sequentially in index order so the report is deterministic.
  // The pool is created on the first batch that fans out and lives with
  // the filter, so repeated batches don't pay thread churn;
  // single-candidate batches skip the fan-out entirely. parallel_for
  // batches are isolated by per-call completion latches, so concurrent
  // filter() calls interleave safely on the shared pool.
  std::vector<std::optional<std::size_t>> verdicts(candidates.size());
  std::vector<engine::ScanStatus> statuses(candidates.size(),
                                           engine::ScanStatus::kComplete);
  // One pooled scratch per contiguous range, not per candidate: the pool
  // mutex is touched a handful of times per batch instead of twice per
  // sample.
  const auto scan_range = [&](std::size_t, std::size_t begin,
                              std::size_t end) {
    auto scratch = scratches_.acquire();
    scratch->set_limits(limits_);
    for (std::size_t i = begin; i < end; ++i) {
      std::optional<engine::MatchEvent> hit;
      const engine::ScanOutcome outcome = engine::scan(
          *db_, text::normalize_raw(candidates[i]), *scratch,
          [&hit](const engine::MatchEvent& event) {
            hit = event;
            return engine::ScanDecision::Stop;
          });
      if (hit) verdicts[i] = hit->sig_index;
      statuses[i] = outcome.status;
    }
  };
  if (candidates.size() < 2) {
    scan_range(0, 0, candidates.size());
  } else {
    ThreadPool* pool = nullptr;
    {
      std::lock_guard<std::mutex> lock(pool_mu_);
      if (pool_ == nullptr) pool_ = std::make_unique<ThreadPool>(threads_);
      pool = pool_.get();
    }
    pool->parallel_ranges(candidates.size(), pool->size() * 4, scan_range);
  }

  Report report;
  std::map<std::string, std::size_t> hits;  // sorted by name -> stable output
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (verdicts[i]) {
      // A match decides the candidate regardless of scan status.
      report.rejected.push_back(i);
      ++hits[db_->name(*verdicts[i])];
    } else if (statuses[i] != engine::ScanStatus::kComplete) {
      // Incomplete scan, no match: placement is the degrade policy's
      // call, recorded so the administrator can re-queue these.
      report.degraded.push_back(i);
      if (policy_ == DegradePolicy::kFailClosed) {
        report.rejected.push_back(i);
      } else {
        report.hostable.push_back(i);
      }
    } else {
      report.hostable.push_back(i);
    }
  }
  report.hits_per_signature.assign(hits.begin(), hits.end());
  return report;
}

}  // namespace kizzle::core
