// kizzle serve — the asynchronous scan service.
//
// Everything below this directory exists because a signature compiler
// that re-releases faster than kits mutate (the paper's premise) only
// pays off when the scanner runs as a *fleet service* in front of live
// traffic: sustained mixed request streams, tail-latency budgets, and
// signature databases that are replaced underneath running scans. The
// engine already provides the per-scan building blocks — immutable
// engine::Database, per-worker Scratch, per-request ScanLimits deadlines,
// typed ScanOutcome — and this layer composes them into a server.
//
// ------------------------------ queueing model ------------------------------
//
// ScanServer is thread-per-core: `workers` threads (default: hardware
// concurrency), each holding one warm engine::ScratchPool handle for its
// whole life, all popping one bounded MPMC queue
// (support/mpmc_queue.h). Dequeue is *batched*: a worker takes up to
// `batch_max` jobs in one critical section and resolves the current
// database epoch once per batch, so per-request dispatch overhead
// (queue lock, epoch load) is amortized across the batch, the way
// CdnFilter::filter takes one pooled scratch per range of candidates.
//
// Two request shapes ride the same queue:
//
//   one-shot   submit(text, done): the whole normalized document at once.
//   stream     open_stream(): a session whose feed()/finish() calls are
//              enqueued as work and executed in arrival order on the
//              workers (an actor: at most one scheduling token per session
//              is ever in the queue, so chunk processing is serialized
//              without dedicating a worker to the stream).
//
// ------------------------------ shed-load policy ----------------------------
//
// Admission control is edge-based and typed — the server *never* queues
// unboundedly and never throws for overload:
//
//   queue depth   try_push on the bounded queue; a full queue rejects the
//                 request right at submit() with kOverloaded.
//   enqueue age   jobs carry their submit timestamp; a worker that pops a
//                 request older than `max_queue_age` completes it as
//                 kOverloaded without scanning (stale work is the first
//                 thing to shed under a backlog — its submitter has
//                 usually timed out already).
//   stream ops    per-session pending-op cap (`stream_pending_max`), so a
//                 producer feeding faster than workers drain cannot grow a
//                 session's buffer without bound.
//   deadlines     per-request ScanLimits; a relative wall budget is
//                 re-anchored at *submit* time to an absolute
//                 ScanLimits.deadline, so time spent queued counts against
//                 the request's budget and an expired request is answered
//                 (kDeadlineExpired) without scanning.
//
// ------------------------------ epoch lifecycle -----------------------------
//
// The database is held RCU-style: one shared_ptr<const engine::Database>
// per *epoch*, flipped atomically by deploy()/deploy_artifact()/
// deploy_delta() while readers keep scanning:
//
//   - one-shot scans resolve the epoch at batch start and scan against
//     that snapshot; the shared_ptr keeps the old database alive until
//     the last reader drops it — a swap never invalidates an in-flight
//     scan.
//   - streams pin their epoch at open_stream() and finish on it, no
//     matter how many swaps happen mid-stream: a stream's verdict and the
//     epoch its response reports name one database, the one in force
//     when the client started sending.
//   - deploys are *gated*: unless lint_on_swap is off, the incoming
//     database (an artifact is compiled first) runs the full `kizzle
//     lint` analysis (analyze/analyze.h) and error-severity findings
//     refuse the flip. The rejection is typed (SwapResult) and counted
//     (ServerStats::swaps_rejected); the serving epoch is untouched.
//
// Incremental deploys ride the same lifecycle: deploy_delta() applies a
// `KZDELTA` artifact (core/sigdb.h) to the live epoch's database via
// engine::Database::extend — lint-gated by analyze_delta against the
// exact base it will extend, published only if that base is still the
// serving epoch (a concurrent full deploy refuses the delta as stale
// rather than silently applying it to the wrong lineage). Any error —
// corrupt bytes, wrong lineage, lint findings — is a typed refusal that
// leaves the serving epoch untouched: rollback is "never left".
//
// ArtifactWatcher is the `kizzle serve --watch` loop: it polls a path,
// sniffs the leading magic ("KZDELTAF" routes through deploy_delta(),
// anything else through deploy_artifact()), and deploys changed bytes
// through the lint-gated hot-swap, so a fleet worker picks up releases
// (atomically renamed into place) without a restart and without dropping
// a scan. Changes are *debounced*: a changed identity is re-stat'ed
// after a settle window and skipped — without being recorded as seen —
// while the size/mtime is still moving, so a slow non-atomic writer is
// simply retried at the next poll instead of half-read.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "engine/limits.h"
#include "support/mpmc_queue.h"

namespace kizzle::serve {

// How the server disposed of a request. Every submit/feed/finish returns
// one, and every accepted request's completion callback carries one —
// overload and shutdown are data, never exceptions.
enum class RequestStatus : std::uint8_t {
  kOk,            // scanned; see the ScanOutcome for the engine's verdict
  kOverloaded,    // shed: queue full, session buffer full, or stale on pop
  kShuttingDown,  // rejected: server stopping (or session already finished)
};

const char* request_status_name(RequestStatus s);

struct ServerConfig {
  std::size_t workers = 0;            // 0 = hardware concurrency
  std::size_t queue_capacity = 1024;  // bounded request queue
  // Shed requests that waited longer than this before a worker got to
  // them (0 = no age shedding).
  std::chrono::microseconds max_queue_age{0};
  std::size_t batch_max = 32;          // jobs per dequeue batch
  std::size_t stream_pending_max = 64; // per-session queued ops cap
  // Per-request envelope when the submitter does not pass one. A relative
  // wall_budget is re-anchored at submit time (queueing counts).
  engine::ScanLimits default_limits;
  // Lint-verify every deploy and refuse the epoch flip on error-severity
  // findings (the `kizzle lint` gate applied to the hot-swap path).
  bool lint_on_swap = true;
};

// Completion of one accepted request. Signature data is copied out of the
// database (name/family strings), so the response stays valid after the
// serving epoch is retired.
struct ScanResponse {
  RequestStatus status = RequestStatus::kOk;
  engine::ScanOutcome outcome;
  bool matched = false;
  std::size_t sig_index = 0;    // valid when matched
  std::string signature;        // matching signature name (copy)
  std::size_t match_begin = 0;
  std::size_t match_end = 0;
  std::uint64_t epoch = 0;      // database epoch that served the scan
};

using ResponseFn = std::function<void(ScanResponse)>;

// Monotonic counters, snapshot via ScanServer::stats().
struct ServerStats {
  std::uint64_t submitted = 0;         // accepted one-shot requests
  std::uint64_t completed = 0;         // one-shot + finished streams scanned
  std::uint64_t matched = 0;
  std::uint64_t shed_queue_full = 0;   // rejected at submit/feed (depth)
  std::uint64_t shed_stale = 0;        // completed kOverloaded on age
  std::uint64_t rejected_shutdown = 0;
  std::uint64_t deadline_expired = 0;  // outcomes with kDeadlineExpired
  std::uint64_t streams_opened = 0;
  std::uint64_t streams_completed = 0;
  std::uint64_t batches = 0;           // dequeue batches
  std::uint64_t batched_jobs = 0;      // jobs across those batches
  std::uint64_t epoch_swaps = 0;       // accepted deploys
  std::uint64_t swaps_rejected = 0;    // lint/parse-refused deploys
};

class ScanServer {
 public:
  explicit ScanServer(std::shared_ptr<const engine::Database> db,
                      ServerConfig cfg = {});
  ~ScanServer();

  ScanServer(const ScanServer&) = delete;
  ScanServer& operator=(const ScanServer&) = delete;

  // ------------------------------ one-shot ------------------------------

  // Scans `normalized_text` (already-normalized scan text) against the
  // epoch current when a worker picks the request up. Returns kOk when
  // admitted — `done` then runs exactly once, on a worker thread — or a
  // typed rejection, in which case `done` is never invoked.
  RequestStatus submit(std::string normalized_text, ResponseFn done);
  RequestStatus submit(std::string normalized_text,
                       const engine::ScanLimits& limits, ResponseFn done);

  // ------------------------------ streams -------------------------------

  // Client handle for chunked input. The session pins the epoch current at
  // open_stream() and finishes on it regardless of intervening swaps.
  // feed()/finish() are asynchronous (executed in order on the workers);
  // finish() may be called at most once, after which further calls are
  // rejected kShuttingDown. Dropping the handle without finish() abandons
  // the session (its queued chunks are still drained, then discarded).
  class Stream {
   public:
    Stream() = default;
    RequestStatus feed(std::string normalized_chunk);
    RequestStatus finish(ResponseFn done);
    std::uint64_t epoch() const;

   private:
    friend class ScanServer;
    struct Session;
    explicit Stream(std::shared_ptr<Session> session)
        : session_(std::move(session)) {}
    std::shared_ptr<Session> session_;
  };

  Stream open_stream();
  Stream open_stream(const engine::ScanLimits& limits);

  // ------------------------------ epochs --------------------------------

  std::uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }
  std::shared_ptr<const engine::Database> database() const;

  struct SwapResult {
    bool accepted = false;
    std::uint64_t epoch = 0;   // serving epoch after the call
    std::string reason;        // why a deploy was refused
  };

  // Lint-gates (per config) and atomically publishes a new epoch.
  SwapResult deploy(std::shared_ptr<const engine::Database> db);
  // Same, from `.kpf` artifact bytes: the embedded signatures are
  // compiled, then lint-gated like deploy(). Malformed artifacts are
  // refused (typed reason), never thrown.
  SwapResult deploy_artifact(std::istream& artifact);
  // Incremental deploy from `KZDELTA` bytes: parses the delta, lint-gates
  // it with analyze_delta against the live database (per config), applies
  // it via engine::Database::extend (only the added signatures compile),
  // and publishes the result — but only if the serving epoch still holds
  // the base the delta was applied to; a concurrent swap refuses it as
  // stale. Every failure is a typed refusal (SwapResult.reason) with the
  // serving epoch untouched.
  SwapResult deploy_delta(std::istream& delta);

  // ------------------------------ lifecycle -----------------------------

  // Blocks until every admitted job (including queued session ops) has
  // completed. New submissions during a drain are still admitted.
  void drain();

  // Stops admission, drains what was already accepted, joins the workers.
  // Idempotent; the destructor calls it.
  void stop();

  ServerStats stats() const;
  const ServerConfig& config() const { return cfg_; }
  std::size_t worker_count() const { return workers_.size(); }

 private:
  struct OneShot {
    std::string text;
    engine::ScanLimits limits;
    std::chrono::steady_clock::time_point enqueued;
    ResponseFn done;
  };

  // Queue element: exactly one of the two is set. A default-constructed
  // Job is the ring buffer's empty slot.
  struct Job {
    std::unique_ptr<OneShot> one_shot;
    std::shared_ptr<Stream::Session> session;
  };

  struct Counters;  // atomic mirror of ServerStats

  void worker_loop();
  void run_one_shot(OneShot& req,
                    const std::shared_ptr<const engine::Database>& db,
                    std::uint64_t db_epoch, engine::Scratch& scratch);
  void run_session(const std::shared_ptr<Stream::Session>& session);
  RequestStatus enqueue_op(const std::shared_ptr<Stream::Session>& session,
                           bool is_finish, std::string chunk, ResponseFn done);
  SwapResult publish(std::shared_ptr<const engine::Database> db);
  engine::ScanLimits effective_limits(
      const engine::ScanLimits& requested,
      std::chrono::steady_clock::time_point enqueued) const;
  void job_admitted();
  void job_done();

  ServerConfig cfg_;
  support::BoundedMpmcQueue<Job> queue_;

  // The serving epoch: pointer + counter move together under epoch_mu_;
  // epoch_ is additionally atomic so epoch() is a wait-free read.
  mutable std::mutex epoch_mu_;
  std::shared_ptr<const engine::Database> db_;
  std::atomic<std::uint64_t> epoch_{1};

  engine::ScratchPool scratches_;
  std::vector<std::thread> workers_;
  std::atomic<bool> stopping_{false};

  // Drain accounting: jobs admitted but not yet fully processed.
  mutable std::mutex drain_mu_;
  std::condition_variable drain_cv_;
  std::size_t in_flight_ = 0;

  std::unique_ptr<Counters> counters_;
};

// ------------------------------- watcher --------------------------------

// The `kizzle serve --watch` loop: polls an artifact path and deploys it
// through the server's lint-gated hot-swap when its (mtime, size)
// identity changes — full `.kpf` bundles via deploy_artifact(), `KZDELTA`
// deltas (sniffed by leading magic) via deploy_delta(). Release processes
// are expected to rename complete artifacts into place (the smoke script
// does); for writers that stream bytes in place instead, a changed
// identity is debounced: after `settle` the file is re-stat'ed
// (nanosecond mtime resolution where the platform provides it) and a
// still-moving identity is skipped *without* being recorded as seen, so
// the next poll retries once the writer finishes. A complete-but-bad file
// still simply fails verification, is counted as rejected, and is not
// retried until the file changes again.
//
// The file's identity at construction is the primed baseline (the server
// was started from it), so a release renamed into place any time after
// the constructor returns is deployed. When the file does not exist yet,
// the first poll that sees it primes instead.
class ArtifactWatcher {
 public:
  struct Stats {
    std::uint64_t swaps = 0;      // accepted deploys
    std::uint64_t rejected = 0;   // lint/parse refusals
  };

  // `settle` < 0 (default) derives the debounce window from the poll
  // interval; 0 disables debouncing (change identities deploy on first
  // sight, as before).
  ArtifactWatcher(ScanServer& server, std::string path,
                  std::chrono::milliseconds poll_interval,
                  std::chrono::milliseconds settle =
                      std::chrono::milliseconds(-1));
  ~ArtifactWatcher();

  void stop();
  Stats stats() const;
  // True once the baseline identity is recorded (see above).
  bool primed() const;

 private:
  void loop();
  bool try_deploy();

  ScanServer& server_;
  std::string path_;
  std::chrono::milliseconds poll_;
  std::chrono::milliseconds settle_;
  std::atomic<bool> stopping_{false};
  mutable std::mutex mu_;
  std::condition_variable cv_;
  Stats stats_;
  // Identity of the last attempted (deployed or refused) file state;
  // mtime in nanoseconds where the platform exposes them.
  std::int64_t seen_mtime_ = -1;
  std::uint64_t seen_size_ = 0;
  bool primed_ = false;
  std::thread thread_;
};

}  // namespace kizzle::serve
