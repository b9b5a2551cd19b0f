#include "serve/server.h"

#include <sys/stat.h>

#include <condition_variable>
#include <fstream>
#include <sstream>
#include <utility>

#include "analyze/analyze.h"
#include "core/sigdb.h"

namespace kizzle::serve {

using Clock = std::chrono::steady_clock;

const char* request_status_name(RequestStatus s) {
  switch (s) {
    case RequestStatus::kOk:
      return "ok";
    case RequestStatus::kOverloaded:
      return "overloaded";
    case RequestStatus::kShuttingDown:
      return "shutting-down";
  }
  return "?";
}

// Atomic mirror of ServerStats: workers and producers bump these with
// relaxed increments (counters, not synchronization); stats() snapshots.
struct ScanServer::Counters {
  std::atomic<std::uint64_t> submitted{0};
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> matched{0};
  std::atomic<std::uint64_t> shed_queue_full{0};
  std::atomic<std::uint64_t> shed_stale{0};
  std::atomic<std::uint64_t> rejected_shutdown{0};
  std::atomic<std::uint64_t> deadline_expired{0};
  std::atomic<std::uint64_t> streams_opened{0};
  std::atomic<std::uint64_t> streams_completed{0};
  std::atomic<std::uint64_t> batches{0};
  std::atomic<std::uint64_t> batched_jobs{0};
  std::atomic<std::uint64_t> epoch_swaps{0};
  std::atomic<std::uint64_t> swaps_rejected{0};
};

namespace {
inline void bump(std::atomic<std::uint64_t>& c, std::uint64_t by = 1) {
  c.fetch_add(by, std::memory_order_relaxed);
}

// First error message of a non-clean lint report, for SwapResult::reason.
std::string lint_reason(const analyze::Report& report) {
  for (const auto& f : report.findings) {
    if (f.severity == analyze::Severity::kError) {
      std::string out = "lint: [";
      out += analyze::check_name(f.check);
      out += "] ";
      if (!f.signature.empty()) {
        out += f.signature;
        out += ": ";
      }
      out += f.message;
      return out;
    }
  }
  return "lint: error-severity findings";
}
}  // namespace

// ------------------------------- session --------------------------------

// One chunked-stream session: an actor whose feed()/finish() ops are
// serialized through `pending` + the single `scheduled` queue token. The
// epoch is pinned at open (db/epoch/limits are set once by open_stream and
// read-only afterwards); the engine stream and its dedicated scratch are
// materialized lazily by the first op a worker processes and torn down at
// finish, so an idle-opened session costs nothing but the struct.
struct ScanServer::Stream::Session {
  enum class OpKind : std::uint8_t { kFeed, kFinish };
  struct Op {
    OpKind kind = OpKind::kFeed;
    std::string chunk;
    ResponseFn done;  // kFinish only
  };

  ScanServer* server = nullptr;

  // Pinned at open_stream(), immutable afterwards.
  std::shared_ptr<const engine::Database> db;
  std::uint64_t epoch = 0;
  engine::ScanLimits limits;

  // Producer/worker shared state.
  std::mutex mu;
  std::deque<Op> pending;
  bool scheduled = false;    // a queue token for this session is in flight
  bool finish_seen = false;  // finish() admitted; no further ops

  // Worker-only execution state (serialized by the actor token).
  std::optional<engine::ScratchPool::Handle> scratch;
  std::optional<engine::Stream> stream;
  bool opened = false;
};

RequestStatus ScanServer::Stream::feed(std::string normalized_chunk) {
  if (!session_ || session_->server == nullptr) {
    return RequestStatus::kShuttingDown;
  }
  return session_->server->enqueue_op(session_, /*is_finish=*/false,
                                      std::move(normalized_chunk), nullptr);
}

RequestStatus ScanServer::Stream::finish(ResponseFn done) {
  if (!session_ || session_->server == nullptr || !done) {
    return RequestStatus::kShuttingDown;
  }
  return session_->server->enqueue_op(session_, /*is_finish=*/true,
                                      std::string(), std::move(done));
}

std::uint64_t ScanServer::Stream::epoch() const {
  return session_ ? session_->epoch : 0;
}

// ------------------------------- server ---------------------------------

ScanServer::ScanServer(std::shared_ptr<const engine::Database> db,
                       ServerConfig cfg)
    : cfg_(cfg),
      queue_(cfg.queue_capacity),
      db_(std::move(db)),
      counters_(std::make_unique<Counters>()) {
  if (!db_) db_ = std::make_shared<const engine::Database>();
  std::size_t n = cfg_.workers;
  if (n == 0) {
    n = std::thread::hardware_concurrency();
    if (n == 0) n = 1;
  }
  if (cfg_.batch_max == 0) cfg_.batch_max = 1;
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ScanServer::~ScanServer() { stop(); }

engine::ScanLimits ScanServer::effective_limits(
    const engine::ScanLimits& requested, Clock::time_point enqueued) const {
  // Re-anchor a relative wall budget at *submit* time: the absolute
  // deadline the workers see already includes whatever the request spends
  // queued, so backlog cannot silently extend a request's budget.
  engine::ScanLimits limits = requested;
  limits.deadline = requested.effective_deadline(enqueued);
  return limits;
}

RequestStatus ScanServer::submit(std::string normalized_text, ResponseFn done) {
  return submit(std::move(normalized_text), cfg_.default_limits,
                std::move(done));
}

RequestStatus ScanServer::submit(std::string normalized_text,
                                 const engine::ScanLimits& limits,
                                 ResponseFn done) {
  if (!done) return RequestStatus::kShuttingDown;
  if (stopping_.load(std::memory_order_acquire)) {
    bump(counters_->rejected_shutdown);
    return RequestStatus::kShuttingDown;
  }
  const auto now = Clock::now();
  auto req = std::make_unique<OneShot>();
  req->text = std::move(normalized_text);
  req->limits = effective_limits(limits, now);
  req->enqueued = now;
  req->done = std::move(done);

  job_admitted();
  Job job;
  job.one_shot = std::move(req);
  if (!queue_.try_push(job)) {
    job_done();
    if (stopping_.load(std::memory_order_acquire)) {
      bump(counters_->rejected_shutdown);
      return RequestStatus::kShuttingDown;
    }
    bump(counters_->shed_queue_full);
    return RequestStatus::kOverloaded;
  }
  bump(counters_->submitted);
  return RequestStatus::kOk;
}

ScanServer::Stream ScanServer::open_stream() {
  return open_stream(cfg_.default_limits);
}

ScanServer::Stream ScanServer::open_stream(const engine::ScanLimits& limits) {
  if (stopping_.load(std::memory_order_acquire)) {
    bump(counters_->rejected_shutdown);
    return Stream();
  }
  auto session = std::make_shared<Stream::Session>();
  session->server = this;
  {
    // Epoch pin: db and epoch are read under the same lock that deploys
    // write them, so a session can never see a database/epoch mismatch.
    std::lock_guard<std::mutex> lock(epoch_mu_);
    session->db = db_;
    session->epoch = epoch_.load(std::memory_order_relaxed);
  }
  session->limits = effective_limits(limits, Clock::now());
  bump(counters_->streams_opened);
  return Stream(std::move(session));
}

RequestStatus ScanServer::enqueue_op(
    const std::shared_ptr<Stream::Session>& session, bool is_finish,
    std::string chunk, ResponseFn done) {
  Stream::Session::Op op;
  op.kind = is_finish ? Stream::Session::OpKind::kFinish
                      : Stream::Session::OpKind::kFeed;
  op.chunk = std::move(chunk);
  op.done = std::move(done);
  std::lock_guard<std::mutex> lock(session->mu);
  if (stopping_.load(std::memory_order_acquire) || session->finish_seen) {
    bump(counters_->rejected_shutdown);
    return RequestStatus::kShuttingDown;
  }
  if (session->pending.size() >= cfg_.stream_pending_max) {
    bump(counters_->shed_queue_full);
    return RequestStatus::kOverloaded;
  }
  // Secure the actor token before admitting the op: at most one token per
  // session is ever queued, so one worker at a time drains the session's
  // ops in arrival order. (Lock order session->mu then queue lock; workers
  // take them disjointly, so no cycle.)
  if (!session->scheduled) {
    Job job;
    job.session = session;
    if (!queue_.try_push(job)) {
      if (stopping_.load(std::memory_order_acquire)) {
        bump(counters_->rejected_shutdown);
        return RequestStatus::kShuttingDown;
      }
      bump(counters_->shed_queue_full);
      return RequestStatus::kOverloaded;
    }
    session->scheduled = true;
  }
  if (is_finish) session->finish_seen = true;
  session->pending.push_back(std::move(op));
  job_admitted();
  return RequestStatus::kOk;
}

// ------------------------------- workers --------------------------------

void ScanServer::worker_loop() {
  engine::ScratchPool::Handle scratch = scratches_.acquire();
  std::vector<Job> batch;
  batch.reserve(cfg_.batch_max);
  for (;;) {
    batch.clear();
    const std::size_t n = queue_.pop_batch(batch, cfg_.batch_max);
    if (n == 0) return;  // closed and drained
    bump(counters_->batches);
    bump(counters_->batched_jobs, n);
    // One epoch resolution per batch: every one-shot in the batch scans
    // the same snapshot, and the shared_ptr copy is paid once, not per
    // request. (Sessions use their own pinned epoch instead.)
    std::shared_ptr<const engine::Database> db;
    std::uint64_t db_epoch = 0;
    {
      std::lock_guard<std::mutex> lock(epoch_mu_);
      db = db_;
      db_epoch = epoch_.load(std::memory_order_relaxed);
    }
    for (Job& job : batch) {
      if (job.one_shot) {
        run_one_shot(*job.one_shot, db, db_epoch, *scratch);
        job_done();
      } else if (job.session) {
        run_session(job.session);
      }
    }
  }
}

void ScanServer::run_one_shot(OneShot& req,
                              const std::shared_ptr<const engine::Database>& db,
                              std::uint64_t db_epoch,
                              engine::Scratch& scratch) {
  ScanResponse resp;
  resp.epoch = db_epoch;
  const auto now = Clock::now();
  // Stale shed: under a backlog the oldest work is the first to drop —
  // its submitter has usually given up already, and scanning it anyway
  // would make every request behind it later too.
  if (cfg_.max_queue_age.count() > 0 &&
      now - req.enqueued > cfg_.max_queue_age) {
    resp.status = RequestStatus::kOverloaded;
    bump(counters_->shed_stale);
    req.done(std::move(resp));
    return;
  }
  // A request whose deadline passed while it queued is answered without
  // scanning: the outcome is the same kDeadlineExpired the engine would
  // report, minus the wasted prefilter work.
  const auto deadline = req.limits.effective_deadline(req.enqueued);
  if (deadline != Clock::time_point{} && now >= deadline) {
    resp.status = RequestStatus::kOk;
    resp.outcome.status = engine::ScanStatus::kDeadlineExpired;
    resp.outcome.limited_stage = engine::ScanStage::kInput;
    bump(counters_->completed);
    bump(counters_->deadline_expired);
    req.done(std::move(resp));
    return;
  }
  scratch.set_limits(req.limits);
  engine::ScanOutcome outcome;
  const auto event = engine::first_match(*db, req.text, scratch, &outcome);
  resp.status = RequestStatus::kOk;
  resp.outcome = outcome;
  if (event.has_value()) {
    resp.matched = true;
    resp.sig_index = event->sig_index;
    resp.signature = std::string(event->name);
    resp.match_begin = event->begin;
    resp.match_end = event->end;
    bump(counters_->matched);
  }
  bump(counters_->completed);
  if (outcome.status == engine::ScanStatus::kDeadlineExpired) {
    bump(counters_->deadline_expired);
  }
  req.done(std::move(resp));
}

void ScanServer::run_session(const std::shared_ptr<Stream::Session>& session) {
  // Actor body: drain every op queued on the session, then give the token
  // back. `scheduled` stays true for the whole drain, so no second worker
  // can interleave — ops execute in exact arrival order.
  for (;;) {
    Stream::Session::Op op;
    {
      std::lock_guard<std::mutex> lock(session->mu);
      if (session->pending.empty()) {
        session->scheduled = false;
        return;
      }
      op = std::move(session->pending.front());
      session->pending.pop_front();
    }
    if (!session->opened) {
      // Lazy materialization on first op: a dedicated scratch for the
      // session's lifetime (streams accumulate state across ops, so they
      // cannot share the worker's batch scratch).
      session->scratch.emplace(scratches_.acquire());
      (*session->scratch)->set_limits(session->limits);
      session->stream.emplace(
          engine::open_stream(*session->db, **session->scratch));
      session->opened = true;
    }
    if (op.kind == Stream::Session::OpKind::kFeed) {
      if (session->stream.has_value()) session->stream->feed(op.chunk);
    } else {
      ScanResponse resp;
      resp.epoch = session->epoch;
      resp.status = RequestStatus::kOk;
      if (session->stream.has_value()) {
        engine::ScanOutcome outcome;
        const auto event = session->stream->finish_first(&outcome);
        resp.outcome = outcome;
        if (event.has_value()) {
          resp.matched = true;
          resp.sig_index = event->sig_index;
          resp.signature = std::string(event->name);
          resp.match_begin = event->begin;
          resp.match_end = event->end;
          bump(counters_->matched);
        }
        if (outcome.status == engine::ScanStatus::kDeadlineExpired) {
          bump(counters_->deadline_expired);
        }
      }
      bump(counters_->completed);
      bump(counters_->streams_completed);
      // Retire the session's scan state (scratch back to the pool, pinned
      // database released — the epoch can now be reclaimed if this was its
      // last reader). The session struct itself lives as long as the
      // client handle.
      session->stream.reset();
      session->scratch.reset();
      session->db.reset();
      op.done(std::move(resp));
    }
    job_done();
  }
}

// -------------------------------- epochs --------------------------------

std::shared_ptr<const engine::Database> ScanServer::database() const {
  std::lock_guard<std::mutex> lock(epoch_mu_);
  return db_;
}

ScanServer::SwapResult ScanServer::publish(
    std::shared_ptr<const engine::Database> db) {
  SwapResult result;
  result.accepted = true;
  {
    std::lock_guard<std::mutex> lock(epoch_mu_);
    db_ = std::move(db);
    result.epoch = epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
  }
  bump(counters_->epoch_swaps);
  return result;
}

ScanServer::SwapResult ScanServer::deploy(
    std::shared_ptr<const engine::Database> db) {
  if (!db) {
    bump(counters_->swaps_rejected);
    return {false, epoch(), "null database"};
  }
  if (cfg_.lint_on_swap) {
    const analyze::Report report = analyze::analyze_database(*db);
    if (!report.clean()) {
      bump(counters_->swaps_rejected);
      return {false, epoch(), lint_reason(report)};
    }
  }
  return publish(std::move(db));
}

ScanServer::SwapResult ScanServer::deploy_artifact(std::istream& artifact) {
  try {
    // A `.kpf` holds signature source only, so loading it compiles it;
    // deploy() then lint-gates the compiled database like any other.
    return deploy(std::make_shared<const engine::Database>(
        engine::Database::from_artifact(artifact)));
  } catch (const std::exception& e) {
    // Malformed bundles throw the typed loader taxonomy; at the serving
    // edge that is a refused deploy, not a crashed server.
    bump(counters_->swaps_rejected);
    return {false, epoch(), e.what()};
  }
}

ScanServer::SwapResult ScanServer::deploy_delta(std::istream& delta_stream) {
  try {
    const core::DeltaArtifact delta = core::load_delta(delta_stream);
    // The base the delta is lint-checked against and extended from. The
    // epoch may move while we compile the extension (scans keep flowing);
    // the publish step below re-checks it.
    const std::shared_ptr<const engine::Database> base = database();
    if (cfg_.lint_on_swap) {
      // The delta gate: lineage fingerprints, retired-index sanity, and
      // the full candidate-grade analysis of every added signature
      // against the live set.
      const analyze::Report report = analyze::analyze_delta(*base, delta);
      if (!report.clean()) {
        bump(counters_->swaps_rejected);
        return {false, epoch(), lint_reason(report)};
      }
    }
    // Compile only the added signatures; extend() re-verifies both
    // lineage fingerprints even with the lint gate off.
    auto next = std::make_shared<engine::Database>(base->extend(delta));
    SwapResult result;
    {
      std::lock_guard<std::mutex> lock(epoch_mu_);
      if (db_ != base) {
        // A full deploy (or another delta) won the race: applying this
        // delta now would replace that epoch with one derived from an
        // older base. Refuse; the distributor re-issues against the new
        // lineage.
        bump(counters_->swaps_rejected);
        return {false, epoch(), "stale base: serving epoch changed while "
                                "the delta was being applied"};
      }
      db_ = std::move(next);
      result.accepted = true;
      result.epoch = epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
    }
    bump(counters_->epoch_swaps);
    return result;
  } catch (const std::exception& e) {
    // Corrupt bytes, wrong lineage, out-of-range retire: all typed
    // refusals. The serving epoch is untouched — "rollback" is never
    // having left.
    bump(counters_->swaps_rejected);
    return {false, epoch(), e.what()};
  }
}

// ------------------------------ lifecycle -------------------------------

void ScanServer::job_admitted() {
  std::lock_guard<std::mutex> lock(drain_mu_);
  ++in_flight_;
}

void ScanServer::job_done() {
  std::lock_guard<std::mutex> lock(drain_mu_);
  --in_flight_;
  if (in_flight_ == 0) drain_cv_.notify_all();
}

void ScanServer::drain() {
  std::unique_lock<std::mutex> lock(drain_mu_);
  drain_cv_.wait(lock, [this] { return in_flight_ == 0; });
}

void ScanServer::stop() {
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true,
                                         std::memory_order_acq_rel)) {
    // Second caller (e.g. the destructor after an explicit stop()): wait
    // for the first stop to have joined, which it has by the time the
    // workers vector is empty.
    for (auto& w : workers_) {
      if (w.joinable()) w.join();
    }
    return;
  }
  // Admission is off (stopping_); everything already accepted still runs:
  // drain to zero in-flight, then close the queue so workers exit.
  drain();
  queue_.close();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

ServerStats ScanServer::stats() const {
  const Counters& c = *counters_;
  ServerStats s;
  s.submitted = c.submitted.load(std::memory_order_relaxed);
  s.completed = c.completed.load(std::memory_order_relaxed);
  s.matched = c.matched.load(std::memory_order_relaxed);
  s.shed_queue_full = c.shed_queue_full.load(std::memory_order_relaxed);
  s.shed_stale = c.shed_stale.load(std::memory_order_relaxed);
  s.rejected_shutdown = c.rejected_shutdown.load(std::memory_order_relaxed);
  s.deadline_expired = c.deadline_expired.load(std::memory_order_relaxed);
  s.streams_opened = c.streams_opened.load(std::memory_order_relaxed);
  s.streams_completed = c.streams_completed.load(std::memory_order_relaxed);
  s.batches = c.batches.load(std::memory_order_relaxed);
  s.batched_jobs = c.batched_jobs.load(std::memory_order_relaxed);
  s.epoch_swaps = c.epoch_swaps.load(std::memory_order_relaxed);
  s.swaps_rejected = c.swaps_rejected.load(std::memory_order_relaxed);
  return s;
}

// ------------------------------- watcher --------------------------------

namespace {

// (mtime, size) identity at the finest mtime resolution the platform
// exposes: with whole-second timestamps a writer that appends twice
// within one second looks unchanged, which is exactly the window the
// debounce exists to close.
bool stat_identity(const char* path, std::int64_t& mtime_ns,
                   std::uint64_t& size) {
  struct ::stat st = {};
  if (::stat(path, &st) != 0) return false;
#if defined(__APPLE__)
  mtime_ns = static_cast<std::int64_t>(st.st_mtimespec.tv_sec) * 1000000000 +
             st.st_mtimespec.tv_nsec;
#elif defined(__unix__)
  mtime_ns = static_cast<std::int64_t>(st.st_mtim.tv_sec) * 1000000000 +
             st.st_mtim.tv_nsec;
#else
  mtime_ns = static_cast<std::int64_t>(st.st_mtime) * 1000000000;
#endif
  size = static_cast<std::uint64_t>(st.st_size);
  return true;
}

}  // namespace

ArtifactWatcher::ArtifactWatcher(ScanServer& server, std::string path,
                                 std::chrono::milliseconds poll_interval,
                                 std::chrono::milliseconds settle)
    : server_(server),
      path_(std::move(path)),
      poll_(poll_interval.count() > 0 ? poll_interval
                                      : std::chrono::milliseconds(50)),
      // Default debounce: half a poll period — long enough for a rename
      // or a fast copy to complete, short enough that a real release
      // deploys within the next poll.
      settle_(settle.count() >= 0 ? settle : poll_ / 2) {
  // No other thread sees the members yet: the poll thread starts below.
  primed_ = stat_identity(path_.c_str(), seen_mtime_, seen_size_);
  thread_ = std::thread([this] { loop(); });
}

ArtifactWatcher::~ArtifactWatcher() { stop(); }

void ArtifactWatcher::stop() {
  stopping_.store(true, std::memory_order_release);
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

ArtifactWatcher::Stats ArtifactWatcher::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

bool ArtifactWatcher::primed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return primed_;
}

void ArtifactWatcher::loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait_for(lock, poll_, [this] {
      return stopping_.load(std::memory_order_acquire);
    });
    if (stopping_.load(std::memory_order_acquire)) return;
    lock.unlock();
    const bool attempted = try_deploy();
    lock.lock();
    (void)attempted;
  }
}

bool ArtifactWatcher::try_deploy() {
  std::int64_t mtime = 0;
  std::uint64_t size = 0;
  if (!stat_identity(path_.c_str(), mtime, size)) return false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (primed_ && mtime == seen_mtime_ && size == seen_size_) return false;
    if (!primed_) {
      // The file appeared after construction: this first observation
      // primes the identity without deploying.
      seen_mtime_ = mtime;
      seen_size_ = size;
      primed_ = true;
      return false;
    }
  }
  // Debounce: give the writer a settle window, then re-stat. An identity
  // still in motion is a partial write — skip it WITHOUT recording it as
  // seen, so the next poll picks the file up again once it stops moving.
  if (settle_.count() > 0) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait_for(lock, settle_, [this] {
        return stopping_.load(std::memory_order_acquire);
      });
    }
    if (stopping_.load(std::memory_order_acquire)) return false;
    std::int64_t mtime2 = 0;
    std::uint64_t size2 = 0;
    if (!stat_identity(path_.c_str(), mtime2, size2)) return false;
    if (mtime2 != mtime || size2 != size) return false;  // still changing
  }
  {
    // Remember the attempted identity: a settled file state that fails
    // verification is not re-tried until the file changes again.
    std::lock_guard<std::mutex> lock(mu_);
    seen_mtime_ = mtime;
    seen_size_ = size;
  }
  std::ifstream in(path_, std::ios::binary);
  if (!in) return false;
  // Route on the leading magic: deltas hot-apply through the incremental
  // path, anything else takes the full-artifact deploy (whose loader
  // rejects junk with a typed refusal).
  char magic[8] = {};
  in.read(magic, sizeof magic);
  const bool is_delta =
      in.gcount() == sizeof magic &&
      std::string_view(magic, sizeof magic) == core::kDeltaMagic;
  in.clear();
  in.seekg(0);
  const ScanServer::SwapResult result =
      is_delta ? server_.deploy_delta(in) : server_.deploy_artifact(in);
  std::lock_guard<std::mutex> lock(mu_);
  if (result.accepted) {
    ++stats_.swaps;
  } else {
    ++stats_.rejected;
  }
  return true;
}

}  // namespace kizzle::serve
