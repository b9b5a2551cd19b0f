#include "match/prefilter.h"

#include <algorithm>
#include <queue>
#include <span>
#include <stdexcept>

namespace kizzle::match {

namespace {
constexpr std::int32_t kNone = -1;

// Merges the sorted literal hits in `out` with the sorted `fallback` ids
// (the two sets are disjoint by construction). std::inplace_merge may heap-
// allocate a temporary buffer, which would break the scan path's zero-
// allocation guarantee; merging from the back into the resized vector
// needs no staging — the write cursor k == i + j stays strictly ahead of
// the unread hit prefix while any fallback element remains.
void merge_fallback(std::vector<std::size_t>& out,
                    const std::vector<std::size_t>& fallback) {
  if (fallback.empty()) return;
  std::size_t i = out.size();
  std::size_t j = fallback.size();
  out.resize(i + j);
  std::size_t k = out.size();
  while (j > 0) {
    if (i > 0 && out[i - 1] > fallback[j - 1]) {
      out[--k] = out[--i];
    } else {
      out[--k] = fallback[--j];
    }
  }
  // out[0..i) is already in place.
}

// Clears the dedup marks of the ids in `found` on every exit path. The
// bitmap is reused across scans, so a mark left behind by an exception
// would make the next scan silently drop that id.
struct SeenReset {
  std::vector<std::uint8_t>& seen;
  const std::vector<std::size_t>& found;
  ~SeenReset() {
    for (const std::size_t id : found) seen[id] = 0;
  }
};

// Marks `ids` as having no position hint (a no-op without a hint array).
void set_no_hint(std::vector<std::uint32_t>* hints,
                 std::span<const std::size_t> ids) {
  if (hints == nullptr) return;
  for (const std::size_t id : ids) (*hints)[id] = teddy::kNoHint;
}

// Texts longer than this are past Teddy's 32-bit hit positions; the SIMD
// pass runs over overlapping views of at most this many bytes instead.
constexpr std::size_t kMaxWholeText = 0xFFFFFFFFu;

}  // namespace

void LiteralPrefilter::add(std::size_t id, std::string_view literal) {
  if (literal.empty()) {
    fallback_raw_.push_back(id);
  } else {
    keywords_.push_back(Keyword{std::string(literal), id});
  }
  ++n_ids_;
  id_limit_ = std::max(id_limit_, id + 1);
  built_ = false;
}

void LiteralPrefilter::build() {
  // Everything here is regenerated from the raw registrations on every
  // build, never updated in place: rebuilds cannot accumulate stale or
  // repeated entries no matter how add()/build() calls interleave.
  fallback_ = fallback_raw_;
  std::sort(fallback_.begin(), fallback_.end());
  fallback_.erase(std::unique(fallback_.begin(), fallback_.end()),
                  fallback_.end());
  std::vector<std::size_t> ids;
  ids.reserve(keywords_.size());
  for (const Keyword& kw : keywords_) ids.push_back(kw.id);
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  n_automaton_ids_ = ids.size();

  // PlanSet::build shards by length class and compiles every non-empty
  // literal set.
  std::vector<teddy::PlanSet::Literal> lits;
  lits.reserve(keywords_.size());
  for (const Keyword& kw : keywords_) {
    lits.push_back(teddy::PlanSet::Literal{kw.literal, kw.id});
  }
  teddy_ =
      lits.empty() ? std::nullopt : teddy::PlanSet::build(std::move(lits));

  // Dense-shard routing, decided PER SHARD: a shard whose build-time
  // density estimate says its first stage would fire on more than a fifth
  // of all scanned bytes is confirm-bound, so its literals leave the SIMD
  // pass and walk an automaton compiled over exactly them; the remaining
  // (selective) shards keep the Teddy path. When every shard is dense the
  // automaton covers the whole literal set and Teddy never runs. A set
  // with no dense shard compiles no automaton at all.
  dense_shard_.clear();
  n_dense_shards_ = 0;
  dense_ = AcTables{};
  teddy_dense_ = false;
  if (teddy_.has_value()) {
    dense_shard_.assign(teddy_->shard_count(), 0);
    std::vector<Keyword> dense_kws;
    for (std::size_t i = 0; i < teddy_->shard_count(); ++i) {
      const teddy::Plan& shard = teddy_->shards()[i];
      if (shard.hit_density_estimate() <= kDenseRouteHitsPerByte) continue;
      dense_shard_[i] = 1;
      ++n_dense_shards_;
      // In shard order — deterministic, like every derived structure.
      for (const teddy::Plan::Literal& lit : shard.literals()) {
        dense_kws.push_back(Keyword{lit.text, lit.id});
      }
    }
    teddy_dense_ = n_dense_shards_ == teddy_->shard_count();
    if (n_dense_shards_ > 0) dense_ = compile_automaton(dense_kws);
  }
  built_ = true;
}

LiteralPrefilter::AcTables LiteralPrefilter::compile_automaton(
    const std::vector<Keyword>& keywords) {
  AcTables t;
  // Reduced alphabet: one column per byte value that occurs in a literal.
  t.alpha.fill(kNoCode);
  for (const Keyword& kw : keywords) {
    for (char c : kw.literal) {
      const auto b = static_cast<unsigned char>(c);
      if (t.alpha[b] == kNoCode) {
        t.alpha[b] = static_cast<std::uint16_t>(t.alpha_size++);
      }
    }
  }

  // Trie of keywords over the reduced alphabet.
  t.next.assign(t.alpha_size, kNone);  // state 0 = root
  std::vector<std::vector<std::size_t>> outputs(1);
  auto n_states = [&] {
    return t.next.size() / std::max<std::size_t>(t.alpha_size, 1);
  };
  for (const Keyword& kw : keywords) {
    std::int32_t state = 0;
    for (char c : kw.literal) {
      const std::uint16_t code = t.alpha[static_cast<unsigned char>(c)];
      const std::size_t slot =
          static_cast<std::size_t>(state) * t.alpha_size + code;
      if (t.next[slot] == kNone) {
        const auto fresh = static_cast<std::int32_t>(n_states());
        t.next.resize(t.next.size() + t.alpha_size, kNone);  // may reallocate
        t.next[slot] = fresh;
        outputs.emplace_back();
      }
      state = t.next[slot];
    }
    outputs[static_cast<std::size_t>(state)].push_back(kw.id);
  }

  // BFS: compute fail links, convert goto to a full DFA over the reduced
  // alphabet, and resolve each state's nearest output-bearing suffix.
  const std::size_t total = n_states();
  std::vector<std::int32_t> fail(total, 0);
  t.out_link.assign(total, kNone);
  std::queue<std::int32_t> bfs;
  for (std::size_t c = 0; c < t.alpha_size; ++c) {
    std::int32_t& slot = t.next[c];
    if (slot == kNone) {
      slot = 0;
    } else {
      bfs.push(slot);
    }
  }
  while (!bfs.empty()) {
    const std::int32_t s = bfs.front();
    bfs.pop();
    const std::int32_t f = fail[static_cast<std::size_t>(s)];
    t.out_link[static_cast<std::size_t>(s)] =
        outputs[static_cast<std::size_t>(f)].empty()
            ? t.out_link[static_cast<std::size_t>(f)]
            : f;
    for (std::size_t c = 0; c < t.alpha_size; ++c) {
      std::int32_t& slot =
          t.next[static_cast<std::size_t>(s) * t.alpha_size + c];
      const std::int32_t via_fail =
          t.next[static_cast<std::size_t>(f) * t.alpha_size + c];
      if (slot == kNone) {
        slot = via_fail;
      } else {
        fail[static_cast<std::size_t>(slot)] = via_fail;
        bfs.push(slot);
      }
    }
  }

  // Flatten per-state output lists.
  t.out_begin.assign(total, 0);
  t.out_end.assign(total, 0);
  for (std::size_t s = 0; s < total; ++s) {
    t.out_begin[s] = static_cast<std::int32_t>(t.out_ids.size());
    t.out_ids.insert(t.out_ids.end(), outputs[s].begin(), outputs[s].end());
    t.out_end[s] = static_cast<std::int32_t>(t.out_ids.size());
  }
  return t;
}

std::size_t LiteralPrefilter::ac_walk(const AcTables& t, std::string_view text,
                                      std::vector<std::uint8_t>& seen,
                                      std::vector<std::size_t>& out,
                                      std::size_t n_seen,
                                      std::size_t stop_at) {
  if (t.alpha_size == 0 || n_seen >= stop_at) return n_seen;
  std::int32_t s_cur = 0;
  for (const char ch : text) {
    const std::uint16_t code = t.alpha[static_cast<unsigned char>(ch)];
    if (code == kNoCode) {
      s_cur = 0;
      continue;
    }
    s_cur = t.next[static_cast<std::size_t>(s_cur) * t.alpha_size + code];
    for (std::int32_t s = s_cur; s != kNone;
         s = t.out_link[static_cast<std::size_t>(s)]) {
      if (t.out_begin[static_cast<std::size_t>(s)] ==
          t.out_end[static_cast<std::size_t>(s)]) {
        continue;  // root (or a pure-prefix state reached directly)
      }
      for (std::int32_t i = t.out_begin[static_cast<std::size_t>(s)];
           i < t.out_end[static_cast<std::size_t>(s)]; ++i) {
        const std::size_t id = t.out_ids[static_cast<std::size_t>(i)];
        if (!seen[id]) {
          out.push_back(id);  // before the mark: a throw leaves none behind
          seen[id] = 1;
          ++n_seen;
        }
      }
    }
    if (n_seen >= stop_at) break;
  }
  return n_seen;
}

std::vector<std::size_t> LiteralPrefilter::candidates(
    std::string_view text) const {
  std::vector<std::size_t> out;
  candidates_into(text, out);
  return out;
}

void LiteralPrefilter::candidates_into(std::string_view text,
                                       std::vector<std::size_t>& out) const {
  // Callers without a scratch of their own share a per-thread hit buffer.
  thread_local teddy::HitBuffer hits;
  candidates_into(text, out, hits);
}

void LiteralPrefilter::candidates_into(std::string_view text,
                                       std::vector<std::size_t>& out,
                                       teddy::HitBuffer& hits,
                                       PrefilterStats* stats,
                                       std::vector<std::uint32_t>* hints) const {
  collect(text, out, hits, stats, hints, kMaxWholeText);
}

void LiteralPrefilter::collect(std::string_view text,
                               std::vector<std::size_t>& out,
                               teddy::HitBuffer& hits, PrefilterStats* stats,
                               std::vector<std::uint32_t>* hints,
                               std::size_t slice) const {
  if (!built_) {
    throw std::logic_error("LiteralPrefilter: candidates before build()");
  }
  out.clear();
  if (stats != nullptr) *stats = PrefilterStats{};
  // Grown, never cleared: every candidate's entry is written below (by
  // the Teddy confirm, or explicitly as kNoHint), so clearing the other
  // id_count − candidates entries per scan would be pure waste.
  if (hints != nullptr && hints->size() < id_limit_) {
    hints->resize(id_limit_, teddy::kNoHint);
  }
  if (n_automaton_ids_ == 0) {
    out = fallback_;
    set_no_hint(hints, fallback_);
    if (stats != nullptr) stats->fallback = PrefilterFallback::kNoLiterals;
    return;
  }

  // Reused across calls (per thread) and never cleared wholesale: only
  // the marks this scan set are reset, so the per-scan cost is
  // O(candidates), not O(id_count).
  thread_local std::vector<std::uint8_t> seen;
  if (seen.size() < id_limit_) seen.resize(id_limit_, 0);
  {
    const SeenReset reset{seen, out};
    std::size_t n_seen = 0;
    if (teddy_dense_) {
      if (stats != nullptr) stats->fallback = PrefilterFallback::kDenseLiterals;
    } else {
      teddy::ScanCounters counters;
      const std::vector<std::uint8_t>* skip =
          n_dense_shards_ > 0 ? &dense_shard_ : nullptr;
      if (text.size() <= slice) {
        n_seen = teddy_->find(text, hits, seen, out, 0, n_automaton_ids_,
                              &counters, hints, skip);
      } else {
        // Past the position space: overlapping views of the text itself,
        // each sharing longest-literal−1 bytes with the next, so every
        // occurrence lies wholly inside some view; ids re-confirmed in an
        // overlap deduplicate. View-relative positions mean nothing to the
        // caller, so this route reports no hints.
        const std::size_t overlap = teddy_->max_literal_len() - 1;
        const std::size_t view = std::max(slice, overlap + 1);
        for (std::size_t at = 0; n_seen < n_automaton_ids_;
             at += view - overlap) {
          n_seen = teddy_->find(text.substr(at, view), hits, seen, out, n_seen,
                                n_automaton_ids_, &counters, nullptr, skip);
          if (text.size() - at <= view) break;
        }
        set_no_hint(hints, out);
      }
      if (stats != nullptr) {
        stats->first_stage_hits = counters.first_stage_hits;
        stats->shards_scanned = counters.shards_scanned;
      }
    }
    if (n_dense_shards_ > 0) {
      // Dense shards' literals walk their automaton over the whole text.
      // Ids found here get no hint — the confirm tier falls back to a
      // full-text anchor search.
      const std::size_t first = out.size();
      ac_walk(dense_, text, seen, out, n_seen, n_automaton_ids_);
      set_no_hint(hints, std::span<const std::size_t>(out).subspan(first));
    }
    if (stats != nullptr) {
      stats->dense_shards = n_dense_shards_;
      stats->literal_survivors = out.size();
    }
    std::sort(out.begin(), out.end());
  }
  merge_fallback(out, fallback_);
  set_no_hint(hints, fallback_);
}

std::vector<LiteralPrefilter::Registration> LiteralPrefilter::registrations()
    const {
  std::vector<Registration> regs;
  regs.reserve(keywords_.size() + fallback_raw_.size());
  for (const Keyword& kw : keywords_) {
    regs.push_back(Registration{kw.literal, kw.id});
  }
  for (const std::size_t id : fallback_raw_) {
    regs.push_back(Registration{std::string_view(), id});
  }
  return regs;
}

}  // namespace kizzle::match
