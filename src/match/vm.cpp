// Backtracking executor for compiled patterns, plus the literal-prefilter
// search strategy and the tiered confirm_span() (compiled confirm
// programs, then the factor-gated VM).
#include <algorithm>
#include <cstring>
#include <limits>

#include "match/pattern.h"
#include "match/program.h"

namespace kizzle::match {

namespace detail {

// The VM's working memory, factored out of the per-call Machine so scan
// paths can recycle it: slots/progress are sized per program, undo/stack
// grow to the backtracking high-water mark and then stay allocated.
struct VmState {
  enum class UndoKind : std::uint8_t { Slot, Progress };
  struct Undo {
    UndoKind kind;
    std::uint32_t index;
    std::size_t value;
  };
  // A Split's alternative, or (run_floor != kNoRun) a Run's remaining
  // counts: resume at pc with sp, sp - 1, ... down to run_floor.
  static constexpr std::size_t kNoRun = static_cast<std::size_t>(-1);
  struct Frame {
    std::uint32_t pc;
    std::size_t sp;
    std::size_t undo_size;
    std::size_t run_floor = kNoRun;
  };

  std::vector<std::size_t> slots;
  std::vector<std::size_t> progress;
  std::vector<Undo> undo;
  std::vector<Frame> stack;
};

}  // namespace detail

VmScratch::VmScratch() : state_(std::make_unique<detail::VmState>()) {}
VmScratch::~VmScratch() = default;
VmScratch::VmScratch(VmScratch&&) noexcept = default;
VmScratch& VmScratch::operator=(VmScratch&&) noexcept = default;

namespace {

using detail::Instr;
using detail::Op;
using detail::Program;
using detail::VmState;

constexpr std::size_t kUnset = std::numeric_limits<std::size_t>::max();
constexpr std::uint64_t kDefaultBudget = 1u << 22;

// One backtracking attempt anchored at `start`. Returns true on match and
// fills `state.slots` (2 per group). `steps` is decremented as budget.
class Machine {
 public:
  Machine(const Program& prog, std::string_view text, VmState& state)
      : prog_(prog), text_(text), st_(state) {
    st_.slots.assign(2 * (prog.n_groups + 1), kUnset);
    st_.progress.assign(prog.n_progress, kUnset);
  }

  bool run(std::size_t start, std::uint64_t* steps, bool* budget_exceeded) {
    std::fill(st_.slots.begin(), st_.slots.end(), kUnset);
    std::fill(st_.progress.begin(), st_.progress.end(), kUnset);
    st_.undo.clear();
    st_.stack.clear();

    std::uint32_t pc = 0;
    std::size_t sp = start;
    for (;;) {
      if (*steps == 0) {
        *budget_exceeded = true;
        return false;
      }
      --*steps;
      const Instr& ins = prog_.code[pc];
      bool fail = false;
      switch (ins.op) {
        case Op::Char:
          if (sp < text_.size() &&
              static_cast<unsigned char>(text_[sp]) == ins.x) {
            ++sp;
            ++pc;
          } else {
            fail = true;
          }
          break;
        case Op::Class:
          if (sp < text_.size() &&
              prog_.classes[ins.x][static_cast<unsigned char>(text_[sp])]) {
            ++sp;
            ++pc;
          } else {
            fail = true;
          }
          break;
        case Op::Any:
          if (sp < text_.size() && text_[sp] != '\n') {
            ++sp;
            ++pc;
          } else {
            fail = true;
          }
          break;
        case Op::Run: {
          const std::size_t n = run_length(prog_.code[pc + 1], sp, ins.y);
          // Charge what the unrolled form executes: each mandatory copy,
          // a Split + copy per optional one, and the Split + failing copy
          // that ends a run short of max (or the failing mandatory copy).
          const std::uint64_t cost =
              n < ins.x ? n + 1 : ins.x + 2 * (n - ins.x) + (n < ins.y ? 2 : 0);
          if (cost - 1 > *steps) {  // the dispatch above took one step
            *steps = 0;
            *budget_exceeded = true;
            return false;
          }
          *steps -= cost - 1;
          if (n < ins.x) {
            fail = true;
            break;
          }
          if (n > ins.x) {
            st_.stack.push_back(
                VmState::Frame{pc + 2, sp + n, st_.undo.size(), sp + ins.x});
          }
          sp += n;
          pc += 2;
          break;
        }
        case Op::Bol:
          if (sp == 0) {
            ++pc;
          } else {
            fail = true;
          }
          break;
        case Op::Eol:
          if (sp == text_.size()) {
            ++pc;
          } else {
            fail = true;
          }
          break;
        case Op::Save:
          push_undo(VmState::UndoKind::Slot, ins.x, st_.slots[ins.x]);
          st_.slots[ins.x] = sp;
          ++pc;
          break;
        case Op::Progress:
          if (st_.progress[ins.x] == sp) {
            fail = true;
          } else {
            push_undo(VmState::UndoKind::Progress, ins.x, st_.progress[ins.x]);
            st_.progress[ins.x] = sp;
            ++pc;
          }
          break;
        case Op::Backref: {
          const std::size_t b = st_.slots[2 * ins.x];
          const std::size_t e = st_.slots[2 * ins.x + 1];
          if (b == kUnset || e == kUnset) {
            ++pc;  // unmatched group: matches empty (ECMAScript semantics)
            break;
          }
          const std::size_t len = e - b;
          if (sp + len <= text_.size() &&
              std::memcmp(text_.data() + sp, text_.data() + b, len) == 0) {
            sp += len;
            ++pc;
          } else {
            fail = true;
          }
          break;
        }
        case Op::Split:
          st_.stack.push_back(VmState::Frame{ins.y, sp, st_.undo.size()});
          pc = ins.x;
          break;
        case Op::Jmp:
          pc = ins.x;
          break;
        case Op::Match:
          return true;
      }
      if (fail) {
        if (st_.stack.empty()) return false;
        VmState::Frame& top = st_.stack.back();
        const VmState::Frame f = top;
        if (f.run_floor == VmState::kNoRun) {
          st_.stack.pop_back();
        } else if (--top.sp == f.run_floor) {  // give back one byte
          st_.stack.pop_back();
        }
        while (st_.undo.size() > f.undo_size) {
          const VmState::Undo& u = st_.undo.back();
          if (u.kind == VmState::UndoKind::Slot) {
            st_.slots[u.index] = u.value;
          } else {
            st_.progress[u.index] = u.value;
          }
          st_.undo.pop_back();
        }
        pc = f.pc;
        sp = f.run_floor == VmState::kNoRun ? f.sp : f.sp - 1;
      }
    }
  }

  const std::vector<std::size_t>& slots() const { return st_.slots; }

 private:
  // How many bytes from sp the Run body `body` accepts, capped at `max`.
  std::size_t run_length(const Instr& body, std::size_t sp,
                         std::size_t max) const {
    const std::size_t limit = std::min(max, text_.size() - sp);
    const unsigned char* p =
        reinterpret_cast<const unsigned char*>(text_.data()) + sp;
    std::size_t n = 0;
    switch (body.op) {
      case Op::Char:
        while (n < limit && p[n] == body.x) ++n;
        break;
      case Op::Class: {
        const detail::ByteSet& set = prog_.classes[body.x];
        while (n < limit && set[p[n]]) ++n;
        break;
      }
      default:  // Op::Any
        while (n < limit && p[n] != '\n') ++n;
        break;
    }
    return n;
  }

  void push_undo(VmState::UndoKind kind, std::uint32_t index,
                 std::size_t value) {
    st_.undo.push_back(VmState::Undo{kind, index, value});
  }

  const Program& prog_;
  std::string_view text_;
  VmState& st_;
};

MatchResult result_from(const Machine& m, const Program& prog, bool matched,
                        bool budget_exceeded) {
  MatchResult r;
  r.budget_exceeded = budget_exceeded;
  if (!matched) return r;
  const auto& slots = m.slots();
  r.matched = true;
  r.begin = slots[0];
  r.end = slots[1];
  r.groups.resize(prog.n_groups + 1);
  for (std::size_t g = 1; g <= prog.n_groups; ++g) {
    const std::size_t b = slots[2 * g];
    const std::size_t e = slots[2 * g + 1];
    if (b != kUnset && e != kUnset) r.groups[g] = Capture{b, e};
  }
  return r;
}

SpanResult span_from(const Machine& m, bool matched, bool budget_exceeded) {
  SpanResult r;
  r.budget_exceeded = budget_exceeded;
  if (!matched) return r;
  r.matched = true;
  r.begin = m.slots()[0];
  r.end = m.slots()[1];
  return r;
}

// Search paths with no caller-provided scratch recycle one per-thread
// VmState: search() is re-entered fresh on every call (a Machine never
// survives a return), so the state cannot be observed mid-use.
VmState& local_state() {
  thread_local VmState state;
  return state;
}

// The shared search strategy: literal quick-reject, then VM attempts at
// the positions the literal prefilter allows. `m` carries the state to
// reuse; on return `matched`/`budget_exceeded` describe the outcome and
// the machine's slots hold the span of the winning attempt.
bool search_core(const Program& prog, std::string_view text, std::size_t from,
                 std::uint64_t* budget, Machine& m, bool* budget_exceeded) {
  if (prog.anchored_bol) {
    if (from > 0) return false;
    // Literal quick-reject applies here too: a match must contain the
    // literal, so its absence means no VM run (and no budget charged) —
    // keeping anchored patterns consistent with the database-level
    // prefilter's skip. With a bounded offset the literal must sit in the
    // text's prefix; don't scan the whole sample for it.
    if (prog.lit_usable) {
      std::string_view window = text;
      if (prog.lit_max_prefix != std::numeric_limits<std::size_t>::max()) {
        window = text.substr(
            0, std::min(text.size(),
                        prog.lit_max_prefix + prog.literal.size()));
      }
      if (window.find(prog.literal) == std::string_view::npos) {
        return false;
      }
    }
    return m.run(0, budget, budget_exceeded);
  }

  if (prog.lit_usable) {
    const std::string& lit = prog.literal;
    const bool bounded =
        prog.lit_max_prefix != std::numeric_limits<std::size_t>::max();
    std::size_t search_from =
        (from + prog.lit_min_prefix <= text.size()) ? from + prog.lit_min_prefix
                                                    : std::string_view::npos;
    if (bounded) {
      std::size_t last_attempt_end = from;  // first untried start position
      while (search_from != std::string_view::npos) {
        const std::size_t hit = text.find(lit, search_from);
        if (hit == std::string_view::npos) return false;
        const std::size_t lo =
            std::max(last_attempt_end,
                     (hit >= prog.lit_max_prefix) ? hit - prog.lit_max_prefix
                                                  : 0);
        const std::size_t hi = hit - prog.lit_min_prefix;  // hit >= min here
        for (std::size_t start = lo; start <= hi && start <= text.size();
             ++start) {
          if (m.run(start, budget, budget_exceeded)) return true;
          if (*budget_exceeded) return false;
        }
        last_attempt_end = (hi + 1 > last_attempt_end) ? hi + 1 : last_attempt_end;
        search_from = hit + 1;
      }
      return false;
    }
    // Quick-reject only: the literal must occur somewhere at/after from.
    if (text.find(lit, from) == std::string_view::npos) return false;
  }

  for (std::size_t start = from; start <= text.size(); ++start) {
    if (m.run(start, budget, budget_exceeded)) return true;
    if (*budget_exceeded) return false;
  }
  return false;
}

// ------------------------- compiled confirmation -------------------------
//
// The cheap-confirmation executor for kLiteral / kLiteralDominated
// patterns (see ConfirmProgram in program.h for the equivalence
// argument). Nothing here charges the step budget: the walk is bounded at
// classification time, so it cannot blow up.

// Greedy bounded suffix walk, mirroring the VM's backtracking priority:
// each class step tries its longest feasible count first and the LAST
// step's count varies fastest (the VM backtracks the most recent choice
// point first). On success *end is the position after the final step.
bool confirm_suffix(const Program& prog, const std::vector<detail::ConfirmStep>& steps,
                    std::size_t idx, std::string_view text, std::size_t pos,
                    std::size_t* end) {
  if (idx == steps.size()) {
    *end = pos;
    return true;
  }
  const detail::ConfirmStep& step = steps[idx];
  if (step.kind == detail::ConfirmStep::Kind::kLiteral) {
    if (pos + step.lit.size() > text.size() ||
        std::memcmp(text.data() + pos, step.lit.data(), step.lit.size()) !=
            0) {
      return false;
    }
    return confirm_suffix(prog, steps, idx + 1, text, pos + step.lit.size(),
                          end);
  }
  const detail::ByteSet& set = prog.classes[step.cls];
  std::size_t feasible = 0;  // longest run of set bytes at pos, capped
  while (feasible < step.max && pos + feasible < text.size() &&
         set[static_cast<unsigned char>(text[pos + feasible])]) {
    ++feasible;
  }
  for (std::size_t count = feasible; count + 1 > step.min; --count) {
    if (confirm_suffix(prog, steps, idx + 1, text, pos + count, end)) {
      return true;
    }
  }
  return false;
}

// Fixed-width prefix check: every step must consume exactly its width.
bool confirm_prefix(const Program& prog,
                    const std::vector<detail::ConfirmStep>& steps,
                    std::string_view text, std::size_t pos) {
  for (const detail::ConfirmStep& step : steps) {
    if (step.kind == detail::ConfirmStep::Kind::kLiteral) {
      if (std::memcmp(text.data() + pos, step.lit.data(), step.lit.size()) !=
          0) {
        return false;
      }
      pos += step.lit.size();
      continue;
    }
    const detail::ByteSet& set = prog.classes[step.cls];
    for (std::uint32_t i = 0; i < step.min; ++i) {  // min == max (fixed)
      if (!set[static_cast<unsigned char>(text[pos++])]) return false;
    }
  }
  return true;
}

SpanResult confirm_dominated(const Program& prog, std::string_view text,
                             std::size_t from, std::size_t anchor_hint) {
  const detail::ConfirmProgram& cp = prog.confirm;
  SpanResult r;
  // A match starting at s >= from has the anchor at exactly
  // s + prefix_width, so ascending anchor occurrences enumerate candidate
  // starts in leftmost order; the first fully-verified one wins.
  std::size_t search_from = from + cp.prefix_width;
  // A hint is the anchor's leftmost occurrence (prefilter tier 2 verified
  // the bytes), so nothing can match in [search_from, hint): jump straight
  // there. The bytes are re-verified before trusting the jump.
  if (anchor_hint != std::string_view::npos && anchor_hint >= search_from &&
      anchor_hint + cp.anchor.size() <= text.size() &&
      std::memcmp(text.data() + anchor_hint, cp.anchor.data(),
                  cp.anchor.size()) == 0) {
    search_from = anchor_hint;
  }
  while (search_from <= text.size()) {
    const std::size_t occ = text.find(cp.anchor, search_from);
    if (occ == std::string_view::npos) return r;
    const std::size_t start = occ - cp.prefix_width;
    std::size_t end = 0;
    if (confirm_prefix(prog, cp.prefix, text, start) &&
        confirm_suffix(prog, cp.suffix, 0, text, occ + cp.anchor.size(),
                       &end)) {
      r.matched = true;
      r.begin = start;
      r.end = end;
      return r;
    }
    search_from = occ + 1;
  }
  return r;
}

// The VM gate: a match starting at or after `from` holds every factor, in
// order and without overlap. Greedy leftmost occurrences are never later
// than the match's own, so a broken chain proves there is no match.
bool factors_in_order(const std::vector<std::string>& factors,
                      std::string_view text, std::size_t from) {
  std::size_t pos = from;
  for (const std::string& factor : factors) {
    const std::size_t hit = text.find(factor, pos);
    if (hit == std::string_view::npos) return false;
    pos = hit + factor.size();
  }
  return true;
}

}  // namespace

SpanResult Pattern::confirm_span(std::string_view text, VmScratch& scratch,
                                 std::size_t from, std::uint64_t budget,
                                 std::size_t anchor_hint) const {
  const Program& prog = *program_;
  // The hint promises the leftmost occurrence of required_literal(); it is
  // only usable when that string IS the confirm anchor.
  if (!prog.confirm_hintable) anchor_hint = knpos;
  switch (prog.tier) {
    case ConfirmTier::kLiteral: {
      SpanResult r;
      if (from > text.size()) return r;
      if (anchor_hint != knpos && anchor_hint >= from &&
          anchor_hint + prog.confirm.anchor.size() <= text.size() &&
          std::memcmp(text.data() + anchor_hint, prog.confirm.anchor.data(),
                      prog.confirm.anchor.size()) == 0) {
        r.matched = true;
        r.begin = anchor_hint;
        r.end = anchor_hint + prog.confirm.anchor.size();
        return r;
      }
      const std::size_t hit = text.find(prog.confirm.anchor, from);
      if (hit != std::string_view::npos) {
        r.matched = true;
        r.begin = hit;
        r.end = hit + prog.confirm.anchor.size();
      }
      return r;
    }
    case ConfirmTier::kLiteralDominated:
      if (from > text.size()) return SpanResult{};
      return confirm_dominated(prog, text, from, anchor_hint);
    case ConfirmTier::kRegex:
      break;
  }
  if (prog.factors && !factors_in_order(*prog.factors, text, from)) {
    SpanResult r;
    r.gated = true;
    return r;
  }
  return search_span(text, scratch, from, budget);
}

MatchResult Pattern::match_at(std::string_view text, std::size_t at,
                              std::uint64_t budget) const {
  if (budget == 0) budget = kDefaultBudget;
  Machine m(*program_, text, local_state());
  bool budget_exceeded = false;
  const bool ok = m.run(at, &budget, &budget_exceeded);
  return result_from(m, *program_, ok, budget_exceeded);
}

MatchResult Pattern::search(std::string_view text, std::size_t from,
                            std::uint64_t budget) const {
  if (budget == 0) budget = kDefaultBudget;
  Machine m(*program_, text, local_state());
  bool budget_exceeded = false;
  const bool ok =
      search_core(*program_, text, from, &budget, m, &budget_exceeded);
  return result_from(m, *program_, ok, budget_exceeded);
}

SpanResult Pattern::search_span(std::string_view text, VmScratch& scratch,
                                std::size_t from, std::uint64_t budget) const {
  if (budget == 0) budget = kDefaultBudget;
  Machine m(*program_, text, *scratch.state_);
  bool budget_exceeded = false;
  const bool ok =
      search_core(*program_, text, from, &budget, m, &budget_exceeded);
  return span_from(m, ok, budget_exceeded);
}

}  // namespace kizzle::match
