// VM program analysis: the compiled-Instr-graph walk behind the
// backtracking-bomb, step-bound, unreachable-code, tier-downgrade and
// dead-signature findings (analyze.h, family 1).
//
// Everything here leans on one structural fact of the compiler
// (pattern.cpp): bounded repetitions compile to forward code only — a Run
// op for a one-byte body, nested optional Splits otherwise — and only
// *unbounded* repetitions (`*`, `+`, `{m,}`) emit a backward Jmp. Loops in
// the instruction graph therefore correspond exactly to unbounded
// repetitions, and nesting of loops to nesting of quantifiers.
//
// The walks see a Run as the unrolled form it stands for: its body (the
// next instruction) is mandatory when min > 0 and skippable when min == 0,
// and the step bound counts it at its unrolled width.

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "analyze/analyze.h"
#include "match/program.h"

namespace kizzle::analyze::detail {

namespace {

using match::detail::ByteSet;
using match::detail::Instr;
using match::detail::Op;
using match::detail::Program;

// Control-flow successors of `pc` (at most two). Match has none.
int successors(const Program& prog, std::uint32_t pc, std::uint32_t out[2]) {
  const Instr& in = prog.code[pc];
  switch (in.op) {
    case Op::Match:
      return 0;
    case Op::Jmp:
      out[0] = in.x;
      return 1;
    case Op::Split:
      out[0] = in.x;
      out[1] = in.y;
      return 2;
    case Op::Run:  // into the body at pc + 1, or past it when min == 0
      out[0] = pc + 1;
      out[1] = pc + 2;
      return in.x == 0 ? 2 : 1;
    default:
      out[0] = pc + 1;
      return 1;
  }
}

// The bytes a consuming instruction can accept; empty set for
// non-consuming ops.
ByteSet consume_set(const Program& prog, const Instr& in) {
  ByteSet s;
  switch (in.op) {
    case Op::Char:
      s.set(in.x & 0xFF);
      break;
    case Op::Class:
      s = prog.classes[in.x];
      break;
    case Op::Any:
      s.set();
      s.reset(static_cast<unsigned char>('\n'));
      break;
    default:
      break;
  }
  return s;
}

// The byte values normalization (text/normalize.h normalize_raw) strips
// from every scanned text: whitespace and quotes. A signature whose every
// accepting path must consume one of these can never fire.
ByteSet stripped_bytes() {
  ByteSet s;
  for (const char c : {' ', '\t', '\r', '\n', '\f', '\v', '"', '\''}) {
    s.set(static_cast<unsigned char>(c));
  }
  return s;
}

// Reachability over the instruction graph from `start`. `passable`, when
// non-null, vetoes traversal *through* an instruction (used for the
// normalized-bytes walk: a consuming instruction that can only accept
// stripped bytes blocks its path).
std::vector<std::uint8_t> reach_forward(
    const Program& prog, std::uint32_t start,
    const std::vector<std::uint8_t>* passable = nullptr) {
  std::vector<std::uint8_t> seen(prog.code.size(), 0);
  std::vector<std::uint32_t> stack{start};
  seen[start] = 1;
  std::uint32_t out[2];
  while (!stack.empty()) {
    const std::uint32_t pc = stack.back();
    stack.pop_back();
    if (passable != nullptr && !(*passable)[pc]) continue;
    const int n = successors(prog, pc, out);
    for (int i = 0; i < n; ++i) {
      if (!seen[out[i]]) {
        seen[out[i]] = 1;
        stack.push_back(out[i]);
      }
    }
  }
  return seen;
}

struct Loop {
  std::uint32_t head = 0;  // back-edge target (loop entry)
  std::uint32_t tail = 0;  // back-edge source (the jump back)
  ByteSet consumes;        // bytes the body can consume
  int depth = 1;           // nesting depth (outermost = 1)
};

// Renders a byte set compactly for diagnostics: up to a few sample bytes.
std::string byte_set_preview(const ByteSet& s) {
  std::string out = "[";
  int shown = 0;
  for (int c = 0; c < 256 && shown < 4; ++c) {
    if (!s.test(static_cast<std::size_t>(c))) continue;
    if (c >= 0x21 && c <= 0x7E) {
      out += static_cast<char>(c);
    } else {
      const char hex[] = "0123456789abcdef";
      out += "\\x";
      out += hex[c >> 4];
      out += hex[c & 15];
    }
    ++shown;
  }
  if (static_cast<int>(s.count()) > shown) out += "…";
  out += "]";
  return out;
}

}  // namespace

ProgramFacts program_facts(const Program& prog, std::size_t reference_len) {
  ProgramFacts facts;
  const std::size_t n = prog.code.size();
  if (n == 0) return facts;

  // ---- Reachability from the entry point. ----
  const std::vector<std::uint8_t> reachable = reach_forward(prog, 0);
  for (std::size_t pc = 0; pc < n; ++pc) {
    if (!reachable[pc]) ++facts.unreachable;
  }

  // ---- Back edges (loops) via iterative colored DFS. ----
  // Colors: 0 unvisited, 1 on the current DFS path, 2 finished. An edge
  // into a color-1 node is a back edge; its target is the loop head.
  std::vector<std::uint8_t> color(n, 0);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> back_edges;  // u -> v
  {
    // Explicit stack of (pc, next-successor-index) frames.
    std::vector<std::pair<std::uint32_t, int>> stack;
    stack.emplace_back(0, 0);
    color[0] = 1;
    std::uint32_t out[2];
    while (!stack.empty()) {
      auto& [pc, next] = stack.back();
      const int n_succ = successors(prog, pc, out);
      if (next >= n_succ) {
        color[pc] = 2;
        stack.pop_back();
        continue;
      }
      const std::uint32_t succ = out[next++];
      if (color[succ] == 0) {
        color[succ] = 1;
        stack.emplace_back(succ, 0);
      } else if (color[succ] == 1) {
        back_edges.emplace_back(pc, succ);
      }
    }
  }
  facts.loops = back_edges.size();

  // ---- Loop intervals, consume sets, nesting. ----
  // compile_rep emits every unbounded repetition as
  //   head: Split(body, exit); …body…; tail: Jmp head
  // so a back edge (tail → head) closes the contiguous pc interval
  // [head, tail], and quantifier nesting is interval containment. (A
  // reachability-based "natural loop" body would fuse all the loops of
  // one strongly-connected region — `(a+)+` — into a single set and
  // lose the nesting; intervals keep it, and containment is a strict
  // partial order, so depth is just the ancestor count.)
  std::vector<Loop> loops;
  for (const auto& [u, v] : back_edges) {
    Loop loop;
    loop.head = std::min(u, v);
    loop.tail = std::max(u, v);
    for (std::uint32_t pc = loop.head; pc <= loop.tail; ++pc) {
      loop.consumes |= consume_set(prog, prog.code[pc]);
    }
    loops.push_back(loop);
  }
  const std::size_t L = loops.size();
  // contains(b, a): loop b's interval strictly contains loop a's.
  const auto contains = [&loops](std::size_t b, std::size_t a) {
    return loops[b].head <= loops[a].head && loops[a].tail <= loops[b].tail &&
           (loops[b].head != loops[a].head || loops[b].tail != loops[a].tail);
  };
  for (std::size_t a = 0; a < L; ++a) {
    for (std::size_t b = 0; b < L; ++b) {
      if (a != b && contains(b, a)) ++loops[a].depth;
    }
    facts.max_loop_depth = std::max(facts.max_loop_depth, loops[a].depth);
  }

  // ---- Catastrophic-backtracking structure. ----
  // A nested pair (inner A inside outer B) is catastrophic when the
  // outer loop can carry the scan from A's exit back around to A's
  // entry while consuming only bytes A itself accepts: one run of such
  // bytes then splits between the two quantifiers in exponentially many
  // ways. Concretely, with every consuming instruction outside A's byte
  // set vetoed, B's back-edge source must stay reachable from A's head
  // AND A's head from B's back-edge target. `(a+)+`, `(a+|b+)+` and
  // `((a+))*` pass both legs; `(a+b+)+` — merely quadratic — is blocked
  // at the mandatory `b` and is not flagged.
  for (std::size_t a = 0; a < L && !facts.ambiguous_nesting; ++a) {
    if (loops[a].consumes.none()) continue;
    std::vector<std::uint8_t> passable(n, 1);
    for (std::size_t pc = 0; pc < n; ++pc) {
      const ByteSet s = consume_set(prog, prog.code[pc]);
      if (s.any() && (s & loops[a].consumes).none()) passable[pc] = 0;
    }
    const std::vector<std::uint8_t> from_inner =
        reach_forward(prog, loops[a].head, &passable);
    for (std::size_t b = 0; b < L; ++b) {
      if (b == a || !contains(b, a)) continue;
      if (!from_inner[loops[b].tail]) continue;
      const std::vector<std::uint8_t> around =
          reach_forward(prog, loops[b].head, &passable);
      if (!around[loops[a].head]) continue;
      facts.ambiguous_nesting = true;
      facts.ambiguous_detail =
          "repetition at pc " + std::to_string(loops[a].head) +
          " nested in repetition at pc " + std::to_string(loops[b].head) +
          ", both consuming " + byte_set_preview(loops[a].consumes);
      break;
    }
  }

  // ---- Worst-case step bound for one anchored attempt. ----
  // Loop-free programs walk a DAG: the backtracker visits each
  // alternation path at most once, bounded by |code| per attempt. Every
  // unbounded-loop nesting level multiplies the attempt by up to
  // reference_len iteration counts; ambiguous nesting is exponential in
  // the text length outright.
  const double len = static_cast<double>(std::max<std::size_t>(reference_len, 2));
  if (facts.ambiguous_nesting) {
    facts.log2_step_bound = std::min(len, 64.0);
  } else {
    double unrolled = static_cast<double>(n);
    for (const Instr& in : prog.code) {
      if (in.op != Op::Run) continue;
      // min copies + a Split and copy per optional one, in place of the
      // Run and its one body instruction.
      unrolled += static_cast<double>(in.x) +
                  2.0 * static_cast<double>(in.y - in.x) - 2.0;
    }
    facts.log2_step_bound =
        std::log2(unrolled) +
        static_cast<double>(facts.max_loop_depth) * std::log2(len);
  }

  // ---- Cheaper-tier shape. ----
  // An alternation of literals compiles to Char/Split/Jmp/Save/Match
  // only, with no loop: it could confirm by per-branch find/memcmp
  // instead of the VM (ROADMAP: widen kLiteralDominated eligibility).
  if (prog.tier == match::ConfirmTier::kRegex && facts.loops == 0) {
    bool only_literal_ops = true;
    bool has_split = false;
    for (const Instr& in : prog.code) {
      switch (in.op) {
        case Op::Split:
          has_split = true;
          break;
        case Op::Run:  // its body is checked as the next instruction
          has_split = has_split || in.x != in.y;
          break;
        case Op::Char:
        case Op::Jmp:
        case Op::Save:
        case Op::Match:
          break;
        default:
          only_literal_ops = false;
          break;
      }
      if (!only_literal_ops) break;
    }
    facts.literal_alternation = only_literal_ops && has_split;
  }

  // ---- Dead on normalized text. ----
  // Re-run reachability with consuming instructions vetoed when every
  // byte they accept is stripped by normalization: if no accept remains
  // reachable, the signature cannot fire on any real scan input.
  {
    const ByteSet stripped = stripped_bytes();
    std::vector<std::uint8_t> passable(n, 1);
    for (std::size_t pc = 0; pc < n; ++pc) {
      const ByteSet s = consume_set(prog, prog.code[pc]);
      if (s.any() && (s & ~stripped).none()) passable[pc] = 0;
    }
    const std::vector<std::uint8_t> alive = reach_forward(prog, 0, &passable);
    bool accepts = false;
    for (std::size_t pc = 0; pc < n && !accepts; ++pc) {
      if (alive[pc] && prog.code[pc].op == Op::Match && passable[pc]) {
        accepts = true;
      }
    }
    facts.dead_normalized = !accepts;
  }

  return facts;
}

}  // namespace kizzle::analyze::detail
