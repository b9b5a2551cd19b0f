// Internal compiled representation of a Pattern. Not installed as public
// API; shared between pattern.cpp (parser/compiler) and vm.cpp (executor).
#pragma once

#include <array>
#include <bitset>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "match/pattern.h"  // ConfirmTier (public part of the tier split)

namespace kizzle::match::detail {

enum class Op : std::uint8_t {
  Char,      // arg: byte value
  Class,     // arg: index into class table
  Any,       // any byte except '\n'
  Run,       // bounded greedy repeat of the single-byte body at pc+1 (a
             // Char, Class or Any); x: min count, y: max count. Consumes
             // the longest run up to y, continues at pc+2, and on
             // backtrack gives back one byte at a time down to x — the
             // order, spans and step charge of the unrolled
             // (x (x (x)?)?)? form, in one dispatch and one stack frame.
  Split,     // try x first, then y (backtrack point)
  Jmp,       // jump to x
  Save,      // arg: capture slot index (2*group for begin, +1 for end)
  Backref,   // arg: group index; matches the text captured by that group
  Bol,       // assert position == 0
  Eol,       // assert position == text.size()
  Progress,  // arg: progress slot; fail if sp unchanged since last visit
  Match,     // accept
};

struct Instr {
  Op op;
  std::uint32_t x = 0;  // Split/Jmp target, Char byte, Class idx, Save slot,
                        // Backref group, Progress slot, Run min
  std::uint32_t y = 0;  // Split second target, Run max
};

using ByteSet = std::bitset<256>;

// One step of a compiled confirm program (the cheap-confirmation tier for
// literal-dominated patterns): either an exact byte run or a repeated
// byte-class. Prefix steps are fixed width (min == max); suffix steps may
// be bounded ranges (max is never unbounded — classification rejects
// those).
struct ConfirmStep {
  enum class Kind : std::uint8_t { kLiteral, kClass };
  Kind kind = Kind::kLiteral;
  std::string lit;        // kLiteral: the exact bytes
  std::uint32_t cls = 0;  // kClass: index into Program::classes
  std::uint32_t min = 0;  // kClass: repeat bounds
  std::uint32_t max = 0;
};

// The compiled cheap confirmation of a kLiteral / kLiteralDominated
// pattern: every match is `prefix` (fixed width) + `anchor` (an exact
// literal) + `suffix` (bounded greedy steps). Matching anchors on
// text.find(anchor): a match starting at s has the anchor at exactly
// s + prefix_width, so ascending anchor occurrences enumerate candidate
// starts in leftmost order and the greedy suffix walk reproduces the VM's
// backtracking priority — same span, no VM steps, no way to blow up.
struct ConfirmProgram {
  std::string anchor;
  std::vector<ConfirmStep> prefix;
  std::vector<ConfirmStep> suffix;
  std::size_t prefix_width = 0;  // total bytes consumed by `prefix`
};

struct Program {
  std::vector<Instr> code;
  std::vector<ByteSet> classes;
  std::size_t n_groups = 0;     // capturing groups (excluding group 0)
  std::size_t n_progress = 0;   // progress slots
  std::vector<std::string> group_names;  // size n_groups + 1; [0] empty

  // Literal pre-filter: every match contains `literal` starting between
  // min_prefix and max_prefix bytes after the match start. usable == false
  // when no such literal exists (or it is too short to pay off).
  std::string literal;
  std::size_t lit_min_prefix = 0;
  std::size_t lit_max_prefix = 0;
  bool lit_usable = false;
  bool anchored_bol = false;  // pattern starts with ^

  // Confirmation tier + compiled confirm program (valid when tier !=
  // kRegex), classified by pattern.cpp at compile time.
  ConfirmTier tier = ConfirmTier::kRegex;
  ConfirmProgram confirm;
  // True when confirm.anchor is exactly the prefilter-registered literal
  // (Program::literal): a prefilter-supplied leftmost-occurrence position
  // of that literal may then seed the anchor search in confirm_span().
  bool confirm_hintable = false;

  // kRegex programs only (null otherwise, so the compiled tiers pay one
  // pointer): the ordered top-level literal runs of at least 3 bytes that
  // every match contains, in this order and without overlap. confirm_span()
  // rejects a candidate whose text lacks the chain before the VM starts.
  std::unique_ptr<const std::vector<std::string>> factors;
};

}  // namespace kizzle::match::detail
