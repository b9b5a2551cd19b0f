#include "match/pattern.h"

#include <algorithm>
#include <limits>
#include <memory>

#include "match/program.h"

namespace kizzle::match {

namespace detail {

namespace {

constexpr std::uint32_t kInfinity = std::numeric_limits<std::uint32_t>::max();
// Cap on the program size, counted at the unrolled width of every Run op
// (see Compiler::emit_run), so the Run op does not change which sources
// compile.
constexpr std::size_t kMaxProgramSize = 1u << 20;
// Shortest literal run worth a memmem: the floor for the prefilter
// literal and for the VM gate's factors.
constexpr std::size_t kMinLiteralRun = 3;

// ---------------------------- AST ----------------------------

struct Node;
using NodePtr = std::unique_ptr<Node>;

struct Node {
  enum class Kind { Seq, Alt, Lit, Cls, Any, Rep, Grp, Bref, Bol, Eol };
  Kind kind;

  // Lit
  unsigned char ch = 0;
  // Cls
  ByteSet set;
  // Rep
  std::uint32_t min = 0;
  std::uint32_t max = 0;  // kInfinity for unbounded
  // Grp: group == 0 means non-capturing
  std::uint32_t group = 0;
  // Bref
  std::uint32_t ref = 0;
  // Seq/Alt children; Rep/Grp single child in children[0]
  std::vector<NodePtr> children;
};

NodePtr make(Node::Kind kind) {
  auto n = std::make_unique<Node>();
  n->kind = kind;
  return n;
}

bool nullable(const Node& n) {
  switch (n.kind) {
    case Node::Kind::Lit:
    case Node::Kind::Cls:
    case Node::Kind::Any:
      return false;
    case Node::Kind::Bol:
    case Node::Kind::Eol:
    case Node::Kind::Bref:  // an unmatched/empty group matches ""
      return true;
    case Node::Kind::Rep:
      return n.min == 0 || nullable(*n.children[0]);
    case Node::Kind::Grp:
      return nullable(*n.children[0]);
    case Node::Kind::Seq:
      return std::all_of(n.children.begin(), n.children.end(),
                         [](const NodePtr& c) { return nullable(*c); });
    case Node::Kind::Alt:
      return std::any_of(n.children.begin(), n.children.end(),
                         [](const NodePtr& c) { return nullable(*c); });
  }
  return true;
}

// ---------------------------- Parser ----------------------------

class Parser {
 public:
  Parser(std::string_view src, Program& prog) : src_(src), prog_(prog) {}

  NodePtr run() {
    prog_.group_names.assign(1, "");  // group 0 = whole match
    NodePtr root = parse_alt();
    if (pos_ != src_.size()) fail("unexpected ')'");
    prog_.n_groups = prog_.group_names.size() - 1;
    return root;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw PatternError(what, pos_);
  }

  bool eof() const { return pos_ >= src_.size(); }
  char peek() const { return src_[pos_]; }
  char take() { return src_[pos_++]; }
  bool accept(char c) {
    if (!eof() && peek() == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  NodePtr parse_alt() {
    NodePtr first = parse_seq();
    if (eof() || peek() != '|') return first;
    NodePtr alt = make(Node::Kind::Alt);
    alt->children.push_back(std::move(first));
    while (accept('|')) {
      alt->children.push_back(parse_seq());
    }
    return alt;
  }

  NodePtr parse_seq() {
    NodePtr seq = make(Node::Kind::Seq);
    while (!eof() && peek() != '|' && peek() != ')') {
      seq->children.push_back(parse_repeat());
    }
    return seq;
  }

  NodePtr parse_repeat() {
    NodePtr atom = parse_atom();
    for (;;) {
      if (eof()) return atom;
      std::uint32_t min;
      std::uint32_t max;
      const char c = peek();
      if (c == '*') {
        ++pos_;
        min = 0;
        max = kInfinity;
      } else if (c == '+') {
        ++pos_;
        min = 1;
        max = kInfinity;
      } else if (c == '?') {
        ++pos_;
        min = 0;
        max = 1;
      } else if (c == '{') {
        const std::size_t save = pos_;
        ++pos_;
        if (!parse_bounds(&min, &max)) {
          pos_ = save;  // not a quantifier; '{' is a literal
          return atom;
        }
      } else {
        return atom;
      }
      if (atom->kind == Node::Kind::Bol || atom->kind == Node::Kind::Eol) {
        fail("quantifier on anchor");
      }
      NodePtr rep = make(Node::Kind::Rep);
      rep->min = min;
      rep->max = max;
      rep->children.push_back(std::move(atom));
      atom = std::move(rep);
    }
  }

  // Parses "m}" or "m,}" or "m,n}" after the '{'. Returns false (without
  // consuming) when the brace content is not a quantifier.
  bool parse_bounds(std::uint32_t* min, std::uint32_t* max) {
    auto digits = [&]() -> std::optional<std::uint32_t> {
      if (eof() || peek() < '0' || peek() > '9') return std::nullopt;
      std::uint64_t v = 0;
      while (!eof() && peek() >= '0' && peek() <= '9') {
        v = v * 10 + static_cast<std::uint64_t>(take() - '0');
        if (v > 1'000'000) fail("quantifier bound too large");
      }
      return static_cast<std::uint32_t>(v);
    };
    auto m = digits();
    if (!m) return false;
    *min = *m;
    if (accept('}')) {
      *max = *min;
      return true;
    }
    if (!accept(',')) return false;
    if (accept('}')) {
      *max = kInfinity;
      return true;
    }
    auto n = digits();
    if (!n || !accept('}')) return false;
    *max = *n;
    if (*max < *min) fail("quantifier bounds out of order");
    return true;
  }

  NodePtr parse_atom() {
    if (eof()) fail("pattern ends unexpectedly");
    const char c = take();
    switch (c) {
      case '(':
        return parse_group();
      case '[':
        return parse_class();
      case '.':
        return make(Node::Kind::Any);
      case '^':
        return make(Node::Kind::Bol);
      case '$':
        return make(Node::Kind::Eol);
      case '\\':
        return parse_escape();
      case '*':
      case '+':
      case '?':
        fail("quantifier with nothing to repeat");
      default: {
        NodePtr lit = make(Node::Kind::Lit);
        lit->ch = static_cast<unsigned char>(c);
        return lit;
      }
    }
  }

  NodePtr parse_group() {
    std::uint32_t group = 0;
    if (accept('?')) {
      if (accept(':')) {
        // non-capturing
      } else if (accept('<')) {
        std::string name;
        while (!eof() && peek() != '>') name.push_back(take());
        if (!accept('>')) fail("unterminated group name");
        if (name.empty()) fail("empty group name");
        for (const auto& existing : prog_.group_names) {
          if (existing == name) fail("duplicate group name");
        }
        group = static_cast<std::uint32_t>(prog_.group_names.size());
        prog_.group_names.push_back(name);
      } else {
        fail("unsupported group modifier");
      }
    } else {
      group = static_cast<std::uint32_t>(prog_.group_names.size());
      prog_.group_names.emplace_back();  // unnamed capture
    }
    NodePtr body = parse_alt();
    if (!accept(')')) fail("unterminated group");
    NodePtr grp = make(Node::Kind::Grp);
    grp->group = group;
    grp->children.push_back(std::move(body));
    return grp;
  }

  NodePtr parse_class() {
    NodePtr cls = make(Node::Kind::Cls);
    bool negated = accept('^');
    bool first = true;
    while (!eof() && (peek() != ']' || first)) {
      first = false;
      unsigned char lo = class_char();
      if (!eof() && peek() == '-' && pos_ + 1 < src_.size() &&
          src_[pos_ + 1] != ']') {
        ++pos_;  // consume '-'
        unsigned char hi = class_char();
        if (hi < lo) fail("character range out of order");
        for (unsigned v = lo; v <= hi; ++v) cls->set.set(v);
      } else {
        cls->set.set(lo);
      }
    }
    if (!accept(']')) fail("unterminated character class");
    if (negated) {
      cls->set.flip();
      cls->set.reset('\n');  // '.'-like: negated classes do not cross lines
    }
    return cls;
  }

  unsigned char class_char() {
    char c = take();
    if (c != '\\') return static_cast<unsigned char>(c);
    if (eof()) fail("trailing backslash in class");
    char e = take();
    switch (e) {
      case 'n': return '\n';
      case 't': return '\t';
      case 'r': return '\r';
      case 'f': return '\f';
      case 'v': return '\v';
      case '0': return '\0';
      default: return static_cast<unsigned char>(e);
    }
  }

  NodePtr parse_escape() {
    if (eof()) fail("trailing backslash");
    const char c = take();
    auto lit = [&](unsigned char ch) {
      NodePtr n = make(Node::Kind::Lit);
      n->ch = ch;
      return n;
    };
    auto cls = [&](std::string_view chars, bool digits_az) {
      NodePtr n = make(Node::Kind::Cls);
      if (digits_az) {
        // handled by caller filling set below
      }
      for (char x : chars) n->set.set(static_cast<unsigned char>(x));
      return n;
    };
    switch (c) {
      case 'n': return lit('\n');
      case 't': return lit('\t');
      case 'r': return lit('\r');
      case 'f': return lit('\f');
      case 'v': return lit('\v');
      case '0': return lit('\0');
      case 'd': {
        NodePtr n = make(Node::Kind::Cls);
        for (unsigned v = '0'; v <= '9'; ++v) n->set.set(v);
        return n;
      }
      case 'D': {
        NodePtr n = make(Node::Kind::Cls);
        for (unsigned v = '0'; v <= '9'; ++v) n->set.set(v);
        n->set.flip();
        n->set.reset('\n');
        return n;
      }
      case 'w': {
        NodePtr n = make(Node::Kind::Cls);
        for (unsigned v = '0'; v <= '9'; ++v) n->set.set(v);
        for (unsigned v = 'a'; v <= 'z'; ++v) n->set.set(v);
        for (unsigned v = 'A'; v <= 'Z'; ++v) n->set.set(v);
        n->set.set('_');
        return n;
      }
      case 'W': {
        NodePtr n = make(Node::Kind::Cls);
        for (unsigned v = '0'; v <= '9'; ++v) n->set.set(v);
        for (unsigned v = 'a'; v <= 'z'; ++v) n->set.set(v);
        for (unsigned v = 'A'; v <= 'Z'; ++v) n->set.set(v);
        n->set.set('_');
        n->set.flip();
        n->set.reset('\n');
        return n;
      }
      case 's': return cls(" \t\r\n\f\v", false);
      case 'S': {
        NodePtr n = cls(" \t\r\n\f\v", false);
        n->set.flip();
        return n;
      }
      case 'k': {
        if (!accept('<')) fail("expected '<' after \\k");
        std::string name;
        while (!eof() && peek() != '>') name.push_back(take());
        if (!accept('>')) fail("unterminated \\k<name>");
        for (std::size_t g = 1; g < prog_.group_names.size(); ++g) {
          if (prog_.group_names[g] == name) {
            NodePtr n = make(Node::Kind::Bref);
            n->ref = static_cast<std::uint32_t>(g);
            return n;
          }
        }
        fail("backreference to unknown group name '" + name + "'");
      }
      case '1': case '2': case '3': case '4': case '5':
      case '6': case '7': case '8': case '9': {
        const auto g = static_cast<std::uint32_t>(c - '0');
        if (g >= prog_.group_names.size()) {
          fail("backreference to undefined group");
        }
        NodePtr n = make(Node::Kind::Bref);
        n->ref = g;
        return n;
      }
      default:
        if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')) {
          fail(std::string("unknown escape \\") + c);
        }
        return lit(static_cast<unsigned char>(c));
    }
  }

  std::string_view src_;
  Program& prog_;
  std::size_t pos_ = 0;
};

// ---------------------------- Compiler ----------------------------

class Compiler {
 public:
  explicit Compiler(Program& prog) : prog_(prog) {}

  void run(const Node& root) {
    emit_save(0);
    compile(root);
    emit_save(1);
    emit(Instr{Op::Match, 0, 0});
  }

 private:
  std::uint32_t here() const {
    return static_cast<std::uint32_t>(prog_.code.size());
  }

  std::uint32_t emit(Instr i) {
    count_unrolled(1);
    prog_.code.push_back(i);
    return static_cast<std::uint32_t>(prog_.code.size() - 1);
  }

  void count_unrolled(std::uint64_t n) {
    unrolled_ += n;
    if (unrolled_ > kMaxProgramSize) {
      throw PatternError("pattern too large to compile", 0);
    }
  }

  void emit_save(std::uint32_t slot) { emit(Instr{Op::Save, slot, 0}); }

  std::uint32_t class_index(const ByteSet& set) {
    for (std::size_t i = 0; i < prog_.classes.size(); ++i) {
      if (prog_.classes[i] == set) return static_cast<std::uint32_t>(i);
    }
    prog_.classes.push_back(set);
    return static_cast<std::uint32_t>(prog_.classes.size() - 1);
  }

  void compile(const Node& n) {
    switch (n.kind) {
      case Node::Kind::Lit:
        emit(Instr{Op::Char, n.ch, 0});
        return;
      case Node::Kind::Cls:
        emit(Instr{Op::Class, class_index(n.set), 0});
        return;
      case Node::Kind::Any:
        emit(Instr{Op::Any, 0, 0});
        return;
      case Node::Kind::Bol:
        emit(Instr{Op::Bol, 0, 0});
        return;
      case Node::Kind::Eol:
        emit(Instr{Op::Eol, 0, 0});
        return;
      case Node::Kind::Bref:
        emit(Instr{Op::Backref, n.ref, 0});
        return;
      case Node::Kind::Grp:
        if (n.group == 0) {
          compile(*n.children[0]);
        } else {
          emit_save(2 * n.group);
          compile(*n.children[0]);
          emit_save(2 * n.group + 1);
        }
        return;
      case Node::Kind::Seq:
        for (const NodePtr& c : n.children) compile(*c);
        return;
      case Node::Kind::Alt:
        compile_alt(n);
        return;
      case Node::Kind::Rep:
        compile_rep(n);
        return;
    }
  }

  void compile_alt(const Node& n) {
    // split a, next; a; jmp end; next: split b, next2; ...
    std::vector<std::uint32_t> jumps;
    for (std::size_t i = 0; i < n.children.size(); ++i) {
      if (i + 1 == n.children.size()) {
        compile(*n.children[i]);
      } else {
        const std::uint32_t split = emit(Instr{Op::Split, 0, 0});
        prog_.code[split].x = here();
        compile(*n.children[i]);
        jumps.push_back(emit(Instr{Op::Jmp, 0, 0}));
        prog_.code[split].y = here();
      }
    }
    for (std::uint32_t j : jumps) prog_.code[j].x = here();
  }

  void compile_rep(const Node& n) {
    const Node& body = *n.children[0];
    if (n.max != kInfinity && emit_run(n, body)) return;
    // Mandatory copies.
    for (std::uint32_t i = 0; i < n.min; ++i) compile(body);
    if (n.max == n.min) return;
    if (n.max == kInfinity) {
      // Greedy star. If the body can match empty, guard with a progress
      // check to keep the backtracker finite.
      const bool guard = nullable(body);
      const std::uint32_t progress_slot =
          guard ? static_cast<std::uint32_t>(prog_.n_progress++) : 0;
      const std::uint32_t loop = here();
      const std::uint32_t split = emit(Instr{Op::Split, 0, 0});
      prog_.code[split].x = here();
      if (guard) emit(Instr{Op::Progress, progress_slot, 0});
      compile(body);
      emit(Instr{Op::Jmp, loop, 0});
      prog_.code[split].y = here();
      return;
    }
    // Bounded extras: (x (x (x)?)?)? — greedy nesting.
    std::vector<std::uint32_t> splits;
    for (std::uint32_t i = n.min; i < n.max; ++i) {
      splits.push_back(emit(Instr{Op::Split, 0, 0}));
      prog_.code[splits.back()].x = here();
      compile(body);
    }
    for (std::uint32_t s : splits) prog_.code[s].y = here();
  }

  // A bounded repeat of one byte compiles to Run + body (program.h) when
  // that is shorter than unrolling it: min mandatory copies plus a
  // Split + copy per optional one.
  bool emit_run(const Node& n, const Node& body) {
    if (body.kind != Node::Kind::Lit && body.kind != Node::Kind::Cls &&
        body.kind != Node::Kind::Any) {
      return false;
    }
    const std::uint64_t unrolled =
        n.min + 2 * static_cast<std::uint64_t>(n.max - n.min);
    if (unrolled <= 2) return false;
    emit(Instr{Op::Run, n.min, n.max});
    compile(body);
    count_unrolled(unrolled - 2);
    return true;
  }

  Program& prog_;
  std::uint64_t unrolled_ = 0;  // code size had every Run been unrolled
};

// ---------------------- Literal pre-filter ----------------------

struct Width {
  std::uint64_t min = 0;
  std::uint64_t max = 0;  // kWidthInf for unbounded
};
constexpr std::uint64_t kWidthInf = std::numeric_limits<std::uint64_t>::max();

Width width_of(const Node& n) {
  switch (n.kind) {
    case Node::Kind::Lit:
    case Node::Kind::Cls:
    case Node::Kind::Any:
      return {1, 1};
    case Node::Kind::Bol:
    case Node::Kind::Eol:
      return {0, 0};
    case Node::Kind::Bref:
      return {0, kWidthInf};
    case Node::Kind::Grp:
      return width_of(*n.children[0]);
    case Node::Kind::Rep: {
      const Width w = width_of(*n.children[0]);
      Width out;
      out.min = w.min * n.min;
      if (n.max == kInfinity || w.max == kWidthInf) {
        out.max = (w.max == 0) ? 0 : kWidthInf;
      } else {
        out.max = w.max * n.max;
      }
      return out;
    }
    case Node::Kind::Seq: {
      Width out{0, 0};
      for (const NodePtr& c : n.children) {
        const Width w = width_of(*c);
        out.min += w.min;
        out.max = (out.max == kWidthInf || w.max == kWidthInf)
                      ? kWidthInf
                      : out.max + w.max;
      }
      return out;
    }
    case Node::Kind::Alt: {
      Width out{kWidthInf, 0};
      for (const NodePtr& c : n.children) {
        const Width w = width_of(*c);
        out.min = std::min(out.min, w.min);
        out.max = (out.max == kWidthInf || w.max == kWidthInf)
                      ? kWidthInf
                      : std::max(out.max, w.max);
      }
      return out;
    }
  }
  return {0, kWidthInf};
}

// Flattens the required top-level item sequence: Seq children in order;
// capturing groups are transparent; everything else is a single item.
void flatten(const Node& n, std::vector<const Node*>& out) {
  if (n.kind == Node::Kind::Seq) {
    for (const NodePtr& c : n.children) flatten(*c, out);
  } else if (n.kind == Node::Kind::Grp) {
    flatten(*n.children[0], out);
  } else {
    out.push_back(&n);
  }
}

// Widest min-to-max spread of the literal's offset from the match start
// for which search() still enumerates candidate start positions around
// each memmem hit. Past this, every hit would spawn thousands of anchored
// VM attempts — worse than the plain scan — so the literal degrades to a
// quick-reject filter only. (Unrelated to any prefilter set-size limit;
// it bounds per-hit work inside ONE pattern's search.)
constexpr std::uint64_t kMaxLiteralOffsetSpread = 4096;

// A literal run of the flattened item sequence, with its offset bounds
// from the match start and the item range [item_begin, item_end) it
// occupies — the confirm-program classifier anchors on that range.
struct LitRun {
  std::string text;
  std::uint64_t off_min = 0;
  std::uint64_t off_max = 0;
  std::size_t item_begin = 0;
  std::size_t item_end = 0;
};

// Every literal run of the flattened item sequence, in item order.
std::vector<LitRun> literal_runs(const std::vector<const Node*>& items) {
  std::vector<LitRun> runs;
  LitRun run;
  std::uint64_t off_min = 0;
  std::uint64_t off_max = 0;

  auto close_run = [&](std::size_t end_item) {
    if (run.text.empty()) return;
    run.item_end = end_item;
    runs.push_back(std::move(run));
    run = LitRun{};
  };

  for (std::size_t i = 0; i < items.size(); ++i) {
    const Node* item = items[i];
    if (item->kind == Node::Kind::Lit) {
      if (run.text.empty()) {
        run.off_min = off_min;
        run.off_max = off_max;
        run.item_begin = i;
      }
      run.text.push_back(static_cast<char>(item->ch));
      off_min += 1;
      off_max = (off_max == kWidthInf) ? kWidthInf : off_max + 1;
      continue;
    }
    close_run(i);
    const Width w = width_of(*item);
    off_min += w.min;
    off_max = (off_max == kWidthInf || w.max == kWidthInf) ? kWidthInf
                                                           : off_max + w.max;
  }
  close_run(items.size());
  return runs;
}

// The longest (first, on ties) literal run; null when there is none.
const LitRun* best_literal_run(const std::vector<LitRun>& runs) {
  const LitRun* best = nullptr;
  for (const LitRun& run : runs) {
    if (!best || run.text.size() > best->text.size()) best = &run;
  }
  return best;
}

void find_literal(const std::vector<LitRun>& runs, Program& prog) {
  const LitRun* best = best_literal_run(runs);
  if (!best || best->text.size() < kMinLiteralRun) return;
  prog.literal = best->text;
  prog.lit_min_prefix = static_cast<std::size_t>(best->off_min);
  prog.lit_usable = true;
  if (best->off_max != kWidthInf &&
      best->off_max - best->off_min <= kMaxLiteralOffsetSpread) {
    prog.lit_max_prefix = static_cast<std::size_t>(best->off_max);
  } else {
    // Unbounded / too wide offset: literal is a quick-reject filter only.
    prog.lit_max_prefix = std::numeric_limits<std::size_t>::max();
  }
}

// ---------------------- Confirmation tier ----------------------
//
// Classifies the pattern for engine::scan's candidate-confirmation path
// and compiles the cheap confirm program where the shape allows it. The
// equivalence argument (same spans as the backtracking VM) rests on the
// pattern being one linear item sequence: a fixed-width prefix, the
// anchor literal, and bounded greedy suffix steps. Anything that breaks
// the linearity or the bounds — alternation, backreferences, anchors,
// unbounded repeats outside the quick-reject literal shape, repeat bodies
// wider than one byte — stays on the VM tier.

// Per-suffix cap on the greedy walk's backtracking alternatives (the
// product of every bounded class's count range). Signatures stay far
// below it; patterns past it keep the VM, whose step budget handles them.
constexpr std::uint64_t kMaxConfirmAttempts = 1u << 12;
// Cap on total confirm steps: bounds the suffix walk's recursion depth.
constexpr std::size_t kMaxConfirmSteps = 64;

bool tree_confirmable(const Node& n) {
  switch (n.kind) {
    case Node::Kind::Alt:   // branch: match start/end no longer unique
    case Node::Kind::Bref:  // needs capture slots
    case Node::Kind::Bol:   // position assertions
    case Node::Kind::Eol:
      return false;
    default:
      break;
  }
  return std::all_of(n.children.begin(), n.children.end(),
                     [](const NodePtr& c) { return tree_confirmable(*c); });
}

std::uint32_t intern_class(Program& prog, const ByteSet& set) {
  for (std::size_t i = 0; i < prog.classes.size(); ++i) {
    if (prog.classes[i] == set) return static_cast<std::uint32_t>(i);
  }
  prog.classes.push_back(set);
  return static_cast<std::uint32_t>(prog.classes.size() - 1);
}

ByteSet any_byte_set() {
  ByteSet set;
  set.set();
  set.reset('\n');  // '.' never crosses lines
  return set;
}

// Converts items [begin, end) into confirm steps. `fixed` (prefix side)
// additionally requires every step to consume an exact byte count so the
// anchor's offset from the match start is a constant. Returns false when
// an item doesn't fit the confirmable shape; `width` accumulates the
// minimum bytes consumed (== exact bytes when fixed).
bool steps_for(const std::vector<const Node*>& items, std::size_t begin,
               std::size_t end, bool fixed, Program& prog,
               std::vector<ConfirmStep>& out, std::size_t* width) {
  auto push_class = [&](const ByteSet& set, std::uint32_t min,
                        std::uint32_t max) {
    ConfirmStep step;
    step.kind = ConfirmStep::Kind::kClass;
    step.cls = intern_class(prog, set);
    step.min = min;
    step.max = max;
    out.push_back(std::move(step));
    *width += min;
  };
  for (std::size_t i = begin; i < end; ++i) {
    const Node& n = *items[i];
    switch (n.kind) {
      case Node::Kind::Lit:
        if (out.empty() || out.back().kind != ConfirmStep::Kind::kLiteral) {
          out.emplace_back();  // defaults to an empty kLiteral step
        }
        out.back().lit.push_back(static_cast<char>(n.ch));
        *width += 1;
        break;
      case Node::Kind::Cls:
        push_class(n.set, 1, 1);
        break;
      case Node::Kind::Any:
        push_class(any_byte_set(), 1, 1);
        break;
      case Node::Kind::Rep: {
        if (n.max == kInfinity) return false;
        if (fixed && n.min != n.max) return false;
        const Node& body = *n.children[0];
        ByteSet set;
        if (body.kind == Node::Kind::Lit) {
          set.set(body.ch);
        } else if (body.kind == Node::Kind::Cls) {
          set = body.set;
        } else if (body.kind == Node::Kind::Any) {
          set = any_byte_set();
        } else {
          return false;  // repeat body wider than one byte
        }
        if (n.max > 0) push_class(set, n.min, n.max);
        break;
      }
      default:
        return false;
    }
  }
  return true;
}

void classify_confirm(const Node& root, const std::vector<const Node*>& items,
                      const std::vector<LitRun>& runs, Program& prog) {
  prog.tier = ConfirmTier::kRegex;
  if (!tree_confirmable(root)) return;

  if (std::all_of(items.begin(), items.end(), [](const Node* n) {
        return n->kind == Node::Kind::Lit;
      })) {
    // Pure literal (any length, even below the prefilter-usability
    // threshold): confirmation is exactly text.find().
    prog.tier = ConfirmTier::kLiteral;
    for (const Node* n : items) {
      prog.confirm.anchor.push_back(static_cast<char>(n->ch));
    }
    return;
  }

  const LitRun* best = best_literal_run(runs);
  if (!best) return;  // nothing to anchor on
  ConfirmProgram cp;
  cp.anchor = best->text;
  std::size_t width = 0;
  if (!steps_for(items, 0, best->item_begin, /*fixed=*/true, prog, cp.prefix,
                 &width)) {
    return;
  }
  cp.prefix_width = width;
  std::size_t ignored = 0;
  if (!steps_for(items, best->item_end, items.size(), /*fixed=*/false, prog,
                 cp.suffix, &ignored)) {
    return;
  }
  std::uint64_t attempts = 1;
  for (const ConfirmStep& step : cp.suffix) {
    if (step.kind != ConfirmStep::Kind::kClass) continue;
    attempts *= step.max - step.min + 1;
    if (attempts > kMaxConfirmAttempts) return;
  }
  if (cp.prefix.size() + cp.suffix.size() > kMaxConfirmSteps) return;
  prog.confirm = std::move(cp);
  prog.tier = ConfirmTier::kLiteralDominated;
}

// The anchor-hint contract (pattern.h confirm_span) only holds when the
// confirm anchor is the very literal the prefilter registered
// (required_literal() == Program::literal) — a hint is the leftmost
// occurrence of *that* string. find_literal and classify_confirm both pick
// the best run, so this is the common case; it degrades to false (hint
// ignored) whenever either side was gated away.
void mark_hintable(Program& prog) {
  prog.confirm_hintable = prog.tier != ConfirmTier::kRegex &&
                          prog.lit_usable &&
                          prog.literal == prog.confirm.anchor;
}

// ------------------------- VM factor gate -------------------------
//
// Every literal run of the flattened item sequence occurs in every match,
// in item order and without overlap: groups are transparent, and anything
// that could skip or vary its content — alternation, repeats (optional
// groups included), backreferences — is a single item that closes the run
// and contributes nothing from inside. Only kRegex programs store them:
// the other tiers never run the VM.
void find_factors(const std::vector<LitRun>& runs, Program& prog) {
  if (prog.tier != ConfirmTier::kRegex) return;
  std::vector<std::string> factors;
  for (const LitRun& run : runs) {
    if (run.text.size() >= kMinLiteralRun) factors.push_back(run.text);
  }
  if (!factors.empty()) {
    prog.factors =
        std::make_unique<const std::vector<std::string>>(std::move(factors));
  }
}

}  // namespace

}  // namespace detail

// ---------------------------- Pattern ----------------------------

Pattern::Pattern() = default;
Pattern::~Pattern() = default;
Pattern::Pattern(Pattern&&) noexcept = default;
Pattern& Pattern::operator=(Pattern&&) noexcept = default;

// The compiled program is immutable once compile() returns, so copies
// share it: copying a Pattern costs one shared_ptr bump.
Pattern::Pattern(const Pattern&) = default;
Pattern& Pattern::operator=(const Pattern&) = default;

Pattern Pattern::compile(std::string_view source) {
  Pattern p;
  p.source_ = std::string(source);
  auto program = std::make_shared<detail::Program>();
  detail::Parser parser(source, *program);
  auto root = parser.run();
  detail::Compiler compiler(*program);
  compiler.run(*root);
  std::vector<const detail::Node*> items;
  detail::flatten(*root, items);
  if (!items.empty() && items.front()->kind == detail::Node::Kind::Bol) {
    program->anchored_bol = true;
  }
  const std::vector<detail::LitRun> runs = detail::literal_runs(items);
  detail::find_literal(runs, *program);
  detail::classify_confirm(*root, items, runs, *program);
  detail::mark_hintable(*program);
  detail::find_factors(runs, *program);
  p.program_ = std::move(program);
  return p;
}

ConfirmTier Pattern::confirm_tier() const { return program_->tier; }

std::size_t Pattern::group_count() const { return program_->n_groups; }

const std::string& Pattern::group_name(std::size_t index) const {
  return program_->group_names.at(index);
}

const detail::Program& Pattern::compiled_program() const { return *program_; }

const std::string& Pattern::required_literal() const {
  return program_->literal;
}

std::span<const std::string> Pattern::necessary_factors() const {
  if (!program_->factors) return {};
  return *program_->factors;
}

std::string Pattern::escape(std::string_view text) {
  static constexpr std::string_view kMeta = "^$.|?*+()[]{}\\/";
  std::string out;
  out.reserve(text.size() + 8);
  for (char c : text) {
    if (kMeta.find(c) != std::string_view::npos) out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace kizzle::match
