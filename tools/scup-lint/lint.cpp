#include "lint.hpp"

#include <algorithm>
#include <cctype>
#include <sstream>

namespace scup::lint {

namespace {

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// True iff `hay[pos..pos+needle)` equals `needle` and neither neighbour is
/// an identifier character (word-boundary match).
bool word_at(const std::string& hay, std::size_t pos, std::string_view needle) {
  if (pos + needle.size() > hay.size()) return false;
  if (hay.compare(pos, needle.size(), needle) != 0) return false;
  if (pos > 0 && ident_char(hay[pos - 1])) return false;
  const std::size_t end = pos + needle.size();
  if (end < hay.size() && ident_char(hay[end])) return false;
  return true;
}

std::size_t find_word(const std::string& hay, std::string_view needle,
                      std::size_t from = 0) {
  for (std::size_t pos = hay.find(needle, from); pos != std::string::npos;
       pos = hay.find(needle, pos + 1)) {
    if (word_at(hay, pos, needle)) return pos;
  }
  return std::string::npos;
}

bool contains_word(const std::string& hay, std::string_view needle) {
  return find_word(hay, needle) != std::string::npos;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
  return s.substr(b, e - b);
}

std::vector<std::string> split_idents(const std::string& text) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < text.size()) {
    if (ident_char(text[i]) &&
        std::isdigit(static_cast<unsigned char>(text[i])) == 0) {
      std::size_t j = i;
      while (j < text.size() && ident_char(text[j])) ++j;
      out.push_back(text.substr(i, j - i));
      i = j;
    } else {
      ++i;
    }
  }
  return out;
}

// ---- annotations ----

enum class AnnotationKind {
  kOrderInsensitive,
  kGuardedBy,
  kThreadSafe,
  kBounded,
  kAllocOk,
};

struct Annotation {
  AnnotationKind kind = AnnotationKind::kBounded;
  std::size_t comment_line = 0;  ///< 1-based line the comment sits on
  /// 1-based inclusive line range of the *statement* the annotation
  /// excuses: from the first code line at or after the comment through the
  /// first line containing a statement terminator (`;`, `{`, or `}`), so a
  /// wrapped for-header or call keeps its annotation even after
  /// clang-format rewraps it. Both 0 when no code follows.
  std::size_t applies_begin = 0;
  std::size_t applies_end = 0;
  bool consumed = false;
};

struct ParsedFile {
  std::vector<ScannedLine> lines;
  std::vector<Annotation> annotations;
  std::vector<Finding> annotation_errors;  ///< unknown-name findings
};

constexpr std::string_view kAnnotationMarker = "scup-lint:";

bool parse_annotation_name(const std::string& name, AnnotationKind& kind) {
  if (name == "order-insensitive") {
    kind = AnnotationKind::kOrderInsensitive;
    return true;
  }
  if (name == "guarded-by") {
    kind = AnnotationKind::kGuardedBy;
    return true;
  }
  if (name == "thread-safe") {
    kind = AnnotationKind::kThreadSafe;
    return true;
  }
  if (name == "bounded") {
    kind = AnnotationKind::kBounded;
    return true;
  }
  if (name == "alloc-ok") {
    kind = AnnotationKind::kAllocOk;
    return true;
  }
  return false;
}

/// Extracts `name(reason)` annotations after every `scup-lint:` marker in
/// the comment text of line `line_no`. A missing or unbalanced reason, or an
/// unknown name, is an error finding.
void parse_annotations(const std::string& rel_path, std::size_t line_no,
                       const std::string& comment, ParsedFile& out) {
  std::size_t pos = comment.find(kAnnotationMarker);
  while (pos != std::string::npos) {
    std::size_t i = pos + kAnnotationMarker.size();
    while (i < comment.size() &&
           std::isspace(static_cast<unsigned char>(comment[i])) != 0) {
      ++i;
    }
    std::size_t j = i;
    while (j < comment.size() && (ident_char(comment[j]) || comment[j] == '-')) {
      ++j;
    }
    const std::string name = comment.substr(i, j - i);
    AnnotationKind kind;
    bool ok = parse_annotation_name(name, kind);
    if (ok) {
      // Require a non-empty, paren-balanced reason.
      if (j >= comment.size() || comment[j] != '(') {
        ok = false;
      } else {
        int depth = 0;
        std::size_t k = j;
        for (; k < comment.size(); ++k) {
          if (comment[k] == '(') ++depth;
          if (comment[k] == ')' && --depth == 0) break;
        }
        ok = depth == 0 && k > j + 1;
      }
    }
    if (ok) {
      out.annotations.push_back(Annotation{kind, line_no, 0, false});
    } else {
      out.annotation_errors.push_back(Finding{
          rel_path, line_no, std::string(kRuleUnknownAnnotation),
          "malformed scup-lint annotation '" + name +
              "' (expected one of order-insensitive, guarded-by, "
              "thread-safe, bounded, alloc-ok, each with a (reason))"});
    }
    pos = comment.find(kAnnotationMarker, pos + kAnnotationMarker.size());
  }
}

ParsedFile parse_file(const std::string& rel_path,
                      const std::string& content) {
  ParsedFile out;
  out.lines = scan_source(content);
  for (std::size_t i = 0; i < out.lines.size(); ++i) {
    if (out.lines[i].comment.find(kAnnotationMarker) != std::string::npos) {
      parse_annotations(rel_path, i + 1, out.lines[i].comment, out);
    }
  }
  // Bind each annotation to the statement it excuses: starting at its own
  // line when that line has code (else the next line that does), extending
  // through the first line that carries a statement terminator. A wrapped
  // construct (for-header, cast argument list) is covered whole.
  for (Annotation& a : out.annotations) {
    std::size_t line = a.comment_line;  // 1-based
    while (line <= out.lines.size() &&
           trim(out.lines[line - 1].code).empty()) {
      ++line;
    }
    if (line > out.lines.size()) continue;  // trailing comment: binds nothing
    std::size_t end = line;
    while (end < out.lines.size() &&
           out.lines[end - 1].code.find_first_of(";{}") == std::string::npos) {
      ++end;
    }
    a.applies_begin = line;
    a.applies_end = end;
  }
  return out;
}

/// Consumes (and returns true for) an annotation of `kind` whose statement
/// range covers `code_line`.
bool consume_annotation(ParsedFile& file, std::size_t code_line,
                        AnnotationKind kind) {
  // One annotation covers every match inside its statement (a wrapped call
  // with two flagged subscripts needs one `bounded`, not two).
  bool found = false;
  for (Annotation& a : file.annotations) {
    if (a.kind == kind && a.applies_begin != 0 &&
        code_line >= a.applies_begin && code_line <= a.applies_end) {
      a.consumed = true;
      found = true;
    }
  }
  return found;
}

// ---- path scoping ----

struct PathScope {
  bool in_src = false;
  bool in_tests = false;
  bool in_bench = false;
  bool is_rng = false;           ///< src/common/rng.*
  bool is_matrix_runner = false; ///< src/core/scenario_matrix.*
  bool in_sim = false;           ///< src/sim/
  bool is_shard_file = false;    ///< src/sim/shard* (the sharded engine)
  bool is_shard_pool = false;    ///< src/sim/shard_pool.*
};

PathScope classify(const std::string& rel_path) {
  PathScope s;
  s.in_src = starts_with(rel_path, "src/");
  s.in_tests = starts_with(rel_path, "tests/");
  s.in_bench = starts_with(rel_path, "bench/");
  s.is_rng = starts_with(rel_path, "src/common/rng.");
  s.is_matrix_runner = starts_with(rel_path, "src/core/scenario_matrix.");
  s.in_sim = starts_with(rel_path, "src/sim/");
  s.is_shard_file = starts_with(rel_path, "src/sim/shard");
  s.is_shard_pool = starts_with(rel_path, "src/sim/shard_pool.");
  return s;
}

/// Joined window of up to `n` code lines starting at `i` (0-based), used for
/// constructs that may wrap (for-headers, cast arguments).
std::string code_window(const std::vector<ScannedLine>& lines, std::size_t i,
                        std::size_t n) {
  std::string out;
  for (std::size_t k = i; k < lines.size() && k < i + n; ++k) {
    out += lines[k].code;
    out += ' ';
  }
  return out;
}

// ---- rule: det-unordered-iter ----

/// Finds the range expression of a range-for whose header starts in
/// `window` at position `for_pos`; empty when the construct is not a
/// range-for (or the header is truncated).
std::string range_for_expr(const std::string& window, std::size_t for_pos) {
  std::size_t open = window.find('(', for_pos);
  if (open == std::string::npos) return {};
  int depth = 0;
  std::size_t colon = std::string::npos;
  std::size_t close = std::string::npos;
  for (std::size_t i = open; i < window.size(); ++i) {
    const char c = window[i];
    if (c == '(' || c == '[' || c == '{') ++depth;
    if (c == ')' || c == ']' || c == '}') {
      --depth;
      if (depth == 0 && c == ')') {
        close = i;
        break;
      }
    }
    if (c == ':' && depth == 1 && colon == std::string::npos) {
      // Skip '::' scope operators.
      const bool dbl = (i + 1 < window.size() && window[i + 1] == ':') ||
                       (i > 0 && window[i - 1] == ':');
      if (!dbl) colon = i;
    }
  }
  if (colon == std::string::npos || close == std::string::npos) return {};
  return window.substr(colon + 1, close - colon - 1);
}

void rule_unordered_iter(const std::string& rel_path, ParsedFile& file,
                         const LintOptions& opts,
                         std::vector<Finding>& findings) {
  const PathScope scope = classify(rel_path);
  if (!scope.in_src) return;
  for (std::size_t i = 0; i < file.lines.size(); ++i) {
    const std::string& code = file.lines[i].code;
    for (std::size_t pos = 0;
         (pos = find_word(code, "for", pos)) != std::string::npos; ++pos) {
      const std::string window = code_window(file.lines, i, 4);
      // Re-anchor `for` inside the window (the window starts at this line).
      const std::size_t wpos = find_word(window, "for", pos);
      if (wpos == std::string::npos) continue;
      const std::string range = range_for_expr(window, wpos);
      if (range.empty()) continue;
      for (const std::string& ident : split_idents(range)) {
        if (std::find(opts.unordered_idents.begin(),
                      opts.unordered_idents.end(),
                      ident) == opts.unordered_idents.end()) {
          continue;
        }
        if (consume_annotation(file, i + 1, AnnotationKind::kOrderInsensitive)) {
          break;
        }
        findings.push_back(Finding{
            rel_path, i + 1, std::string(kRuleUnorderedIter),
            "range-for over unordered container '" + ident +
                "'; iteration order is not deterministic across "
                "implementations — rewrite over a sorted snapshot or "
                "annotate `// scup-lint: order-insensitive(<why the loop "
                "body commutes>)`"});
        break;
      }
    }
  }
}

// ---- rule: det-raw-random ----

void rule_raw_random(const std::string& rel_path, ParsedFile& file,
                     std::vector<Finding>& findings) {
  const PathScope scope = classify(rel_path);
  if (scope.is_rng) return;  // the one sanctioned home of raw randomness
  static constexpr std::string_view kBanned[] = {
      "rand",           "srand",        "random_device",
      "mt19937",        "mt19937_64",   "default_random_engine",
      "system_clock",   "steady_clock", "high_resolution_clock",
  };
  for (std::size_t i = 0; i < file.lines.size(); ++i) {
    const std::string& code = file.lines[i].code;
    for (std::string_view token : kBanned) {
      if (!contains_word(code, token)) continue;
      findings.push_back(Finding{
          rel_path, i + 1, std::string(kRuleRawRandom),
          "'" + std::string(token) +
              "' breaks seeded reproducibility; all randomness and time "
              "must flow through common/rng (scup::Rng) or sim time"});
      break;  // one finding per line is enough
    }
    // `time(nullptr)` / `time(NULL)`: `time` alone is too common a word.
    const std::size_t t = find_word(code, "time");
    if (t != std::string::npos) {
      const std::size_t open = code.find_first_not_of(' ', t + 4);
      if (open != std::string::npos && code[open] == '(') {
        const std::string arg =
            trim(code.substr(open + 1, code.find(')', open) - open - 1));
        if (arg == "nullptr" || arg == "NULL" || arg == "0" || arg.empty()) {
          findings.push_back(Finding{
              rel_path, i + 1, std::string(kRuleRawRandom),
              "wall-clock time() breaks seeded reproducibility; use sim "
              "time (host_now) or a seed parameter"});
        }
      }
    }
  }
}

// ---- rule: conc-raw-thread ----

void rule_raw_thread(const std::string& rel_path, ParsedFile& file,
                     std::vector<Finding>& findings) {
  const PathScope scope = classify(rel_path);
  // src/sim/ is det-shard-escape's territory (the sharded engine has its
  // own sanctioned thread owner there); keeping the scopes disjoint means
  // one finding, with the right message, per violation.
  if (!scope.in_src || scope.is_matrix_runner || scope.in_sim) return;
  static constexpr std::string_view kBanned[] = {"thread", "jthread",
                                                 "async"};
  for (std::size_t i = 0; i < file.lines.size(); ++i) {
    const std::string& code = file.lines[i].code;
    bool hit = false;
    for (std::string_view token : kBanned) {
      // Only the std:: forms: a member named `thread` is not a spawn.
      const std::string qualified = "std::" + std::string(token);
      if (code.find(qualified) != std::string::npos) {
        hit = true;
        break;
      }
    }
    if (!hit && code.find(".detach(") != std::string::npos) hit = true;
    if (!hit) continue;
    findings.push_back(Finding{
        rel_path, i + 1, std::string(kRuleRawThread),
        "raw threading primitive outside core/scenario_matrix; all "
        "parallelism must go through parallel_cells so the "
        "serial==parallel identity proof (E12) stays meaningful"});
  }
}

// ---- rule: det-shard-escape ----

/// 1-based inclusive line ranges marked `// shard-barrier begin(<why>)` ...
/// `// shard-barrier end` — the regions where shard-engine code may touch
/// engine-global state (every shard thread is parked at the barrier). An
/// unterminated begin extends to end of file.
std::vector<std::pair<std::size_t, std::size_t>> marker_regions(
    const std::vector<ScannedLine>& lines, std::string_view begin_marker,
    std::string_view end_marker) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  std::size_t open = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& comment = lines[i].comment;
    if (comment.find(begin_marker) != std::string::npos) {
      if (open == 0) open = i + 1;
    } else if (comment.find(end_marker) != std::string::npos) {
      if (open != 0) {
        out.emplace_back(open, i + 1);
        open = 0;
      }
    }
  }
  if (open != 0) out.emplace_back(open, lines.size());
  return out;
}

bool in_barrier_region(
    const std::vector<std::pair<std::size_t, std::size_t>>& regions,
    std::size_t line) {
  for (const auto& [begin, end] : regions) {
    if (line >= begin && line <= end) return true;
  }
  return false;
}

void rule_shard_escape(const std::string& rel_path, ParsedFile& file,
                       std::vector<Finding>& findings) {
  const PathScope scope = classify(rel_path);
  if (!scope.in_sim) return;
  // (a) Raw threading inside the simulator belongs to sim/shard_pool alone:
  // the pool's fork/join is what gives the engine its happens-before edges,
  // so a stray thread or async task is a determinism hole by construction.
  if (!scope.is_shard_pool) {
    static constexpr std::string_view kSpawns[] = {"std::thread",
                                                   "std::jthread",
                                                   "std::async"};
    for (std::size_t i = 0; i < file.lines.size(); ++i) {
      const std::string& code = file.lines[i].code;
      bool hit = false;
      for (std::string_view token : kSpawns) {
        if (code.find(token) != std::string::npos) {
          hit = true;
          break;
        }
      }
      if (!hit && code.find(".detach(") != std::string::npos) hit = true;
      if (!hit) continue;
      findings.push_back(Finding{
          rel_path, i + 1, std::string(kRuleShardEscape),
          "raw threading primitive in src/sim/ outside sim/shard_pool; all "
          "shard parallelism must go through ShardPool so the window-"
          "barrier discipline (DESIGN.md §4.6) keeps sharded runs "
          "bit-identical to serial"});
    }
  }
  // (b) In shard-engine files, engine-global simulation state may only be
  // touched between barrier markers. Any mention counts: shard-side code
  // has no business even reading these while windows are in flight.
  if (scope.is_shard_file) {
    const auto regions =
        marker_regions(file.lines, "shard-barrier begin", "shard-barrier end");
    static constexpr std::string_view kGlobals[] = {
        "net_streams_", "notary_", "metrics_", "now_", "started_",
    };
    for (std::size_t i = 0; i < file.lines.size(); ++i) {
      const std::string& code = file.lines[i].code;
      for (std::string_view global : kGlobals) {
        if (!contains_word(code, global)) continue;
        if (in_barrier_region(regions, i + 1)) break;
        findings.push_back(Finding{
            rel_path, i + 1, std::string(kRuleShardEscape),
            "engine-global state '" + std::string(global) +
                "' touched outside a `// shard-barrier begin(<why>)` "
                "region; shard code may only touch non-shard-local state "
                "at the window barrier, where every shard thread is "
                "parked"});
        break;  // one finding per line is enough
      }
    }
  }
}

// ---- rule: det-drawplan-escape ----

void rule_drawplan_escape(const std::string& rel_path, ParsedFile& file,
                          std::vector<Finding>& findings) {
  const PathScope scope = classify(rel_path);
  if (!scope.in_sim) return;
  // The per-sender verdict streams may only be touched inside a marked
  // drawplan region. The region brackets are where the position accounting
  // lives (position before, on_send, draws_per_send check); a stream draw
  // anywhere else desyncs a sender's position from the prefix sum of its
  // draw plan, and with it the send-time parallel verdict path's identity
  // with the serial stream. Any mention counts — reading a stream is as
  // suspect as drawing from it.
  const auto regions =
      marker_regions(file.lines, "drawplan begin", "drawplan end");
  for (std::size_t i = 0; i < file.lines.size(); ++i) {
    if (!contains_word(file.lines[i].code, "net_streams_")) continue;
    if (in_barrier_region(regions, i + 1)) continue;
    findings.push_back(Finding{
        rel_path, i + 1, std::string(kRuleDrawplanEscape),
        "network verdict stream 'net_streams_' touched outside a "
        "`// drawplan begin(<why>)` region; every draw must go through "
        "the audited verdict site so sender stream positions stay the "
        "prefix sum of the draw plan (DESIGN.md §4.7)"});
  }
}

// ---- rule: conc-unguarded-static ----

void rule_unguarded_static(const std::string& rel_path, ParsedFile& file,
                           std::vector<Finding>& findings) {
  const PathScope scope = classify(rel_path);
  if (!scope.in_src) return;
  for (std::size_t i = 0; i < file.lines.size(); ++i) {
    const std::string code = trim(file.lines[i].code);
    if (!starts_with(code, "static ")) continue;
    const std::string rest = code.substr(7);
    if (starts_with(rest, "const ") || starts_with(rest, "constexpr ") ||
        starts_with(rest, "consteval ") || starts_with(rest, "assert(")) {
      continue;
    }
    // Function declarations/definitions carry a parameter list before the
    // terminator; data declarations do not (heuristic: a '(' before any
    // '=' or ';' means function). `static Foo x(args);` direct-init is not
    // used in this tree — brace- or =-init it if the lint complains.
    const std::size_t paren = rest.find('(');
    const std::size_t eq = rest.find('=');
    const std::size_t semi = rest.find(';');
    const std::size_t terminator = std::min(eq, semi);
    if (paren != std::string::npos && paren < terminator) continue;
    if (consume_annotation(file, i + 1, AnnotationKind::kGuardedBy) ||
        consume_annotation(file, i + 1, AnnotationKind::kThreadSafe)) {
      continue;
    }
    findings.push_back(Finding{
        rel_path, i + 1, std::string(kRuleUnguardedStatic),
        "mutable static state is shared across scenario-matrix threads; "
        "guard it and annotate `// scup-lint: guarded-by(<mutex>)`, or "
        "justify with `// scup-lint: thread-safe(<why>)`"});
  }
}

// ---- rule: byz-narrowing-cast ----

bool idish_identifier(const std::string& tok) {
  if (tok == "slot" || tok == "view" || tok == "seq" || tok == "id" ||
      tok == "peer" || tok == "from" || tok == "node" || tok == "sender" ||
      tok == "signer") {
    return true;
  }
  const auto ends_with = [&tok](std::string_view suffix) {
    return tok.size() >= suffix.size() &&
           std::string_view(tok).substr(tok.size() - suffix.size()) == suffix;
  };
  if (ends_with("_id") || ends_with("Id") || ends_with("_view") ||
      ends_with("_slot") || ends_with("_seq")) {
    return true;
  }
  return starts_with(tok, "slot") || starts_with(tok, "view");
}

void rule_narrowing_cast(const std::string& rel_path, ParsedFile& file,
                         std::vector<Finding>& findings) {
  const PathScope scope = classify(rel_path);
  if (!scope.in_src) return;
  static constexpr std::string_view kNarrow[] = {
      "int",           "short",         "unsigned",      "char",
      "std::int8_t",   "std::int16_t",  "std::int32_t",  "std::uint8_t",
      "std::uint16_t", "std::uint32_t", "int8_t",        "int16_t",
      "int32_t",       "uint8_t",       "uint16_t",      "uint32_t",
  };
  static constexpr std::string_view kCast = "static_cast<";
  for (std::size_t i = 0; i < file.lines.size(); ++i) {
    const std::string window = code_window(file.lines, i, 3);
    // Anchor on casts that *start* on this line.
    const std::size_t line_len = file.lines[i].code.size();
    for (std::size_t pos = window.find(kCast);
         pos != std::string::npos && pos < line_len;
         pos = window.find(kCast, pos + 1)) {
      const std::size_t type_begin = pos + kCast.size();
      const std::size_t type_end = window.find('>', type_begin);
      if (type_end == std::string::npos) continue;
      const std::string type = trim(window.substr(type_begin,
                                                  type_end - type_begin));
      const bool narrow = std::find(std::begin(kNarrow), std::end(kNarrow),
                                    type) != std::end(kNarrow);
      if (!narrow) continue;
      // Argument text: balanced parens after the '>'.
      const std::size_t open = window.find('(', type_end);
      if (open == std::string::npos) continue;
      int depth = 0;
      std::size_t close = std::string::npos;
      for (std::size_t k = open; k < window.size(); ++k) {
        if (window[k] == '(') ++depth;
        if (window[k] == ')' && --depth == 0) {
          close = k;
          break;
        }
      }
      if (close == std::string::npos) continue;
      const std::string arg = window.substr(open + 1, close - open - 1);
      bool idish = false;
      for (const std::string& tok : split_idents(arg)) {
        if (idish_identifier(tok)) {
          idish = true;
          break;
        }
      }
      if (!idish) continue;
      if (consume_annotation(file, i + 1, AnnotationKind::kBounded)) continue;
      findings.push_back(Finding{
          rel_path, i + 1, std::string(kRuleNarrowingCast),
          "narrowing static_cast<" + type + "> on an id-like value (" +
              trim(arg) +
              "); Byzantine peers choose these — range-check first and "
              "annotate `// scup-lint: bounded(<the check>)`"});
    }
  }
}

// ---- message-handler body detection (byz-unbounded-map, perf-hot-alloc) --

/// One message-handler shape: the method name, the in-class definition
/// prefix that distinguishes a definition from a call site, and whether the
/// header must name a ProcessId sender (the batch upcall takes Delivery*).
struct HandlerSpec {
  std::string_view name;
  std::string_view inclass_prefix;
  bool needs_process_id;
};

/// 0-based line ranges of message-handler bodies matching `spec`.
std::vector<std::pair<std::size_t, std::size_t>> handler_bodies(
    const std::vector<ScannedLine>& lines, const HandlerSpec& spec) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& code = lines[i].code;
    const std::size_t pos = find_word(code, spec.name);
    if (pos == std::string::npos) continue;
    if (code.find('(', pos) == std::string::npos) continue;
    // Definitions only, not call sites: the header is either an
    // out-of-class `X::name(` or an in-class `<ret> name(`. (A declaration
    // is filtered below by the ';' check.)
    const bool qualified = pos >= 2 && code.compare(pos - 2, 2, "::") == 0;
    const bool inclass = starts_with(trim(code), spec.inclass_prefix);
    if (!qualified && !inclass) continue;
    const std::string window = code_window(lines, i, 3);
    if (spec.needs_process_id &&
        window.find("ProcessId") == std::string::npos) {
      continue;
    }
    // Find the opening brace, then the matching close.
    int depth = 0;
    bool open_seen = false;
    std::size_t end = lines.size();
    bool is_definition = true;
    for (std::size_t k = i; k < lines.size(); ++k) {
      for (const char c : lines[k].code) {
        if (!open_seen && c == ';') {
          is_definition = false;
          break;
        }
        if (c == '{') {
          ++depth;
          open_seen = true;
        }
        if (c == '}' && open_seen && --depth == 0) {
          end = k;
          break;
        }
      }
      if (!is_definition || end != lines.size()) break;
    }
    if (is_definition && open_seen) out.emplace_back(i, end);
  }
  return out;
}

// ---- rule: byz-unbounded-map ----

void rule_unbounded_map(const std::string& rel_path, ParsedFile& file,
                        std::vector<Finding>& findings) {
  const PathScope scope = classify(rel_path);
  if (!scope.in_src) return;
  const HandlerSpec handle{"handle", "bool handle", true};
  for (const auto& [begin, end] : handler_bodies(file.lines, handle)) {
    for (std::size_t i = begin; i <= end && i < file.lines.size(); ++i) {
      const std::string& code = file.lines[i].code;
      for (std::size_t k = 0; k + 1 < code.size(); ++k) {
        if (code[k + 1] != '[' || !ident_char(code[k])) continue;
        std::size_t b = k;
        while (b > 0 && ident_char(code[b - 1])) --b;
        const std::string ident = code.substr(b, k - b + 1);
        // Member containers only (trailing-underscore convention).
        if (ident.size() < 2 || ident.back() != '_') continue;
        if (consume_annotation(file, i + 1, AnnotationKind::kBounded)) {
          continue;
        }
        findings.push_back(Finding{
            rel_path, i + 1, std::string(kRuleUnboundedMap),
            "operator[] on member container '" + ident +
                "' inside a handle() path inserts on lookup; a Byzantine "
                "sender controls the key space — bound it and annotate "
                "`// scup-lint: bounded(<the bound>)`"});
      }
    }
  }
}

// ---- rule: perf-hot-alloc ----

void rule_perf_hot_alloc(const std::string& rel_path, ParsedFile& file,
                         std::vector<Finding>& findings) {
  const PathScope scope = classify(rel_path);
  if (!scope.in_src) return;
  // The per-delivery hot paths: the single-message upcall, the batch
  // upcall, and the protocol-level handle() dispatchees.
  static constexpr HandlerSpec kHotPaths[] = {
      {"on_message", "void on_message", true},
      {"on_messages", "void on_messages", false},
      {"handle", "bool handle", true},
  };
  for (const HandlerSpec& spec : kHotPaths) {
    for (const auto& [begin, end] : handler_bodies(file.lines, spec)) {
      for (std::size_t i = begin; i <= end && i < file.lines.size(); ++i) {
        const std::string& code = file.lines[i].code;
        std::string_view token;
        if (contains_word(code, "make_shared")) {
          token = "make_shared";
        } else if (contains_word(code, "new")) {
          token = "new";
        } else {
          continue;
        }
        if (consume_annotation(file, i + 1, AnnotationKind::kAllocOk)) {
          continue;
        }
        findings.push_back(Finding{
            rel_path, i + 1, std::string(kRulePerfHotAlloc),
            "'" + std::string(token) +
                "' allocates inside a message-handler body — the "
                "per-delivery hot path (E16); construct messages with the "
                "pooled sim::make_message, hoist the allocation out of the "
                "handler, or annotate `// scup-lint: alloc-ok(<why this "
                "allocation is cold or amortized>)`"});
      }
    }
  }
}

}  // namespace

// ---- scanner ----

std::vector<ScannedLine> scan_source(const std::string& content) {
  std::vector<ScannedLine> out;
  ScannedLine cur;
  enum class State { kCode, kBlockComment, kString, kChar };
  State state = State::kCode;
  for (std::size_t i = 0; i <= content.size(); ++i) {
    const char c = i < content.size() ? content[i] : '\n';
    if (c == '\n') {
      if (i == content.size() && cur.code.empty() && cur.comment.empty() &&
          !out.empty()) {
        break;  // no trailing phantom line
      }
      out.push_back(std::move(cur));
      cur = {};
      // Strings do not span lines (unterminated literal: fail open to code).
      if (state == State::kString || state == State::kChar) {
        state = State::kCode;
      }
      if (i == content.size()) break;
      continue;
    }
    const char next = i + 1 < content.size() ? content[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          cur.comment.append(content, i, content.find('\n', i) == std::string::npos
                                             ? content.size() - i
                                             : content.find('\n', i) - i);
          i = content.find('\n', i);
          if (i == std::string::npos) i = content.size();
          --i;  // loop ++ lands on the newline
          break;
        }
        if (c == '/' && next == '*') {
          state = State::kBlockComment;
          ++i;
          break;
        }
        if (c == '"') {
          state = State::kString;
          cur.code += '"';
          break;
        }
        if (c == '\'') {
          state = State::kChar;
          cur.code += '\'';
          break;
        }
        cur.code += c;
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          ++i;
        } else {
          cur.comment += c;
        }
        break;
      case State::kString:
        if (c == '\\') {
          ++i;  // skip escaped char
        } else if (c == '"') {
          state = State::kCode;
          cur.code += '"';
        }
        break;
      case State::kChar:
        if (c == '\\') {
          ++i;
        } else if (c == '\'') {
          state = State::kCode;
          cur.code += '\'';
        }
        break;
    }
  }
  return out;
}

std::vector<std::string> collect_unordered_idents(const std::string& content) {
  std::vector<std::string> out;
  const std::vector<ScannedLine> lines = scan_source(content);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string window = code_window(lines, i, 3);
    const std::size_t line_len = lines[i].code.size();
    for (std::string_view kw : {std::string_view("unordered_map<"),
                                std::string_view("unordered_set<")}) {
      for (std::size_t pos = window.find(kw);
           pos != std::string::npos && pos < line_len;
           pos = window.find(kw, pos + 1)) {
        // Balance the template angle brackets.
        std::size_t k = pos + kw.size() - 1;  // at '<'
        int depth = 0;
        for (; k < window.size(); ++k) {
          if (window[k] == '<') ++depth;
          if (window[k] == '>' && --depth == 0) break;
        }
        if (k >= window.size()) continue;
        // Next identifier after the closing '>' (skipping refs/pointers) is
        // the declared name — when the declaration ends in ; = { or ,
        // (member/local/param), not ( (a function returning the container).
        ++k;
        while (k < window.size() &&
               (std::isspace(static_cast<unsigned char>(window[k])) != 0 ||
                window[k] == '&' || window[k] == '*')) {
          ++k;
        }
        std::size_t e = k;
        while (e < window.size() && ident_char(window[e])) ++e;
        if (e == k) continue;
        std::size_t after = e;
        while (after < window.size() &&
               std::isspace(static_cast<unsigned char>(window[after])) != 0) {
          ++after;
        }
        if (after < window.size() && window[after] == '(') continue;
        const std::string ident = window.substr(k, e - k);
        if (std::find(out.begin(), out.end(), ident) == out.end()) {
          out.push_back(ident);
        }
      }
    }
  }
  return out;
}

bool rule_suppressible(std::string_view rule) {
  return rule == kRuleUnorderedIter || rule == kRuleRawRandom ||
         rule == kRuleShardEscape || rule == kRuleDrawplanEscape ||
         rule == kRuleRawThread || rule == kRuleUnguardedStatic ||
         rule == kRuleNarrowingCast || rule == kRuleUnboundedMap ||
         rule == kRulePerfHotAlloc;
}

std::vector<Finding> lint_file(const std::string& rel_path,
                               const std::string& content,
                               const LintOptions& opts) {
  ParsedFile file = parse_file(rel_path, content);
  std::vector<Finding> findings = file.annotation_errors;
  rule_unordered_iter(rel_path, file, opts, findings);
  rule_raw_random(rel_path, file, findings);
  rule_shard_escape(rel_path, file, findings);
  rule_drawplan_escape(rel_path, file, findings);
  rule_raw_thread(rel_path, file, findings);
  rule_unguarded_static(rel_path, file, findings);
  rule_narrowing_cast(rel_path, file, findings);
  rule_unbounded_map(rel_path, file, findings);
  rule_perf_hot_alloc(rel_path, file, findings);
  for (const Annotation& a : file.annotations) {
    if (a.consumed) continue;
    findings.push_back(Finding{
        rel_path, a.comment_line, std::string(kRuleStaleAnnotation),
        "annotation excuses nothing (the code it was written for no longer "
        "triggers the rule here); delete it"});
  }
  return findings;
}

std::vector<Suppression> parse_suppressions(const std::string& content,
                                            const std::string& supp_rel_path,
                                            std::vector<Finding>& errors) {
  std::vector<Suppression> out;
  std::istringstream in(content);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::string text = trim(line.substr(0, line.find('#')));
    if (text.empty()) continue;
    std::istringstream fields(text);
    std::string path;
    std::string rule;
    std::string extra;
    fields >> path >> rule;
    if (rule.empty() || (fields >> extra && !extra.empty())) {
      errors.push_back(Finding{
          supp_rel_path, line_no, std::string(kRuleBadSuppression),
          "malformed suppression (expected `<path> <rule-id>`): " + text});
      continue;
    }
    if (!rule_suppressible(rule)) {
      errors.push_back(Finding{
          supp_rel_path, line_no, std::string(kRuleBadSuppression),
          "unknown or unsuppressible rule id '" + rule + "'"});
      continue;
    }
    out.push_back(Suppression{path, rule, line_no, false});
  }
  return out;
}

std::vector<Finding> apply_suppressions(std::vector<Finding> findings,
                                        std::vector<Suppression>& supps,
                                        const std::string& supp_rel_path) {
  std::vector<Finding> kept;
  kept.reserve(findings.size());
  for (Finding& f : findings) {
    bool suppressed = false;
    for (Suppression& s : supps) {
      if (s.path == f.file && s.rule == f.rule) {
        s.used = true;
        suppressed = true;
        break;
      }
    }
    if (!suppressed) kept.push_back(std::move(f));
  }
  for (const Suppression& s : supps) {
    if (s.used) continue;
    kept.push_back(Finding{
        supp_rel_path, s.line, std::string(kRuleStaleSuppression),
        "suppression `" + s.path + " " + s.rule +
            "` matches no finding; delete it"});
  }
  return kept;
}

void sort_findings(std::vector<Finding>& findings) {
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              if (a.rule != b.rule) return a.rule < b.rule;
              return a.message < b.message;
            });
}

std::string format_finding(const Finding& f) {
  return f.file + ":" + std::to_string(f.line) + ": [" + f.rule + "] " +
         f.message;
}

}  // namespace scup::lint
