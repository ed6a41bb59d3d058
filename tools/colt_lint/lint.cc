#include "lint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>

#include "internal.h"

namespace colt_lint {

// ---------------------------------------------------------------------------
// Shared plumbing (colt_lint::internal): the lexer and the suppression
// parser, used by both the per-file rules below and the cross-file
// thread-role analyzer (thread_roles.cc).
// ---------------------------------------------------------------------------

namespace internal {

int LineOfOffset(const std::string& s, size_t offset) {
  return 1 + static_cast<int>(std::count(s.begin(), s.begin() + static_cast<std::ptrdiff_t>(offset), '\n'));
}

LexedFile Lex(const std::string& src) {
  LexedFile out;
  out.stripped = src;
  std::string& st = out.stripped;

  enum class State { kCode, kLineComment, kBlockComment, kString, kChar, kRawString };
  State state = State::kCode;
  std::string raw_delim;        // for R"delim( ... )delim"
  size_t comment_start = 0;     // offset of the current comment's text
  char prev_code_char = '\n';   // last non-space char seen in code state

  auto blank = [&](size_t i) {
    if (st[i] != '\n') st[i] = ' ';
  };

  for (size_t i = 0; i < src.size(); ++i) {
    const char c = src[i];
    const char next = i + 1 < src.size() ? src[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          comment_start = i;
          blank(i);
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          comment_start = i;
          blank(i);
        } else if (c == 'R' && next == '"' &&
                   !(std::isalnum(static_cast<unsigned char>(prev_code_char)) ||
                     prev_code_char == '_')) {
          // Raw string literal R"delim( ... )delim".
          size_t j = i + 2;
          raw_delim.clear();
          while (j < src.size() && src[j] != '(') raw_delim += src[j++];
          state = State::kRawString;
          for (size_t k = i + 1; k <= j && k < src.size(); ++k) blank(k);
          i = j;  // consumed through '('
        } else if (c == '"') {
          state = State::kString;
        } else if (c == '\'' &&
                   !(std::isalnum(static_cast<unsigned char>(prev_code_char)) ||
                     prev_code_char == '_')) {
          // A quote after an identifier/number char is a digit separator
          // (1'000) or literal suffix, not a char literal.
          state = State::kChar;
        }
        if (!std::isspace(static_cast<unsigned char>(c))) prev_code_char = c;
        break;
      case State::kLineComment:
        if (c == '\n') {
          out.comments.push_back(
              {LineOfOffset(src, comment_start),
               src.substr(comment_start, i - comment_start)});
          state = State::kCode;
          prev_code_char = '\n';
        } else {
          blank(i);
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          out.comments.push_back(
              {LineOfOffset(src, comment_start),
               src.substr(comment_start, i + 2 - comment_start)});
          blank(i);
          blank(i + 1);
          ++i;
          state = State::kCode;
        } else {
          blank(i);
        }
        break;
      case State::kString:
        if (c == '\\' && next != '\0') {
          blank(i);
          blank(i + 1);
          ++i;
        } else if (c == '"') {
          state = State::kCode;
          prev_code_char = '"';
        } else {
          blank(i);
        }
        break;
      case State::kChar:
        if (c == '\\' && next != '\0') {
          blank(i);
          blank(i + 1);
          ++i;
        } else if (c == '\'') {
          state = State::kCode;
          prev_code_char = '\'';
        } else {
          blank(i);
        }
        break;
      case State::kRawString: {
        const std::string close = ")" + raw_delim + "\"";
        if (src.compare(i, close.size(), close) == 0) {
          for (size_t k = i; k < i + close.size(); ++k) blank(k);
          i += close.size() - 1;
          state = State::kCode;
          prev_code_char = '"';
        } else {
          blank(i);
        }
        break;
      }
    }
  }
  if (state == State::kLineComment) {
    out.comments.push_back({LineOfOffset(src, comment_start),
                            src.substr(comment_start)});
  }
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

namespace {

// Splits a comma-separated rule list, validating ids; returns the known
// ones and appends bad-suppression findings for the rest.
std::set<std::string> ParseRuleList(const std::string& path, int line,
                                    const std::string& rules,
                                    const char* form,
                                    std::vector<Violation>* errors) {
  std::set<std::string> out;
  std::stringstream ss(rules);
  std::string rule;
  while (std::getline(ss, rule, ',')) {
    const size_t b = rule.find_first_not_of(" \t");
    const size_t e = rule.find_last_not_of(" \t");
    rule = b == std::string::npos ? "" : rule.substr(b, e - b + 1);
    if (!IsKnownRule(rule)) {
      errors->push_back({path, line, "bad-suppression",
                         "unknown rule '" + rule + "' in " + form + "()"});
    } else {
      out.insert(rule);
    }
  }
  return out;
}

// Last line of the comment block containing a directive comment that
// starts at `start_line`, where a "block" is the run of consecutive
// comment-only lines (no code, no blank line in between). Wrapped
// justifications therefore do not change which line the directive hits.
int CommentBlockEnd(const internal::LexedFile& lexed, int start_line) {
  // Lines with any code left after stripping: a trailing comment on a code
  // line is its own one-line block.
  std::set<int> code_lines;
  {
    int line = 1;
    bool has_code = false;
    for (const char c : lexed.stripped) {
      if (c == '\n') {
        if (has_code) code_lines.insert(line);
        ++line;
        has_code = false;
      } else if (!std::isspace(static_cast<unsigned char>(c))) {
        has_code = true;
      }
    }
    if (has_code) code_lines.insert(line);
  }
  // First line -> last line of each comment.
  std::map<int, int> comment_end;
  for (const auto& comment : lexed.comments) {
    const int newlines = static_cast<int>(
        std::count(comment.text.begin(), comment.text.end(), '\n'));
    auto [it, inserted] =
        comment_end.emplace(comment.line, comment.line + newlines);
    if (!inserted) it->second = std::max(it->second, comment.line + newlines);
  }
  int end = start_line;
  const auto self = comment_end.find(start_line);
  if (self != comment_end.end()) end = std::max(end, self->second);
  for (;;) {
    const auto next = comment_end.find(end + 1);
    if (next == comment_end.end() || code_lines.count(end + 1) > 0) break;
    end = std::max(end, next->second);
  }
  return end;
}

}  // namespace

Suppressions ParseSuppressions(const std::string& path,
                               const LexedFile& lexed) {
  Suppressions out;
  static const std::regex kAllow(
      R"(colt-lint:\s*allow\(([^)]*)\)\s*(:?)\s*(.*))");
  static const std::regex kAllowNextLine(
      R"(colt-lint:\s*allow-next-line\(([^)]*)\)\s*(:?)\s*(.*))");
  for (const auto& comment : lexed.comments) {
    std::smatch m;
    const bool next_line = std::regex_search(comment.text, m, kAllowNextLine);
    if (!next_line && !std::regex_search(comment.text, m, kAllow)) continue;
    const char* form = next_line ? "allow-next-line" : "allow";
    const std::string rules = m[1];
    const std::string colon = m[2];
    std::string justification = m[3];
    while (!justification.empty() && std::isspace(static_cast<unsigned char>(
                                         justification.back()))) {
      justification.pop_back();
    }
    if (colon.empty() || justification.empty()) {
      out.errors.push_back(
          {path, comment.line, "bad-suppression",
           std::string(form) + "() requires a justification: "
                               "// colt-lint: " +
               form + "(<rule>): <why this is safe>"});
      continue;
    }
    std::set<std::string> parsed =
        ParseRuleList(path, comment.line, rules, form, &out.errors);
    if (next_line) {
      const int target = CommentBlockEnd(lexed, comment.line) + 1;
      out.by_line[target].insert(parsed.begin(), parsed.end());
    } else {
      out.file_wide.insert(parsed.begin(), parsed.end());
    }
  }
  return out;
}

}  // namespace internal

namespace {

namespace fs = std::filesystem;

using internal::LexedFile;
using internal::Lex;
using internal::LineOfOffset;
using internal::StartsWith;
using internal::Suppressions;
using internal::ParseSuppressions;

// ---------------------------------------------------------------------------
// Module DAG. A file in src/<module>/ may include its own module plus the
// listed dependencies; anything else is an upward or sideways edge.
// Order: common -> catalog -> index -> {storage, query} -> optimizer ->
// exec -> core -> baseline -> harness  (see DESIGN.md §9).
// ---------------------------------------------------------------------------

const std::map<std::string, std::set<std::string>>& ModuleDag() {
  static const std::map<std::string, std::set<std::string>> kDag = {
      {"common", {}},
      {"catalog", {"common"}},
      {"index", {"common"}},
      {"query", {"common", "catalog"}},
      {"storage", {"common", "catalog", "index"}},
      {"optimizer", {"common", "catalog", "query"}},
      {"exec",
       {"common", "catalog", "index", "query", "storage", "optimizer"}},
      {"core",
       {"common", "catalog", "index", "query", "storage", "optimizer",
        "exec"}},
      {"baseline",
       {"common", "catalog", "index", "query", "storage", "optimizer", "exec",
        "core"}},
      {"harness",
       {"common", "catalog", "index", "query", "storage", "optimizer", "exec",
        "core", "baseline"}},
  };
  return kDag;
}

// Repo-relative module of a src/ file, or "" if not under src/.
std::string ModuleOf(const std::string& path) {
  if (!StartsWith(path, "src/")) return "";
  const size_t slash = path.find('/', 4);
  if (slash == std::string::npos) return "";
  return path.substr(4, slash - 4);
}

struct Include {
  int line;
  std::string path;  // as written between the quotes/brackets
  bool angled;
};

// Include directives, with paths read back from the original content (the
// stripped view blanks quoted-include paths along with every other string).
std::vector<Include> FindIncludes(const std::string& original,
                                  const std::string& stripped) {
  std::vector<Include> out;
  static const std::regex kInclude(R"(#[ \t]*include[ \t]*(["<]))");
  for (auto it = std::sregex_iterator(stripped.begin(), stripped.end(),
                                      kInclude);
       it != std::sregex_iterator(); ++it) {
    const size_t open = static_cast<size_t>(it->position(1));
    const char close = original[open] == '<' ? '>' : '"';
    const size_t end = original.find(close, open + 1);
    if (end == std::string::npos) continue;
    out.push_back({LineOfOffset(original, open),
                   original.substr(open + 1, end - open - 1),
                   original[open] == '<'});
  }
  return out;
}

// ---------------------------------------------------------------------------
// Individual rules. Each returns findings against the stripped view.
// ---------------------------------------------------------------------------

void CheckLayering(const std::string& path, const std::string& original,
                   const std::string& stripped,
                   std::vector<Violation>* out) {
  const std::string module = ModuleOf(path);
  if (module.empty()) return;  // bench/tests/tools may include anything
  const auto& dag = ModuleDag();
  const auto self = dag.find(module);
  if (self == dag.end()) {
    out->push_back({path, 1, "layering",
                    "module 'src/" + module +
                        "' is not in the declared module DAG; add it to "
                        "ModuleDag() in tools/colt_lint/lint.cc and to "
                        "DESIGN.md §9"});
    return;
  }
  for (const Include& inc : FindIncludes(original, stripped)) {
    if (inc.angled) continue;  // system/third-party headers
    const size_t slash = inc.path.find('/');
    if (slash == std::string::npos) continue;  // same-directory include
    const std::string target = inc.path.substr(0, slash);
    if (dag.find(target) == dag.end()) continue;  // not a project module
    if (target == module || self->second.count(target) > 0) continue;
    out->push_back(
        {path, inc.line, "layering",
         "src/" + module + " must not include \"" + inc.path +
             "\": '" + target + "' is not below '" + module +
             "' in the module DAG (common -> catalog -> index -> "
             "storage/query -> optimizer -> exec -> core -> baseline -> "
             "harness)"});
  }
}

void CheckStatusDiscard(const std::string& path, const std::string& stripped,
                        std::vector<Violation>* out) {
  static const std::regex kVoidCast(R"(\(\s*void\s*\)\s*[A-Za-z_:(!~0-9])");
  for (auto it = std::sregex_iterator(stripped.begin(), stripped.end(),
                                      kVoidCast);
       it != std::sregex_iterator(); ++it) {
    out->push_back(
        {path, LineOfOffset(stripped, static_cast<size_t>(it->position())),
         "status-discard",
         "bare (void) cast: use ColtIgnoreStatus(...) to drop a "
         "Status/Result on purpose, or [[maybe_unused]] for unused "
         "variables and parameters"});
  }
}

void CheckDeterminism(const std::string& path, const std::string& stripped,
                      std::vector<Violation>* out) {
  if (path == "src/common/rng.h" || StartsWith(path, "src/common/logging")) {
    return;  // the sanctioned randomness / wall-clock sites
  }
  struct Pattern {
    const char* regex;
    const char* what;
  };
  static const Pattern kPatterns[] = {
      {R"((^|[^A-Za-z0-9_])(std\s*::\s*)?(rand|srand|rand_r)\s*\()",
       "rand()/srand()"},
      {R"(random_device)", "std::random_device"},
      {R"((^|[^A-Za-z0-9_])time\s*\(\s*(nullptr|NULL|0)\s*\))",
       "time(nullptr) seeding"},
      {R"(system_clock)", "std::chrono::system_clock"},
  };
  for (const Pattern& p : kPatterns) {
    const std::regex re(p.regex);
    for (auto it = std::sregex_iterator(stripped.begin(), stripped.end(), re);
         it != std::sregex_iterator(); ++it) {
      out->push_back(
          {path, LineOfOffset(stripped, static_cast<size_t>(it->position())),
           "determinism",
           std::string(p.what) +
               " breaks run-to-run reproducibility of the Fig. 3-6 "
               "experiments; draw randomness from colt::Rng "
               "(src/common/rng.h) and time from metrics::WallTimer"});
    }
  }
}

// True when the `new` at `word_pos` is the initializer of a function-local
// leaky singleton (`static T* t = new T(...)`), the sanctioned idiom for
// registries that must survive static destruction (metrics, bench
// fixtures). Scans back to the previous statement boundary and requires the
// statement to open with `static`.
bool IsLeakySingletonNew(const std::string& stripped, size_t word_pos) {
  size_t begin = word_pos;
  while (begin > 0 && stripped[begin - 1] != ';' && stripped[begin - 1] != '{'
         && stripped[begin - 1] != '}') {
    --begin;
  }
  const std::string stmt = stripped.substr(begin, word_pos - begin);
  static const std::regex kLeaky(R"(^\s*static\b[^=]*\*[^=]*=\s*$)");
  return std::regex_match(stmt, kLeaky);
}

void CheckRawNewDelete(const std::string& path, const std::string& stripped,
                       std::vector<Violation>* out) {
  if (path == "src/index/btree.h" || path == "src/index/btree.cc") {
    return;  // the B+-tree owns its node store by design
  }
  static const std::regex kWord(R"((^|[^A-Za-z0-9_])(new|delete)\b)");
  for (auto it = std::sregex_iterator(stripped.begin(), stripped.end(),
                                      kWord);
       it != std::sregex_iterator(); ++it) {
    const size_t word_pos =
        static_cast<size_t>(it->position(2));
    if (it->str(2) == "delete") {
      // `= delete` (deleted special member) is not a deallocation.
      size_t j = word_pos;
      while (j > 0 && std::isspace(static_cast<unsigned char>(
                          stripped[j - 1]))) {
        --j;
      }
      if (j > 0 && stripped[j - 1] == '=') continue;
    } else if (IsLeakySingletonNew(stripped, word_pos)) {
      continue;
    }
    out->push_back({path, LineOfOffset(stripped, word_pos), "raw-new-delete",
                    "raw '" + it->str(2) +
                        "' outside src/index/btree: use std::unique_ptr / "
                        "containers (ownership bugs in the tuning loop are "
                        "unrecoverable)"});
  }
}

void CheckNakedThread(const std::string& path, const std::string& stripped,
                      std::vector<Violation>* out) {
  if (StartsWith(path, "src/common/thread_pool")) {
    return;  // the one sanctioned thread-creation site
  }
  struct Pattern {
    const char* regex;
    const char* what;
  };
  // std::this_thread (sleeps, yields) stays legal: the patterns anchor on
  // the creation tokens, which "this_thread" does not contain.
  static const Pattern kPatterns[] = {
      {R"(std\s*::\s*(jthread|thread)\b)", "std::thread/std::jthread"},
      {R"((^|[^A-Za-z0-9_])std\s*::\s*async\b)", "std::async"},
      {R"((^|[^A-Za-z0-9_])pthread_create\b)", "pthread_create"},
  };
  for (const Pattern& p : kPatterns) {
    const std::regex re(p.regex);
    for (auto it = std::sregex_iterator(stripped.begin(), stripped.end(), re);
         it != std::sregex_iterator(); ++it) {
      out->push_back(
          {path, LineOfOffset(stripped, static_cast<size_t>(it->position())),
           "naked-thread",
           std::string(p.what) +
               " outside src/common/thread_pool: route parallel work "
               "through colt::ThreadPool (ordered joins, per-task RNG "
               "streams, centralized shutdown) so the serial-equivalence "
               "contract of DESIGN.md §10 stays enforceable; for the core "
               "count use ThreadPool::HardwareConcurrency()"});
    }
  }
}

void CheckIostream(const std::string& path, const std::string& original,
                   const std::string& stripped,
                   std::vector<Violation>* out) {
  if (!StartsWith(path, "src/")) return;  // benches/tools/tests are CLIs
  if (StartsWith(path, "src/common/logging") ||
      StartsWith(path, "src/common/metrics")) {
    return;
  }
  for (const Include& inc : FindIncludes(original, stripped)) {
    if (inc.angled && inc.path == "iostream") {
      out->push_back(
          {path, inc.line, "iostream",
           "<iostream> in src/ pulls static init and global stream state "
           "into the hot path; take a std::ostream& or use the logging "
           "layer"});
    }
  }
}

void CheckMetricNames(const std::string& path, const std::string& original,
                      const std::string& stripped,
                      std::vector<Violation>* out) {
  if (StartsWith(path, "src/common/metrics") ||
      StartsWith(path, "src/common/provenance")) {
    return;  // the registry/recorder implementations take names as
             // parameters
  }
  // RecordEvent is the provenance emission point; event names follow the
  // metric-name contract (dotted snake_case literals) so the decision
  // taxonomy is greppable and stable across PRs.
  static const std::regex kCall(
      R"((GetCounter|GetGauge|GetHistogram|RecordEvent)\s*\()");
  static const std::regex kMetricName(R"([a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+)");
  for (auto it = std::sregex_iterator(stripped.begin(), stripped.end(),
                                      kCall);
       it != std::sregex_iterator(); ++it) {
    const std::string func = it->str(1);
    size_t pos = static_cast<size_t>(it->position()) + it->length();
    while (pos < original.size() &&
           std::isspace(static_cast<unsigned char>(original[pos]))) {
      ++pos;
    }
    const int line =
        LineOfOffset(stripped, static_cast<size_t>(it->position()));
    if (pos >= original.size() || original[pos] != '"') {
      out->push_back({path, line, "metric-name",
                      func + " name must be a string literal so the metric "
                             "namespace is greppable and stable"});
      continue;
    }
    const size_t end = original.find('"', pos + 1);
    if (end == std::string::npos) continue;
    const std::string name = original.substr(pos + 1, end - pos - 1);
    if (!std::regex_match(name, kMetricName)) {
      out->push_back({path, line, "metric-name",
                      func + " name \"" + name +
                          "\" must be dotted snake_case with at least two "
                          "segments: e.g. \"optimizer.whatif.calls\""});
    }
  }
}

void CheckUncheckedFileIo(const std::string& path,
                          const std::string& stripped,
                          std::vector<Violation>* out) {
  if (StartsWith(path, "src/common/persist/")) {
    return;  // the sanctioned file-I/O layer; every call is checked there
  }
  // A call whose previous significant character ends a statement (or opens
  // a block) discards its return value. fwrite/fread may write/read less
  // than asked and fclose is where buffered write errors finally surface —
  // ignoring any of them turns a disk error into silent data loss.
  static const std::regex kCall(
      R"((^|[^A-Za-z0-9_:.>])(?:std\s*::\s*)?(fwrite|fread|fclose)\s*\()");
  for (auto it = std::sregex_iterator(stripped.begin(), stripped.end(),
                                      kCall);
       it != std::sregex_iterator(); ++it) {
    size_t call_pos = static_cast<size_t>(it->position());
    if (it->length(1) > 0) ++call_pos;
    size_t j = call_pos;
    while (j > 0 &&
           std::isspace(static_cast<unsigned char>(stripped[j - 1]))) {
      --j;
    }
    if (j > 0 && stripped[j - 1] != ';' && stripped[j - 1] != '{' &&
        stripped[j - 1] != '}') {
      continue;  // the result feeds an expression — it is being checked
    }
    out->push_back(
        {path, LineOfOffset(stripped, call_pos), "unchecked-file-io",
         "unchecked '" + it->str(2) +
             "' return value outside src/common/persist: short writes and "
             "deferred close errors are how checkpoints corrupt silently; "
             "check the result (or route durability through "
             "colt::CheckpointStore)"});
  }
}

void CheckWhitespace(const std::string& path, const std::string& original,
                     std::vector<Violation>* out) {
  int line = 1;
  size_t line_start = 0;
  for (size_t i = 0; i <= original.size(); ++i) {
    if (i == original.size() || original[i] == '\n') {
      const size_t len = i - line_start;
      if (len > 0) {
        const char last = original[i - 1];
        if (last == '\r') {
          out->push_back({path, line, "whitespace",
                          "CRLF line ending; the tree is LF-only"});
        } else if (last == ' ' || last == '\t') {
          out->push_back({path, line, "whitespace", "trailing whitespace"});
        }
      }
      if (original.find('\t', line_start) < i) {
        out->push_back({path, line, "whitespace",
                        "tab character; indent with spaces"});
      }
      if (i == original.size()) {
        if (!original.empty() && original.back() != '\n') {
          out->push_back(
              {path, line, "whitespace", "missing newline at end of file"});
        }
        break;
      }
      ++line;
      line_start = i + 1;
    }
  }
}

}  // namespace

std::string Violation::ToString() const {
  return file + ":" + std::to_string(line) + ": " + rule + ": " + message;
}

const std::vector<std::string>& AllRules() {
  static const std::vector<std::string> kRules = {
      "layering",     "status-discard", "determinism",
      "raw-new-delete", "naked-thread", "iostream",
      "metric-name",  "thread-role",   "worker-purity",
      "unchecked-file-io", "whitespace"};
  return kRules;
}

bool IsKnownRule(std::string_view rule) {
  const auto& rules = AllRules();
  return std::find(rules.begin(), rules.end(), rule) != rules.end();
}

std::vector<Violation> LintFiles(const std::vector<FileContent>& files) {
  // Per-file: lex once, run the single-file rules, remember the stripped
  // view and suppressions for the cross-file pass.
  std::vector<LexedFile> lexed;
  std::vector<Suppressions> sups;
  lexed.reserve(files.size());
  sups.reserve(files.size());
  std::vector<Violation> out;
  std::vector<Violation> raw;
  for (const FileContent& file : files) {
    lexed.push_back(Lex(file.content));
    sups.push_back(ParseSuppressions(file.path, lexed.back()));
    const std::string& stripped = lexed.back().stripped;
    raw.clear();
    CheckLayering(file.path, file.content, stripped, &raw);
    CheckStatusDiscard(file.path, stripped, &raw);
    CheckDeterminism(file.path, stripped, &raw);
    CheckRawNewDelete(file.path, stripped, &raw);
    CheckNakedThread(file.path, stripped, &raw);
    CheckIostream(file.path, file.content, stripped, &raw);
    CheckMetricNames(file.path, file.content, stripped, &raw);
    CheckUncheckedFileIo(file.path, stripped, &raw);
    CheckWhitespace(file.path, file.content, &raw);
    const Suppressions& sup = sups.back();
    out.insert(out.end(), sup.errors.begin(), sup.errors.end());
    for (auto& v : raw) {
      if (!sup.Allows(v.rule, v.line)) out.push_back(std::move(v));
    }
  }

  // Cross-file: the thread-role analyzer sees the whole corpus at once, so
  // a role declared in a header binds call sites in every translation unit.
  std::map<std::string, size_t> index_of;
  std::vector<const std::string*> paths;
  std::vector<const std::string*> stripped;
  paths.reserve(files.size());
  stripped.reserve(files.size());
  for (size_t i = 0; i < files.size(); ++i) {
    index_of[files[i].path] = i;
    paths.push_back(&files[i].path);
    stripped.push_back(&lexed[i].stripped);
  }
  for (auto& v : internal::AnalyzeThreadRoles(paths, stripped)) {
    const auto it = index_of.find(v.file);
    if (it != index_of.end() && sups[it->second].Allows(v.rule, v.line)) {
      continue;
    }
    out.push_back(std::move(v));
  }

  std::sort(out.begin(), out.end(), [](const Violation& a,
                                       const Violation& b) {
    return std::tie(a.file, a.line, a.rule) < std::tie(b.file, b.line, b.rule);
  });
  return out;
}

std::vector<Violation> LintFileContent(const std::string& path,
                                       const std::string& content) {
  return LintFiles({{path, content}});
}

std::vector<Violation> LintTree(const std::string& root) {
  std::vector<FileContent> files;
  const fs::path base(root);
  for (const char* top : {"src", "bench", "tests", "tools"}) {
    const fs::path dir = base / top;
    if (!fs::exists(dir)) continue;
    for (auto it = fs::recursive_directory_iterator(dir);
         it != fs::recursive_directory_iterator(); ++it) {
      if (it->is_directory()) {
        const std::string name = it->path().filename().string();
        if (name == "lint_fixtures" || name == "build" || name == "out" ||
            StartsWith(name, ".")) {
          it.disable_recursion_pending();
        }
        continue;
      }
      const std::string ext = it->path().extension().string();
      if (ext != ".h" && ext != ".cc" && ext != ".cpp") continue;
      std::ifstream in(it->path(), std::ios::binary);
      std::stringstream buffer;
      buffer << in.rdbuf();
      files.push_back(
          {fs::relative(it->path(), base).generic_string(), buffer.str()});
    }
  }
  // Deterministic corpus order regardless of directory iteration order.
  std::sort(files.begin(), files.end(),
            [](const FileContent& a, const FileContent& b) {
              return a.path < b.path;
            });
  return LintFiles(files);
}

}  // namespace colt_lint
