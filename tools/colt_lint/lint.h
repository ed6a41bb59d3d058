#ifndef COLT_TOOLS_COLT_LINT_LINT_H_
#define COLT_TOOLS_COLT_LINT_LINT_H_

#include <string>
#include <string_view>
#include <vector>

/// colt_lint: dependency-free static analysis for project invariants the
/// compiler never sees (see DESIGN.md §9). Token/regex based on a stripped
/// view of each file (comments and literal contents blanked), so banned
/// tokens inside strings or comments never fire.
///
/// Deliberately NOT a real C++ front end: every rule is a structural
/// pattern that survives formatting churn, and every rule has an escape
/// hatch — a comment of the form "colt-lint" + ": allow(<rule>):
/// <justification>" (file-wide) or "colt-lint" + ": allow-next-line(<rule>):
/// <justification>" (silences the first code line after the comment block)
/// — so a false positive costs one documented comment, not a redesign of
/// the tool. Prefer the line-scoped form: it cannot hide an unrelated
/// violation added later in the same file.
namespace colt_lint {

/// One finding. Formats as "file:line: rule: message".
struct Violation {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;

  std::string ToString() const;
};

/// Rule identifiers, as they appear in output and allow() suppressions.
/// - layering:        #include must follow the module DAG (no upward or
///                    sideways edges between src/ modules).
/// - status-discard:  no bare `(void)` casts; intentional Status/Result
///                    drops go through ColtIgnoreStatus().
/// - determinism:     no rand()/srand()/std::random_device, no
///                    time(nullptr) seeding, no std::chrono::system_clock
///                    outside src/common/rng.h and the logging layer.
/// - raw-new-delete:  no raw new/delete outside the B+-tree node store.
/// - naked-thread:    no std::thread/std::jthread/std::async/
///                    pthread_create outside src/common/thread_pool;
///                    parallel work goes through colt::ThreadPool so the
///                    serial-equivalence contract (DESIGN.md §10) holds.
/// - iostream:        no <iostream> in src/ (logging/metrics excepted);
///                    harness and CLIs print via <ostream>.
/// - metric-name:     GetCounter/GetGauge/GetHistogram/RecordEvent names
///                    are dotted snake_case literals.
/// - thread-role:     cross-file call-graph pass over the COLT_OWNER_ONLY /
///                    COLT_WORKER_SAFE / COLT_THREAD_NEUTRAL annotations
///                    (src/common/thread_annotations.h): worker-safe and
///                    thread-neutral functions must not call owner-only
///                    APIs, pool-submitted lambdas may only call annotated
///                    worker-safe/neutral project functions, and one
///                    function may not carry two different roles.
/// - worker-purity:   inside worker-safe/neutral bodies and pool lambdas:
///                    no provenance emission (RecordEvent), no
///                    MetricsRegistry::Default(), no randomness outside
///                    ThreadPool::TaskRng, no const_cast, no mutable
///                    static locals, and no member writes from
///                    const-qualified (Peek-style) read paths.
/// - whitespace:      no tabs, trailing whitespace, CR line endings, or
///                    missing final newline.
/// - bad-suppression: malformed or unjustified allow() /
///                    allow-next-line() comment.
const std::vector<std::string>& AllRules();

/// True if `rule` is a known rule id (excluding bad-suppression, which
/// cannot be suppressed).
bool IsKnownRule(std::string_view rule);

/// One in-memory file for LintFiles. `path` is the repo-relative path
/// (forward slashes); it decides which rules and exceptions apply.
struct FileContent {
  std::string path;
  std::string content;
};

/// Lints a corpus of files together: every per-file rule on each file,
/// plus the cross-file thread-role analysis over the whole corpus (the
/// analyzer's symbol table and call graph span all of `files`, so roles
/// declared in one file bind definitions and call sites in another).
/// Violations are sorted by (file, line, rule).
std::vector<Violation> LintFiles(const std::vector<FileContent>& files);

/// Lints one file's contents: LintFiles with a single-file corpus.
std::vector<Violation> LintFileContent(const std::string& path,
                                       const std::string& content);

/// Walks `root` (a repository checkout) and lints every .h/.cc/.cpp file
/// under src/, bench/, tests/, and tools/, skipping tests/lint_fixtures/
/// and build directories. Violations are sorted by (file, line).
std::vector<Violation> LintTree(const std::string& root);

}  // namespace colt_lint

#endif  // COLT_TOOLS_COLT_LINT_LINT_H_
