// Driver pieces of iqlint: the checked-in project configuration, tree
// loading, suppression filtering, and the compile_commands.json reader.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "iqlint/iqlint.h"

namespace iqlint {

namespace fs = std::filesystem;

LintConfig ProjectConfig() {
  LintConfig config;
  // Mirrors the per-module library graph in src/CMakeLists.txt. Every
  // module implicitly depends on itself and "common"; edges here are
  // the DIRECT dependencies (the check closes them transitively).
  config.module_deps = {
      {"common", {}},
      {"obs", {"common"}},
      {"geom", {"common"}},
      {"io", {"common", "obs"}},
      {"quant", {"geom", "obs"}},
      {"fractal", {"geom"}},
      {"data", {"geom", "io"}},
      {"costmodel", {"geom", "io", "fractal"}},
      {"sched", {"io", "costmodel"}},
      {"format", {"quant", "io"}},
      {"analysis", {"format"}},
      {"core", {"analysis", "quant", "data", "costmodel", "sched", "obs"}},
      {"concurrency", {"core"}},
      {"shard", {"concurrency"}},
      {"xtree", {"data", "core"}},
      {"vafile", {"quant", "data"}},
      {"scan", {"data", "quant"}},
      {"harness", {"core", "xtree", "vafile", "scan"}},
  };
  // core/format.* builds as its own iq_format library below
  // iq_analysis, despite living in the core/ directory.
  config.file_module_overrides = {
      {"core/format.h", "format"},
      {"core/format.cc", "format"},
  };
  return config;
}

const std::vector<std::string>& AllChecks() {
  static const std::vector<std::string> kChecks = {
      "layering",       "hotpath-alloc",       "lock-rank",
      "cast-safety",    "metric-hygiene",      "guarded-by-coverage",
      "lock-set",       "typestate",           "float-determinism"};
  return kChecks;
}

namespace {

bool HasLintExtension(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".cc" || ext == ".hpp" || ext == ".cpp";
}

bool SkippedDir(const std::string& name) {
  return name == "testdata" || name.rfind("build", 0) == 0 ||
         (!name.empty() && name[0] == '.');
}

std::string ReadFileOrEmpty(const fs::path& p, bool* ok) {
  std::ifstream in(p, std::ios::binary);
  if (!in) {
    *ok = false;
    return "";
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  *ok = true;
  return buf.str();
}

}  // namespace

std::vector<LexedFile> LoadTree(const Options& opts, std::string* error) {
  std::vector<LexedFile> out;
  const fs::path root(opts.root);
  std::error_code ec;
  if (!fs::is_directory(root, ec)) {
    *error = "not a directory: " + opts.root;
    return out;
  }
  const std::vector<std::string>& dirs =
      opts.scan_dirs.empty() ? DefaultScanDirs() : opts.scan_dirs;
  std::set<std::string> seen;
  for (const std::string& dir : dirs) {
    const fs::path base = root / dir;
    if (!fs::is_directory(base, ec)) continue;
    fs::recursive_directory_iterator it(
        base, fs::directory_options::skip_permission_denied, ec);
    for (const auto end = fs::recursive_directory_iterator(); it != end;
         it.increment(ec)) {
      if (ec) break;
      const fs::path& p = it->path();
      if (it->is_directory(ec)) {
        if (SkippedDir(p.filename().string())) it.disable_recursion_pending();
        continue;
      }
      if (!HasLintExtension(p)) continue;
      const std::string rel = fs::relative(p, root, ec).generic_string();
      if (ec || !seen.insert(rel).second) continue;
      bool ok = false;
      const std::string contents = ReadFileOrEmpty(p, &ok);
      if (!ok) continue;
      out.push_back(LexFile(rel, contents));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const LexedFile& a, const LexedFile& b) {
              return a.path < b.path;
            });
  return out;
}

std::vector<std::string> ParseCompileCommands(const std::string& path,
                                              std::string* error) {
  std::vector<std::string> out;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *error = "cannot read " + path;
    return out;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  // Minimal extraction of "file": "<path>" entries — sufficient for
  // CMake's generated compile_commands.json.
  const std::string key = "\"file\"";
  size_t at = 0;
  while ((at = text.find(key, at)) != std::string::npos) {
    size_t i = at + key.size();
    while (i < text.size() &&
           (text[i] == ' ' || text[i] == '\t' || text[i] == ':')) {
      ++i;
    }
    if (i < text.size() && text[i] == '"') {
      std::string value;
      ++i;
      while (i < text.size() && text[i] != '"') {
        if (text[i] == '\\' && i + 1 < text.size()) ++i;
        value.push_back(text[i]);
        ++i;
      }
      out.push_back(std::move(value));
    }
    at = i;
  }
  return out;
}

namespace {

/// For each (file, check), the set of lines covered by a suppression:
/// the comment's own line through the first following line carrying a
/// code token.
bool Suppressed(const LexedFile& file, const Finding& finding) {
  for (const Suppression& s : file.suppressions) {
    if (s.check != finding.check) continue;
    if (finding.line < s.line) continue;
    // First code-token line at or after the suppression comment.
    int covered_through = s.line;
    for (const Token& t : file.tokens) {
      if (t.line >= s.line) {
        covered_through = t.line;
        break;
      }
    }
    if (finding.line <= covered_through) return true;
  }
  return false;
}

}  // namespace

std::vector<Finding> RunChecks(const std::vector<LexedFile>& files,
                               const LintConfig& config,
                               const std::set<std::string>& enabled) {
  std::vector<Finding> raw;
  auto on = [&enabled](const char* check) {
    return enabled.empty() || enabled.count(check) != 0;
  };
  if (on("layering")) CheckLayering(files, config, &raw);
  if (on("hotpath-alloc")) CheckHotPathAlloc(files, &raw);
  if (on("lock-rank")) CheckLockRank(files, &raw);
  if (on("cast-safety")) CheckCastSafety(files, config, &raw);
  if (on("metric-hygiene")) CheckMetricHygiene(files, config, &raw);
  if (on("guarded-by-coverage") || on("lock-set") || on("typestate")) {
    const SymbolTable table = BuildSymbolTable(files);
    if (on("guarded-by-coverage")) CheckGuardedByCoverage(table, &raw);
    if (on("lock-set")) CheckLockSet(table, &raw);
    if (on("typestate")) CheckTypestate(table, &raw);
  }
  if (on("float-determinism")) CheckFloatDeterminism(files, config, &raw);

  std::map<std::string, const LexedFile*> by_path;
  for (const LexedFile& f : files) by_path[f.path] = &f;

  std::vector<Finding> out;
  for (Finding& f : raw) {
    const auto it = by_path.find(f.file);
    if (it != by_path.end() && Suppressed(*it->second, f)) continue;
    out.push_back(std::move(f));
  }
  // Flag suppressions that name a check iqlint does not have — a typo
  // there would silently disable nothing and hide the intent.
  const std::set<std::string> known(AllChecks().begin(), AllChecks().end());
  for (const LexedFile& f : files) {
    for (const Suppression& s : f.suppressions) {
      if (known.count(s.check) == 0) {
        out.push_back(Finding{
            "suppression", f.path, s.line,
            "suppression names unknown check '" + s.check + "'"});
      }
    }
  }
  std::sort(out.begin(), out.end(), [](const Finding& a, const Finding& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    return a.check < b.check;
  });
  return out;
}

}  // namespace iqlint
