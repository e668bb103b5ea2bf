// The five project-contract checks (docs/static_analysis.md). All of
// them are token-pattern passes over lexer.h output — deliberately not
// a C++ front end: each check is scoped so that the patterns it needs
// are unambiguous at the token level, and anything it cannot resolve
// it skips rather than guesses (the runtime validator and the sanitizer
// legs cover the remainder).

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "iqlint/iqlint.h"

namespace iqlint {

namespace {

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() &&
         s.compare(0, prefix.size(), prefix) == 0;
}

/// "src/core/iq_tree.h" -> "core/iq_tree.h"; "" when not under src/.
std::string SrcRelative(const std::string& path) {
  if (!StartsWith(path, "src/")) return "";
  return path.substr(4);
}

/// Module of a src/-relative path: override table first, else the
/// first path segment. "" when there is no segment.
std::string ModuleOf(const std::string& src_rel, const LintConfig& config) {
  if (src_rel.empty()) return "";
  const auto over = config.file_module_overrides.find(src_rel);
  if (over != config.file_module_overrides.end()) return over->second;
  const size_t slash = src_rel.find('/');
  if (slash == std::string::npos) return "";
  return src_rel.substr(0, slash);
}

/// Finds the matching close for the open bracket at `open` (tokens[open]
/// must be the opening punct). Returns tokens.size() when unbalanced.
size_t MatchingClose(const std::vector<Token>& tokens, size_t open,
                     const char* open_ch, const char* close_ch) {
  int depth = 0;
  for (size_t i = open; i < tokens.size(); ++i) {
    if (tokens[i].kind != Token::Kind::kPunct) continue;
    if (tokens[i].text == open_ch) {
      ++depth;
    } else if (tokens[i].text == close_ch) {
      if (--depth == 0) return i;
    }
  }
  return tokens.size();
}

bool IsIdent(const Token& t, const char* text) {
  return t.kind == Token::Kind::kIdent && t.text == text;
}

bool IsPunct(const Token& t, const char* text) {
  return t.kind == Token::Kind::kPunct && t.text == text;
}

}  // namespace

// ---------------------------------------------------------------------------
// layering
// ---------------------------------------------------------------------------

namespace {

/// Transitive closure of the declared DAG; reports a finding and
/// returns false if the declaration itself has a cycle.
bool BuildClosure(const LintConfig& config,
                  std::map<std::string, std::set<std::string>>* closure,
                  std::vector<Finding>* out) {
  // Iterative DFS with colors over the declared graph.
  std::map<std::string, int> color;  // 0 white, 1 gray, 2 black
  bool ok = true;
  std::vector<std::string> order;
  std::vector<std::pair<std::string, size_t>> stack;
  for (const auto& [mod, deps] : config.module_deps) {
    (void)deps;
    if (color[mod] != 0) continue;
    stack.emplace_back(mod, 0);
    color[mod] = 1;
    while (!stack.empty()) {
      auto& [node, next] = stack.back();
      const auto it = config.module_deps.find(node);
      const std::vector<std::string> empty;
      const std::vector<std::string>& deps2 =
          it == config.module_deps.end() ? empty : it->second;
      if (next < deps2.size()) {
        const std::string& dep = deps2[next];
        ++next;
        if (color[dep] == 1) {
          out->push_back(Finding{
              "layering", "<module-dag>", 0,
              "declared module DAG has a cycle through '" + dep + "'"});
          ok = false;
        } else if (color[dep] == 0) {
          color[dep] = 1;
          stack.emplace_back(dep, 0);
        }
      } else {
        color[node] = 2;
        order.push_back(node);
        stack.pop_back();
      }
    }
  }
  if (!ok) return false;
  // order is a reverse topological order: dependencies finish first.
  for (const std::string& mod : order) {
    std::set<std::string>& c = (*closure)[mod];
    const auto it = config.module_deps.find(mod);
    if (it == config.module_deps.end()) continue;
    for (const std::string& dep : it->second) {
      c.insert(dep);
      const auto dc = closure->find(dep);
      if (dc != closure->end()) c.insert(dc->second.begin(), dc->second.end());
    }
  }
  return true;
}

}  // namespace

void CheckLayering(const std::vector<LexedFile>& files,
                   const LintConfig& config, std::vector<Finding>* out) {
  std::map<std::string, std::set<std::string>> closure;
  if (!BuildClosure(config, &closure, out)) return;

  // Observed module-level include graph (with one sample edge each for
  // the cycle report).
  std::map<std::string, std::map<std::string, std::string>> observed;

  for (const LexedFile& file : files) {
    const std::string src_rel = SrcRelative(file.path);
    const std::string from = ModuleOf(src_rel, config);
    if (from.empty() || config.module_deps.find(from) ==
                            config.module_deps.end()) {
      continue;  // not under src/, or an undeclared directory
    }
    for (const IncludeDirective& inc : file.includes) {
      if (inc.angled) continue;
      const std::string to = ModuleOf(inc.path, config);
      if (to.empty() ||
          config.module_deps.find(to) == config.module_deps.end()) {
        continue;  // system / external header
      }
      if (to == from) continue;
      observed[from].emplace(
          to, file.path + ":" + std::to_string(inc.line));
      if (to == "common") continue;  // everyone may use common
      const auto c = closure.find(from);
      if (c == closure.end() || c->second.find(to) == c->second.end()) {
        out->push_back(Finding{
            "layering", file.path, inc.line,
            "module '" + from + "' may not include '" + inc.path +
                "' (module '" + to +
                "' is not among its declared dependencies)"});
      }
    }
  }

  // Cycle detection on the observed graph (catches ordering bugs even
  // if the declared DAG were ever loosened incorrectly).
  std::map<std::string, int> color;
  std::vector<std::string> path;
  std::set<std::string> reported;
  // Recursive lambda via explicit stack-free recursion helper.
  struct Dfs {
    const std::map<std::string, std::map<std::string, std::string>>& g;
    std::map<std::string, int>& color;
    std::vector<std::string>& path;
    std::set<std::string>& reported;
    std::vector<Finding>* out;
    void Visit(const std::string& node) {
      color[node] = 1;
      path.push_back(node);
      const auto it = g.find(node);
      if (it != g.end()) {
        for (const auto& [next, where] : it->second) {
          if (color[next] == 1) {
            // Found a cycle: path from `next` to node, closing edge here.
            std::string cycle;
            bool in = false;
            for (const std::string& p : path) {
              if (p == next) in = true;
              if (in) cycle += p + " -> ";
            }
            cycle += next;
            if (reported.insert(cycle).second) {
              out->push_back(Finding{
                  "layering", where.substr(0, where.find(':')),
                  std::atoi(where.substr(where.find(':') + 1).c_str()),
                  "include cycle between modules: " + cycle});
            }
          } else if (color[next] == 0) {
            Visit(next);
          }
        }
      }
      color[node] = 2;
      path.pop_back();
    }
  };
  Dfs dfs{observed, color, path, reported, out};
  for (const auto& [node, edges] : observed) {
    (void)edges;
    if (color[node] == 0) dfs.Visit(node);
  }
}

// ---------------------------------------------------------------------------
// hotpath-alloc
// ---------------------------------------------------------------------------

namespace {

const std::set<std::string>& AllocFunctions() {
  static const std::set<std::string> kFuncs = {
      "malloc",      "calloc",      "realloc",    "strdup",
      "aligned_alloc", "make_unique", "make_shared"};
  return kFuncs;
}

const std::set<std::string>& GrowthCalls() {
  static const std::set<std::string> kCalls = {
      "push_back", "emplace_back", "emplace", "push",  "insert",
      "resize",    "reserve",      "assign",  "append"};
  return kCalls;
}

/// Standard containers that own heap storage.
const std::set<std::string>& OwningContainers() {
  static const std::set<std::string> kTypes = {
      "vector", "string", "deque", "map", "unordered_map", "set"};
  return kTypes;
}

/// True when tokens[i, end) start a by-value local declaration of an
/// owning std container, `std::<container>[<...>] name` followed by
/// `;`, `=`, `(`, `{`, `,` or `:` (a range-for copy). References,
/// pointers and nested names (`::iterator`) do not match.
bool IsOwningContainerDecl(const std::vector<Token>& t, size_t i,
                           size_t end) {
  if (!IsIdent(t[i], "std") || i + 4 >= end || !IsPunct(t[i + 1], ":") ||
      !IsPunct(t[i + 2], ":") || t[i + 3].kind != Token::Kind::kIdent ||
      OwningContainers().count(t[i + 3].text) == 0) {
    return false;
  }
  size_t k = i + 4;
  if (IsPunct(t[k], "<")) k = MatchingClose(t, k, "<", ">") + 1;
  if (k + 1 >= end || t[k].kind != Token::Kind::kIdent) return false;
  for (const char* next : {";", "=", "(", "{", ",", ":"}) {
    if (IsPunct(t[k + 1], next)) return true;
  }
  return false;
}

/// Scans tokens[begin, end) of a hot function/region and reports
/// allocation patterns.
void ScanHotRegion(const LexedFile& file, size_t begin, size_t end,
                   std::vector<Finding>* out) {
  const std::vector<Token>& t = file.tokens;
  for (size_t i = begin; i < end; ++i) {
    if (t[i].kind != Token::Kind::kIdent) continue;
    if (IsOwningContainerDecl(t, i, end)) {
      out->push_back(Finding{
          "hotpath-alloc", file.path, t[i].line,
          "local std::" + t[i + 3].text +
              " inside an IQ_HOT_NOALLOC function/region allocates per "
              "call (reuse member scratch, or suppress with "
              "'// iqlint: allow(hotpath-alloc): <reason>')"});
      continue;
    }
    const bool called =
        i + 1 < end && (IsPunct(t[i + 1], "(") || IsPunct(t[i + 1], "<"));
    if (t[i].text == "new") {
      out->push_back(Finding{
          "hotpath-alloc", file.path, t[i].line,
          "operator new inside an IQ_HOT_NOALLOC function/region"});
    } else if (called && AllocFunctions().count(t[i].text) != 0) {
      out->push_back(Finding{
          "hotpath-alloc", file.path, t[i].line,
          "allocating call '" + t[i].text +
              "' inside an IQ_HOT_NOALLOC function/region"});
    } else if (i + 1 < end && IsPunct(t[i + 1], "(") &&
               GrowthCalls().count(t[i].text) != 0) {
      out->push_back(Finding{
          "hotpath-alloc", file.path, t[i].line,
          "potentially allocating container call '" + t[i].text +
              "' inside an IQ_HOT_NOALLOC function/region (if the "
              "capacity is pre-reserved, suppress with "
              "'// iqlint: allow(hotpath-alloc): <reason>')"});
    }
  }
}

}  // namespace

void CheckHotPathAlloc(const std::vector<LexedFile>& files,
                       std::vector<Finding>* out) {
  for (const LexedFile& file : files) {
    const std::vector<Token>& t = file.tokens;
    for (size_t i = 0; i < t.size(); ++i) {
      if (t[i].kind != Token::Kind::kIdent) continue;
      if (t[i].text == "IQ_HOT_NOALLOC_BEGIN") {
        size_t end = t.size();
        for (size_t j = i + 1; j < t.size(); ++j) {
          if (IsIdent(t[j], "IQ_HOT_NOALLOC_END")) {
            end = j;
            break;
          }
        }
        if (end == t.size()) {
          out->push_back(Finding{
              "hotpath-alloc", file.path, t[i].line,
              "IQ_HOT_NOALLOC_BEGIN without a matching IQ_HOT_NOALLOC_END"});
        }
        ScanHotRegion(file, i + 1, end, out);
        i = end;
        continue;
      }
      if (t[i].text != "IQ_HOT_NOALLOC") continue;
      // Function form: skip to the parameter list, then to the body.
      size_t j = i + 1;
      while (j < t.size() && !IsPunct(t[j], "(")) {
        if (IsPunct(t[j], ";") || IsPunct(t[j], "}")) break;
        ++j;
      }
      if (j >= t.size() || !IsPunct(t[j], "(")) {
        out->push_back(Finding{
            "hotpath-alloc", file.path, t[i].line,
            "IQ_HOT_NOALLOC is not followed by a function definition"});
        continue;
      }
      size_t close = MatchingClose(t, j, "(", ")");
      // After the parameter list: skip qualifiers/attribute macros (each
      // with their own parens) until the body '{' or a ';' (declaration).
      size_t k = close + 1;
      size_t body_open = t.size();
      while (k < t.size()) {
        if (IsPunct(t[k], "(")) {
          k = MatchingClose(t, k, "(", ")") + 1;
          continue;
        }
        if (IsPunct(t[k], "{")) {
          body_open = k;
          break;
        }
        if (IsPunct(t[k], ";")) break;
        ++k;
      }
      if (body_open == t.size()) continue;  // declaration only
      const size_t body_close = MatchingClose(t, body_open, "{", "}");
      ScanHotRegion(file, body_open + 1, body_close, out);
      i = body_open;  // constructor init-lists were skipped above
    }
  }
}

// ---------------------------------------------------------------------------
// lock-rank
// ---------------------------------------------------------------------------

namespace {

struct RankDecl {
  int rank;
  std::string file;
  int line;
};

/// Scope-stack entry for the acquisition pass.
struct Scope {
  enum class Kind { kClass, kFunc, kOther };
  Kind kind;
  std::string name;  // class name, or owning class of an out-of-line fn
};

/// True for the scoped-lock type names from common/mutex.h.
bool IsScopedLock(const std::string& s) {
  return s == "MutexLock" || s == "ReaderMutexLock" ||
         s == "WriterMutexLock";
}

}  // namespace

void CheckLockRank(const std::vector<LexedFile>& files,
                   std::vector<Finding>* out) {
  // Pass 1: collect IQ_LOCK_RANK declarations (class, member) -> rank,
  // and flag unranked Mutex/SharedMutex members, across src/ only.
  std::map<std::pair<std::string, std::string>, RankDecl> by_class_member;
  std::map<std::string, std::set<int>> by_member;

  for (const LexedFile& file : files) {
    if (SrcRelative(file.path).empty()) continue;
    const std::vector<Token>& t = file.tokens;
    std::vector<std::pair<std::string, int>> class_stack;  // (name, depth)
    int depth = 0;
    for (size_t i = 0; i < t.size(); ++i) {
      if (IsPunct(t[i], "{")) {
        ++depth;
        continue;
      }
      if (IsPunct(t[i], "}")) {
        --depth;
        while (!class_stack.empty() && class_stack.back().second > depth) {
          class_stack.pop_back();
        }
        continue;
      }
      if ((IsIdent(t[i], "class") || IsIdent(t[i], "struct")) &&
          (i == 0 || !IsIdent(t[i - 1], "enum"))) {
        // Find the declaration's name: the last identifier before the
        // base-clause ':' if present, else before the body '{'.
        std::string name;
        std::string before_colon;
        bool saw_colon = false;
        size_t j = i + 1;
        for (; j < t.size(); ++j) {
          if (IsPunct(t[j], "{") || IsPunct(t[j], ";") ||
              IsPunct(t[j], ">") || IsIdent(t[j], "class") ||
              IsIdent(t[j], "struct")) {
            break;
          }
          if (IsPunct(t[j], ":")) {
            saw_colon = true;
            before_colon = name;
            continue;
          }
          if (t[j].kind == Token::Kind::kIdent && !saw_colon) name = t[j].text;
        }
        if (j < t.size() && IsPunct(t[j], "{")) {
          const std::string decl_name = saw_colon ? before_colon : name;
          if (!decl_name.empty()) {
            class_stack.emplace_back(decl_name, depth + 1);
          }
        }
        continue;
      }
      if (!(IsIdent(t[i], "Mutex") || IsIdent(t[i], "SharedMutex"))) {
        continue;
      }
      if (i + 1 >= t.size() || t[i + 1].kind != Token::Kind::kIdent) {
        continue;  // pointer/reference/ctor usage, not a member decl
      }
      if (class_stack.empty() || class_stack.back().second != depth) {
        continue;  // not directly inside a class body
      }
      const std::string& member = t[i + 1].text;
      const std::string& cls = class_stack.back().first;
      // Ranked form: Mutex name{IQ_LOCK_RANK(n)};
      if (i + 6 < t.size() && IsPunct(t[i + 2], "{") &&
          IsIdent(t[i + 3], "IQ_LOCK_RANK") && IsPunct(t[i + 4], "(") &&
          t[i + 5].kind == Token::Kind::kNumber && IsPunct(t[i + 6], ")")) {
        const int rank = std::atoi(t[i + 5].text.c_str());
        by_class_member[{cls, member}] =
            RankDecl{rank, file.path, t[i].line};
        by_member[member].insert(rank);
      } else if (i + 2 < t.size() && IsPunct(t[i + 2], ";")) {
        out->push_back(Finding{
            "lock-rank", file.path, t[i].line,
            "mutex member '" + cls + "::" + member +
                "' has no IQ_LOCK_RANK annotation (rank it, or suppress "
                "with a reason if it is intentionally unranked)"});
      }
    }
  }

  // Pass 2: nested scoped-lock acquisitions must go in strictly
  // increasing rank. Receivers resolve through the enclosing class
  // (class body or Class::Method qualifier); unresolvable receivers
  // are skipped — the runtime validator covers those.
  struct ActiveLock {
    int rank;
    int depth;
    int line;
    std::string member;
  };
  for (const LexedFile& file : files) {
    if (SrcRelative(file.path).empty()) continue;
    const std::vector<Token>& t = file.tokens;
    std::vector<std::pair<Scope, int>> scopes;  // (scope, depth)
    std::vector<ActiveLock> active;
    std::string last_qualifier;  // A of the last "A :: B (" at this stmt
    int depth = 0;
    for (size_t i = 0; i < t.size(); ++i) {
      if (IsPunct(t[i], "{")) {
        Scope s{Scope::Kind::kOther, ""};
        if (!last_qualifier.empty()) {
          s = Scope{Scope::Kind::kFunc, last_qualifier};
        }
        last_qualifier.clear();
        ++depth;
        scopes.emplace_back(s, depth);
        continue;
      }
      if (IsPunct(t[i], "}")) {
        while (!active.empty() && active.back().depth >= depth) {
          active.pop_back();
        }
        while (!scopes.empty() && scopes.back().second >= depth) {
          scopes.pop_back();
        }
        --depth;
        continue;
      }
      if (IsPunct(t[i], ";")) {
        last_qualifier.clear();
        continue;
      }
      // Class scopes, for locks taken in inline member functions.
      if ((IsIdent(t[i], "class") || IsIdent(t[i], "struct")) &&
          (i == 0 || !IsIdent(t[i - 1], "enum"))) {
        std::string name;
        std::string before_colon;
        bool saw_colon = false;
        size_t j = i + 1;
        for (; j < t.size(); ++j) {
          if (IsPunct(t[j], "{") || IsPunct(t[j], ";") ||
              IsPunct(t[j], ">") || IsIdent(t[j], "class") ||
              IsIdent(t[j], "struct")) {
            break;
          }
          if (IsPunct(t[j], ":")) {
            saw_colon = true;
            before_colon = name;
            continue;
          }
          if (t[j].kind == Token::Kind::kIdent && !saw_colon) name = t[j].text;
        }
        if (j < t.size() && IsPunct(t[j], "{")) {
          const std::string decl_name = saw_colon ? before_colon : name;
          ++depth;
          scopes.emplace_back(Scope{Scope::Kind::kClass, decl_name}, depth);
          i = j;
        }
        continue;
      }
      // Remember "A :: B (" qualifiers for out-of-line definitions.
      if (t[i].kind == Token::Kind::kIdent && i + 3 < t.size() &&
          IsPunct(t[i + 1], ":") && IsPunct(t[i + 2], ":") &&
          t[i + 3].kind == Token::Kind::kIdent) {
        last_qualifier = t[i].text;
      }
      // Scoped-lock acquisition: Lock name(&receiver);
      if (t[i].kind == Token::Kind::kIdent && IsScopedLock(t[i].text) &&
          i + 3 < t.size() && t[i + 1].kind == Token::Kind::kIdent &&
          IsPunct(t[i + 2], "(") && IsPunct(t[i + 3], "&")) {
        const size_t close = MatchingClose(t, i + 2, "(", ")");
        if (close >= t.size()) continue;
        std::string member;
        for (size_t j = i + 4; j < close; ++j) {
          if (t[j].kind == Token::Kind::kIdent) member = t[j].text;
        }
        if (member.empty()) continue;
        // Resolve the receiver's class: nearest enclosing class scope,
        // else the nearest function scope's owning class.
        std::string cls;
        for (auto it = scopes.rbegin(); it != scopes.rend(); ++it) {
          if (it->first.kind == Scope::Kind::kClass) {
            cls = it->first.name;
            break;
          }
          if (it->first.kind == Scope::Kind::kFunc &&
              !it->first.name.empty()) {
            cls = it->first.name;
            break;
          }
        }
        int rank = -1;
        const auto exact = by_class_member.find({cls, member});
        if (exact != by_class_member.end()) {
          rank = exact->second.rank;
        } else {
          const auto by_name = by_member.find(member);
          if (by_name != by_member.end() && by_name->second.size() == 1) {
            rank = *by_name->second.begin();
          }
        }
        if (rank < 0) continue;  // unresolvable: runtime validator's job
        for (const ActiveLock& held : active) {
          if (held.rank >= rank) {
            out->push_back(Finding{
                "lock-rank", file.path, t[i].line,
                "acquiring '" + member + "' (rank " + std::to_string(rank) +
                    ") while holding '" + held.member + "' (rank " +
                    std::to_string(held.rank) + ", line " +
                    std::to_string(held.line) +
                    "); nested locks must be acquired in strictly "
                    "increasing IQ_LOCK_RANK order"});
          }
        }
        active.push_back(ActiveLock{rank, depth, t[i].line, member});
        i = close;
        continue;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// cast-safety
// ---------------------------------------------------------------------------

namespace {

const std::set<std::string>& IntegralTypeTokens() {
  static const std::set<std::string> kTypes = {
      "int",      "unsigned", "long",      "short",    "char",
      "signed",   "size_t",   "ssize_t",   "ptrdiff_t", "intptr_t",
      "uintptr_t", "int8_t",  "int16_t",   "int32_t",  "int64_t",
      "uint8_t",  "uint16_t", "uint32_t",  "uint64_t", "PointId",
      "SpanId"};
  return kTypes;
}

const std::set<std::string>& FloatReturningFunctions() {
  static const std::set<std::string> kFuncs = {
      "floor", "ceil", "round", "trunc", "sqrt",  "pow",
      "exp",   "log",  "log2",  "log10", "fabs",  "fmod",
      "hypot"};
  return kFuncs;
}

bool IsFloatingLiteral(const std::string& text) {
  if (StartsWith(text, "0x") || StartsWith(text, "0X")) return false;
  if (text.find('.') != std::string::npos) return true;
  return text.find('e') != std::string::npos ||
         text.find('E') != std::string::npos;
}

}  // namespace

void CheckCastSafety(const std::vector<LexedFile>& files,
                     const LintConfig& config, std::vector<Finding>* out) {
  for (const LexedFile& file : files) {
    if (SrcRelative(file.path).empty()) continue;
    if (config.cast_allowlist.count(file.path) != 0) continue;
    const std::vector<Token>& t = file.tokens;
    // Identifiers declared (or returned) as float/double in this file.
    std::set<std::string> float_idents;
    for (size_t i = 0; i + 1 < t.size(); ++i) {
      if ((IsIdent(t[i], "float") || IsIdent(t[i], "double")) &&
          t[i + 1].kind == Token::Kind::kIdent) {
        float_idents.insert(t[i + 1].text);
      }
    }
    for (size_t i = 0; i < t.size(); ++i) {
      if (!IsIdent(t[i], "static_cast")) continue;
      if (i + 1 >= t.size() || !IsPunct(t[i + 1], "<")) continue;
      // Collect the destination type tokens up to the matching '>'.
      size_t j = i + 2;
      bool integral = false;
      bool non_integral_token = false;
      for (; j < t.size() && !IsPunct(t[j], ">"); ++j) {
        if (t[j].kind != Token::Kind::kIdent) {
          non_integral_token = true;
          continue;
        }
        if (t[j].text == "const") continue;
        if (IntegralTypeTokens().count(t[j].text) != 0) {
          integral = true;
        } else {
          non_integral_token = true;
        }
      }
      if (!integral || non_integral_token) continue;
      if (j + 1 >= t.size() || !IsPunct(t[j + 1], "(")) continue;
      const size_t close = MatchingClose(t, j + 1, "(", ")");
      bool floaty = false;
      for (size_t k = j + 2; k < close && !floaty; ++k) {
        // sizeof(float) etc. is a size_t, not a float value.
        if (IsIdent(t[k], "sizeof") && k + 1 < close &&
            IsPunct(t[k + 1], "(")) {
          k = MatchingClose(t, k + 1, "(", ")");
          continue;
        }
        switch (t[k].kind) {
          case Token::Kind::kIdent:
            if (t[k].text == "float" || t[k].text == "double" ||
                float_idents.count(t[k].text) != 0 ||
                (k + 1 < close && IsPunct(t[k + 1], "(") &&
                 FloatReturningFunctions().count(t[k].text) != 0)) {
              floaty = true;
            }
            break;
          case Token::Kind::kNumber:
            if (IsFloatingLiteral(t[k].text)) floaty = true;
            break;
          default:
            break;
        }
      }
      if (floaty) {
        out->push_back(Finding{
            "cast-safety", file.path, t[i].line,
            "float/double -> integral static_cast outside common/cast.h "
            "(values outside the destination range are UB; use "
            "ClampedCast/SaturatingCast)"});
      }
      i = close;
    }
  }
}

// ---------------------------------------------------------------------------
// metric-hygiene
// ---------------------------------------------------------------------------

void CheckMetricHygiene(const std::vector<LexedFile>& files,
                        const LintConfig& config, std::vector<Finding>* out) {
  std::map<std::string, int> declared;  // name -> first declaration line
  const LexedFile* registry = nullptr;
  for (const LexedFile& file : files) {
    if (file.path == config.metric_registry) {
      registry = &file;
      break;
    }
  }
  if (registry != nullptr) {
    for (const Token& tok : registry->tokens) {
      if (tok.kind != Token::Kind::kString) continue;
      if (!StartsWith(tok.text, "iq_")) continue;
      bool well_formed = true;
      for (const char c : tok.text) {
        if (!(std::islower(static_cast<unsigned char>(c)) ||
              std::isdigit(static_cast<unsigned char>(c)) || c == '_')) {
          well_formed = false;
          break;
        }
      }
      if (!well_formed) {
        out->push_back(Finding{
            "metric-hygiene", registry->path, tok.line,
            "metric name '" + tok.text +
                "' is not iq_[a-z0-9_]+ (Prometheus-style lowercase)"});
      }
      const auto [it, inserted] = declared.emplace(tok.text, tok.line);
      if (!inserted) {
        out->push_back(Finding{
            "metric-hygiene", registry->path, tok.line,
            "duplicate declaration of metric '" + tok.text +
                "' (first declared at line " + std::to_string(it->second) +
                ")"});
      }
    }
  }
  for (const LexedFile& file : files) {
    if (SrcRelative(file.path).empty()) continue;
    if (&file == registry) continue;
    for (const Token& tok : file.tokens) {
      if (tok.kind != Token::Kind::kString) continue;
      if (!StartsWith(tok.text, "iq_")) continue;
      const bool known = declared.count(tok.text) != 0;
      out->push_back(Finding{
          "metric-hygiene", file.path, tok.line,
          known
              ? "metric name '" + tok.text +
                    "' spelled as a literal; use the obs::metric constant "
                    "from " + config.metric_registry
              : "metric name '" + tok.text + "' is not declared in " +
                    config.metric_registry});
    }
  }
}

}  // namespace iqlint
